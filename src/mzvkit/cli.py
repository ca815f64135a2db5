"""Command-line front end.

Grammar (a verb's rule lists its targets)::

    command := verb target index* option*
    eval    := mzv | mzv-star | stadic
    check   := harmonic | shifted-harmonic | shuffle | antipode | reg | explicit-reg
             | t-translation | csf | csf-shifted | csf-star | csf-nonstar | csf-tau
             | duality | two-cycle | three-cycle | t-part | gamma-factor | independence
             | duality-assoc | smzv-assoc | rsmzv-routes
    scan    := stuffle | shift | wolstenholme
    cache   := show | save | load | clear
    index   := "(" [int ("," int)*] ")"
    option  := --orders M,N | --prec P | --tau p/q in [-1,1] | --pmax P | --pow N
             | --shift A | --deg D | --config PATH

Checks print one machine-parseable line each::

    <name> <params> residual=<decimal> tol=<decimal> PASS|FAIL

Exit codes: 0 when everything passes, 1 on any failure or module error,
2 on a usage error.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from types import SimpleNamespace

from mpmath import mp

from . import associator, finite, numeric, regularization, stadic
from .indices import Index, parse_index
from .numeric import CACHE, DEFAULT_PREC, MIN_PREC, tolerance
from .words import HARMONIC, SHUFFLE


class UsageError(ValueError):
    pass


# check target -> (index count, params label, call(indices, args)).  The label
# is formatted with the indices as {0}, {1} and with {orders}, {order}, {deg}
# and {tau}; t-part reports one line per product, so it has one label each.
# Every call looks its function up on the module when it runs, so a function
# replaced there (as a profiler or tracer does) is the one called.
CHECKS = {
    "harmonic": (2, "{0} {1} orders={orders}",
                 lambda ks, a: stadic.check_harmonic(*ks, a.orders, a.prec)),
    "shifted-harmonic": (2, "{0} {1} order={order}",
                         lambda ks, a: stadic.check_shifted_harmonic(*ks, a.orders[1], a.prec)),
    "shuffle": (2, "{0} {1} orders={orders}",
                lambda ks, a: stadic.check_shuffle(*ks, a.orders, a.prec)),
    "antipode": (1, "{0} order={order}",
                 lambda ks, a: stadic.check_antipode(*ks, a.orders[1], a.prec)),
    "reg": (1, "{0}", lambda ks, a: regularization.check_reg_theorem(*ks, a.prec)),
    "explicit-reg": (1, "{0} order={order}",
                     lambda ks, a: stadic.check_explicit_reg(*ks, a.orders[1], a.prec)),
    "t-translation": (1, "{0} orders={orders}",
                      lambda ks, a: stadic.check_t_translation(*ks, a.orders, a.prec)),
    "csf": (1, "{0}", lambda ks, a: stadic.check_classical_csf(*ks, a.prec)),
    "csf-shifted": (1, "{0} order={order}",
                    lambda ks, a: stadic.check_shifted_csf(*ks, a.orders[1], a.prec)),
    "csf-star": (1, "{0} orders={orders}",
                 lambda ks, a: stadic.check_csf_star(*ks, a.orders, a.prec)),
    "csf-nonstar": (1, "{0} orders={orders}",
                    lambda ks, a: stadic.check_csf_nonstar(*ks, a.orders, a.prec)),
    "csf-tau": (1, "{0} tau={tau} orders={orders}",
                lambda ks, a: stadic.check_csf_tau(*ks, a.tau, a.orders, a.prec)),
    "duality": (1, "{0} orders={orders}",
                lambda ks, a: associator.check_refined_duality(*ks, a.orders, a.prec)),
    "two-cycle": (0, "deg={deg}", lambda ks, a: associator.check_two_cycle(a.deg, a.prec)),
    "three-cycle": (0, "deg={deg}", lambda ks, a: associator.check_three_cycle(a.deg, a.prec)),
    "t-part": (0, ("harmonic deg={deg}", "shuffle deg={deg}"),
               lambda ks, a: [associator.check_t_part(product, associator.SAMPLE_T, a.deg, a.prec)
                              for product in (HARMONIC, SHUFFLE)]),
    "gamma-factor": (0, "deg={deg}",
                     lambda ks, a: associator.check_gamma_factor(associator.SAMPLE_T, a.deg,
                                                                 a.prec)),
    "independence": (0, "deg={deg}",
                     lambda ks, a: associator.check_independence_factor(associator.SAMPLE_T,
                                                                       a.deg, a.prec)),
    "duality-assoc": (0, "deg={deg}", lambda ks, a: associator.check_duality_assoc(a.deg, a.prec)),
    "smzv-assoc": (1, "{0} orders={orders}",
                   lambda ks, a: associator.check_smzv_routes(*ks, a.orders, a.prec)),
    "rsmzv-routes": (1, "{0} orders={orders}",
                     lambda ks, a: associator.check_rsmzv_routes(*ks, a.orders, a.prec)),
}


def _integer(text: str, low: int | None = None) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError("expects an integer")
    if low is not None and int(text) < low:
        raise ValueError(f"must be at least {low}")
    return int(text)


def _orders(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expects M,N")
    return tuple(_integer(part.strip(), 0) for part in parts)


def _tau(text: str) -> Fraction:
    try:
        tau = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("expects a rational p/q") from exc
    if abs(tau) > 1:
        # rounding grows as |tau|^depth, and the tolerance is absolute
        raise ValueError("must lie in [-1, 1]")
    return tau


# option -> (parser, default).  A parser raises ValueError with the reason it
# refuses a value.  A default of None is taken from the Config.
OPTIONS = {
    "--orders": (_orders, None),
    "--prec": (partial(_integer, low=MIN_PREC), None),
    "--tau": (_tau, Fraction(1, 2)),
    "--pmax": (_integer, 100),
    "--pow": (partial(_integer, low=1), 1),
    "--shift": (partial(_integer, low=1), 1),
    "--deg": (partial(_integer, low=1), 4),
    "--config": (str, None),
}


@dataclass
class Config:
    prec: int = DEFAULT_PREC
    orders: tuple[int, int] = (2, 2)
    cache_path: str = "mzv_cache.txt"


_CONFIG_KEYS = {"prec": OPTIONS["--prec"][0], "orders": OPTIONS["--orders"][0],
                "cache_path": str}


def load_config(path: str | None) -> Config:
    cfg = Config()
    path = os.environ.get("MZVKIT_CONFIG") if path is None else path
    if path is None or not os.path.exists(path):
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"config line {lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "workers":    # scans run serially; a config may still ask for one worker
                if value != "1":
                    raise UsageError(f"config line {lineno}: workers={value}: scans run "
                                     "serially, so workers must be 1 or left out")
                continue
            if key not in _CONFIG_KEYS:
                raise UsageError(f"config line {lineno}: unknown key {key!r}")
            try:
                setattr(cfg, key, _CONFIG_KEYS[key](value))
            except ValueError as exc:
                raise UsageError(
                    f"config line {lineno}: bad value {value!r} for {key}: {exc}") from exc
    return cfg


@dataclass
class CommandAst:
    verb: str
    target: str
    indices: tuple[Index, ...] = ()
    options: dict = field(default_factory=dict)


def parse_command(argv: list[str]) -> CommandAst:
    if not argv:
        raise UsageError("empty command; expected: verb target index* option*")
    verb = argv[0]
    if verb not in COMMANDS:
        raise UsageError(
            f"position 1: unknown verb {verb!r}; expected one of {', '.join(COMMANDS)}")
    if len(argv) < 2:
        raise UsageError(f"position 2: missing target for verb {verb!r}")
    target = argv[1]
    if target not in COMMANDS[verb]:
        raise UsageError(
            f"position 2: unknown target {target!r} for {verb!r}; "
            f"expected one of {', '.join(COMMANDS[verb])}")
    indices, options = [], {}
    tokens = enumerate(argv[2:], start=3)
    for pos, tok in tokens:
        if tok.startswith("("):
            try:
                indices.append(parse_index(tok))
            except ValueError as exc:
                raise UsageError(f"position {pos}: bad index literal {tok!r}: {exc}") from exc
            continue
        if tok not in OPTIONS:
            raise UsageError(f"position {pos}: unexpected token {tok!r}")
        pos, val = next(tokens, (pos, None))
        if val is None:
            raise UsageError(f"position {pos}: option {tok} needs a value")
        try:
            options[tok[2:]] = OPTIONS[tok][0](val)
        except ValueError as exc:
            raise UsageError(f"position {pos}: {tok} {exc}, got {val!r}") from exc
    return CommandAst(verb, target, tuple(indices), options)


def _report_line(name: str, params: str, residual, tol) -> tuple[str, bool]:
    ok = residual < tol
    line = (f"{name} {params} residual={mp.nstr(residual, 6)} "
            f"tol={mp.nstr(tol, 6)} {'PASS' if ok else 'FAIL'}")
    return line, ok


def _check(target: str, ks: tuple[Index, ...], a) -> tuple[int, list[str]]:
    _, label, call = CHECKS[target]
    residuals = call(ks, a)
    if isinstance(label, str):
        label, residuals = (label,), (residuals,)
    tol, orders = tolerance(a.prec), f"{a.orders[0]},{a.orders[1]}"
    reports = [_report_line(f"check-{target}",
                            fmt.format(*ks, orders=orders, order=a.orders[1], deg=a.deg, tau=a.tau),
                            residual, tol)
               for fmt, residual in zip(label, residuals)]
    return (0 if all(ok for _, ok in reports) else 1), [line for line, _ in reports]


def _value(name: str, evaluate, ks: tuple[Index, ...], a) -> tuple[int, list[str]]:
    return 0, [f"{name} {ks[0]} prec={a.prec} value={mp.nstr(evaluate(*ks, a.prec), a.prec)}"]


def _stadic(k: Index, orders: tuple[int, int]) -> tuple[int, list[str]]:
    grid = stadic.stadic_smzv(k, HARMONIC, orders)
    return 0, [f"stadic {k} orders={orders[0]},{orders[1]} coefficients of s^m t^n:",
               *(f"  s^{m} t^{n}: {entry}" for m, n, entry in grid.entries())]


def _pairs(ks: tuple[Index, ...]) -> list[tuple[Index, Index]]:
    if len(ks) % 2:
        raise UsageError("scan stuffle expects an even number of indices (pairs)")
    default = (Index((1,)), Index((2,)), Index((1, 1)))
    return list(zip(ks[::2], ks[1::2])) or list(product(default, repeat=2))


def _scan(report: finite.ScanReport) -> tuple[int, list[str]]:
    return (0 if report.all_pass else 1), [report.to_csv().rstrip("\n")]


def _cache_clear(path: str) -> tuple[int, list[str]]:
    CACHE.clear()
    if path and os.path.exists(path):
        os.remove(path)
    return 0, ["cache cleared"]


# verb -> target -> (index count or None for any, call(indices, args)).  Args
# default to OPTIONS and the Config; calls look functions up as CHECKS does.
COMMANDS = {
    "eval": {
        "mzv": (1, lambda ks, a: _value("mzv", numeric.mzv, ks, a)),
        "mzv-star": (1, lambda ks, a: _value("mzv-star", numeric.mzv_star, ks, a)),
        "stadic": (1, lambda ks, a: _stadic(*ks, a.orders)),
    },
    "check": {target: (count, partial(_check, target)) for target, (count, _, _) in CHECKS.items()},
    "scan": {
        "stuffle": (None, lambda ks, a: _scan(finite.scan_stuffle(_pairs(ks), a.pmax, a.pow))),
        "shift": (1, lambda ks, a: _scan(finite.scan_shift_expansion(*ks, a.shift, a.pmax, a.pow))),
        "wolstenholme": (0, lambda ks, a: _scan(finite.scan_wolstenholme(a.pmax))),
    },
    "cache": {
        "show": (0, lambda ks, a: (0, [f"cache entries: {len(CACHE.records)}", *CACHE.lines()])),
        "save": (0, lambda ks, a: (0, [f"saved {CACHE.save(a.cache_path)} records "
                                       f"to {a.cache_path}"])),
        "load": (0, lambda ks, a: (0, [f"loaded {CACHE.load(a.cache_path)} records "
                                       f"from {a.cache_path}"])),
        "clear": (0, lambda ks, a: _cache_clear(a.cache_path)),
    },
}


def run(ast: CommandAst, cfg: Config) -> tuple[int, str]:
    """Dispatch a parsed command; returns (exit code, report text)."""
    count, call = COMMANDS[ast.verb][ast.target]
    if count is not None and len(ast.indices) != count:
        raise UsageError(f"{ast.verb} {ast.target} expects {count} index argument(s), "
                         f"got {len(ast.indices)}")
    defaults = {name[2:]: default for name, (_, default) in OPTIONS.items()}
    args = SimpleNamespace(**{**defaults, **vars(cfg), **ast.options})
    try:
        code, lines = call(ast.indices, args)
    except UsageError:
        raise
    except (ValueError, OSError, ZeroDivisionError) as exc:
        return 1, f"error[{ast.verb} {ast.target}]: {exc}"
    return code, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        ast = parse_command(sys.argv[1:] if argv is None else list(argv))
        cfg = load_config(ast.options.get("config"))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        # the persistent value store survives across invocations; a scan reads no
        # value, and `cache clear` must also remove a store that does not load
        if (ast.verb != "scan" and (ast.verb, ast.target) != ("cache", "clear")
                and cfg.cache_path and os.path.exists(cfg.cache_path)):
            CACHE.load(cfg.cache_path)
        known = len(CACHE.records)
        code, text = run(ast, cfg)
        if text:
            print(text)
        if (ast.verb != "cache" and cfg.cache_path and len(CACHE.records) != known
                and os.path.exists(cfg.cache_path)):
            CACHE.save(cfg.cache_path)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error[cache]: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
