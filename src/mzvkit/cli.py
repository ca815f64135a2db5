"""Command-line front end.

Grammar::

    command := verb target index* option*
    verb    := eval | check | scan | cache
    index   := "(" [int ("," int)*] ")"
    option  := --orders M,N | --prec P | --tau p/q | --pmax P | --pow N
             | --shift A | --deg D | --config PATH

Checks print one machine-parseable line each::

    <name> <params> residual=<decimal> tol=<decimal> PASS|FAIL

Exit codes: 0 when everything passes, 1 on any failure or module error,
2 on a usage error.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

from mpmath import mp

from . import associator, finite, numeric, regularization, stadic
from .indices import Index, parse_index
from .numeric import CACHE, tolerance
from .words import HARMONIC, SHUFFLE


class UsageError(ValueError):
    pass


VERBS = ("eval", "check", "scan", "cache")

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

TARGETS = {
    "eval": ("mzv", "mzv-star", "stadic"),
    "check": tuple(CHECKS),
    "scan": ("stuffle", "shift", "wolstenholme"),
    "cache": ("show", "save", "load", "clear"),
}

_INT_OPTIONS = {"--prec": "prec", "--pmax": "pmax", "--pow": "pow",
                "--shift": "shift", "--deg": "deg"}


@dataclass
class Config:
    prec: int = 40
    orders: tuple[int, int] = (2, 2)
    cache_path: str = "mzv_cache.txt"
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)


def load_config(path: str | None) -> Config:
    cfg = Config()
    if path is None:
        path = os.environ.get("MZVKIT_CONFIG")
    if path is None or not os.path.exists(path):
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"config line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            try:
                if key == "prec":
                    cfg.prec = int(value)
                elif key == "orders":
                    ms, _, mt = value.partition(",")
                    cfg.orders = (int(ms), int(mt))
                elif key == "cache_path":
                    cfg.cache_path = value
                elif key == "workers":
                    cfg.workers = int(value)
                else:
                    raise UsageError(f"config line {lineno}: unknown key {key!r}")
            except ValueError as exc:
                if isinstance(exc, UsageError):
                    raise
                raise UsageError(f"config line {lineno}: bad value {value!r} for {key}") from exc
    if cfg.prec < 15:
        raise UsageError("config: prec must be at least 15")
    if cfg.orders[0] < 0 or cfg.orders[1] < 0:
        raise UsageError("config: orders must be nonnegative")
    if cfg.workers < 1:
        raise UsageError("config: workers must be at least 1")
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
    if verb not in VERBS:
        raise UsageError(f"position 1: unknown verb {verb!r}; expected one of {', '.join(VERBS)}")
    if len(argv) < 2:
        raise UsageError(f"position 2: missing target for verb {verb!r}")
    target = argv[1]
    if target not in TARGETS[verb]:
        raise UsageError(
            f"position 2: unknown target {target!r} for {verb!r}; "
            f"expected one of {', '.join(TARGETS[verb])}")
    indices: list[Index] = []
    options: dict = {}
    i = 2
    while i < len(argv):
        tok = argv[i]
        pos = i + 1
        if tok.startswith("("):
            try:
                idx = parse_index(tok)
            except ValueError as exc:
                raise UsageError(f"position {pos}: bad index literal {tok!r}: {exc}") from exc
            indices.append(idx)
            i += 1
            continue
        if not tok.startswith("--"):
            raise UsageError(f"position {pos}: unexpected token {tok!r}")
        if i + 1 >= len(argv):
            raise UsageError(f"position {pos}: option {tok} needs a value")
        val = argv[i + 1]
        if tok == "--orders":
            parts = val.split(",")
            if len(parts) != 2 or not all(p.strip().lstrip("-").isdigit() for p in parts):
                raise UsageError(f"position {pos + 1}: --orders expects M,N, got {val!r}")
            ms, mt = int(parts[0]), int(parts[1])
            if ms < 0 or mt < 0:
                raise UsageError(f"position {pos + 1}: orders must be nonnegative")
            options["orders"] = (ms, mt)
        elif tok == "--tau":
            try:
                options["tau"] = Fraction(val)
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"position {pos + 1}: --tau expects a rational p/q, got {val!r}") from exc
        elif tok == "--config":
            options["config"] = val
        elif tok in _INT_OPTIONS:
            if not val.lstrip("-").isdigit():
                raise UsageError(f"position {pos + 1}: {tok} expects an integer, got {val!r}")
            options[_INT_OPTIONS[tok]] = int(val)
        else:
            raise UsageError(f"position {pos}: unknown option {tok!r}")
        i += 2
    if "prec" in options and options["prec"] < 15:
        raise UsageError("--prec must be at least 15")
    if "deg" in options and options["deg"] < 1:
        raise UsageError("--deg must be at least 1")
    return CommandAst(verb, target, tuple(indices), options)


def render(ast: CommandAst) -> list[str]:
    """Inverse of parse_command on valid syntax trees."""
    out = [ast.verb, ast.target]
    out.extend(str(idx) for idx in ast.indices)
    rev_int = {v: k for k, v in _INT_OPTIONS.items()}
    for key in sorted(ast.options):
        val = ast.options[key]
        if key == "orders":
            out.extend(["--orders", f"{val[0]},{val[1]}"])
        elif key == "tau":
            out.extend(["--tau", str(val)])
        elif key == "config":
            out.extend(["--config", val])
        else:
            out.extend([rev_int[key], str(val)])
    return out


def _report_line(name: str, params: str, residual, tol) -> tuple[str, bool]:
    ok = residual < tol
    line = (f"{name} {params} residual={mp.nstr(residual, 6)} "
            f"tol={mp.nstr(tol, 6)} {'PASS' if ok else 'FAIL'}")
    return line, ok


def _need_indices(ast: CommandAst, count: int) -> tuple[Index, ...]:
    if len(ast.indices) != count:
        raise UsageError(
            f"{ast.verb} {ast.target} expects {count} index argument(s), got {len(ast.indices)}")
    return ast.indices


def _run_check(ast: CommandAst, cfg: Config) -> tuple[int, list[str]]:
    orders = ast.options.get("orders", cfg.orders)
    args = SimpleNamespace(prec=ast.options.get("prec", cfg.prec), orders=orders,
                           deg=ast.options.get("deg", 4), tau=ast.options.get("tau", Fraction(1, 2)))
    count, label, call = CHECKS[ast.target]
    ks = _need_indices(ast, count)
    residuals = call(ks, args)
    if isinstance(label, str):
        label, residuals = (label,), (residuals,)
    tol = tolerance(args.prec)
    lines = []
    all_ok = True
    for fmt, residual in zip(label, residuals):
        params = fmt.format(*ks, orders=f"{orders[0]},{orders[1]}", order=orders[1],
                            deg=args.deg, tau=args.tau)
        line, ok = _report_line(f"check-{ast.target}", params, residual, tol)
        lines.append(line)
        all_ok = all_ok and ok
    return (0 if all_ok else 1), lines


_DEFAULT_STUFFLE = (Index((1,)), Index((2,)), Index((1, 1)))


def _run_scan(ast: CommandAst, cfg: Config) -> tuple[int, list[str]]:
    pmax = ast.options.get("pmax", 100)
    power = ast.options.get("pow", 1)
    workers = cfg.workers
    if ast.target == "stuffle":
        if ast.indices:
            if len(ast.indices) % 2:
                raise UsageError("scan stuffle expects an even number of indices (pairs)")
            pairs = [(ast.indices[i], ast.indices[i + 1]) for i in range(0, len(ast.indices), 2)]
        else:
            pairs = [(k, l) for k in _DEFAULT_STUFFLE for l in _DEFAULT_STUFFLE]
        report = finite.scan_stuffle(pairs, pmax, power, workers)
    elif ast.target == "shift":
        (k,) = _need_indices(ast, 1)
        a = ast.options.get("shift", 1)
        report = finite.scan_shift_expansion(k, a, pmax, power, workers)
    else:
        report = finite.scan_wolstenholme(pmax, workers)
    return (0 if report.all_pass else 1), [report.to_csv().rstrip("\n")]


def _run_eval(ast: CommandAst, cfg: Config) -> tuple[int, list[str]]:
    prec = ast.options.get("prec", cfg.prec)
    orders = ast.options.get("orders", cfg.orders)
    if ast.target == "mzv":
        (k,) = _need_indices(ast, 1)
        return 0, [f"mzv {k} prec={prec} value={mp.nstr(numeric.mzv(k, prec), prec)}"]
    if ast.target == "mzv-star":
        (k,) = _need_indices(ast, 1)
        return 0, [f"mzv-star {k} prec={prec} value={mp.nstr(numeric.mzv_star(k, prec), prec)}"]
    (k,) = _need_indices(ast, 1)
    grid = stadic.stadic_smzv(k, HARMONIC, orders)
    lines = [f"stadic {k} orders={orders[0]},{orders[1]} coefficients of s^m t^n:"]
    for m, n, entry in grid.entries():
        lines.append(f"  s^{m} t^{n}: {entry}")
    return 0, lines


def _run_cache(ast: CommandAst, cfg: Config) -> tuple[int, list[str]]:
    path = cfg.cache_path
    if ast.target == "show":
        lines = [f"cache entries: {len(CACHE.records)}"]
        items = sorted(CACHE.records.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1]))
        for (k, prec), value in items:
            lines.append(f"k={','.join(map(str, k))};prec={prec};value={value}")
        return 0, lines
    if ast.target == "save":
        count = CACHE.save(path)
        return 0, [f"saved {count} records to {path}"]
    if ast.target == "load":
        count = CACHE.load(path)
        return 0, [f"loaded {count} records from {path}"]
    CACHE.clear()
    if path and os.path.exists(path):
        os.remove(path)
    return 0, ["cache cleared"]


def run(ast: CommandAst, cfg: Config) -> tuple[int, str]:
    """Dispatch a parsed command; returns (exit code, report text)."""
    try:
        if ast.verb == "check":
            code, lines = _run_check(ast, cfg)
        elif ast.verb == "scan":
            code, lines = _run_scan(ast, cfg)
        elif ast.verb == "eval":
            code, lines = _run_eval(ast, cfg)
        else:
            code, lines = _run_cache(ast, cfg)
    except UsageError:
        raise
    except (ValueError, OSError, ZeroDivisionError) as exc:
        return 1, f"error[{ast.verb} {ast.target}]: {exc}"
    return code, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ast = parse_command(argv)
        cfg = load_config(ast.options.get("config"))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # the persistent value store survives across invocations
    if cfg.cache_path and os.path.exists(cfg.cache_path):
        try:
            CACHE.load(cfg.cache_path)
        except ValueError as exc:
            print(f"error[cache]: {exc}", file=sys.stderr)
            return 1
    known = len(CACHE.records)
    try:
        code, text = run(ast, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if (ast.verb != "cache" and cfg.cache_path and len(CACHE.records) != known
            and os.path.exists(cfg.cache_path)):
        CACHE.save(cfg.cache_path)
    if text:
        print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
