"""CLI transcript gate: every eval, check and scan target at least once, at small sizes.

Each command runs in-process through ``cli.main``; its printed lines and exit
code are compared with ``tests/data/cli_transcript.txt`` line by line.  Only
the residual may differ, and only within its order of magnitude: the
mantissa is free, the decimal exponent may move by at most one, and a zero
residual may rise to at most 1e-45.  Everything else must match exactly.

Re-record the golden file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
import sys
import tempfile
from decimal import Decimal
from math import prod
from pathlib import Path

import pytest

from mzvkit import associator, cli, finite, indices, numeric, regularization, rings, stadic, words
from mzvkit.rings import BiSeries, ZetaPoly
from mzvkit.words import HARMONIC, SHUFFLE
from support import (
    CACHES, MODULES, clear_caches, indices_up_to, planted, stuffle_without_merged_terms,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_transcript.txt"

COMMANDS = [
    "eval mzv (1,2)",
    "eval mzv-star (1,2)",
    "eval stadic (1,2) --orders 1,1",
    "check harmonic (1) (2) --orders 2,2",
    "check shifted-harmonic (1) (2) --orders 1,2",
    "check shuffle (1) (2) --orders 2,2",
    "check antipode (1,2) --orders 1,2",
    "check reg (2,1,1)",
    "check reg (2,1,1,1)",
    "check reg (2,1,1,1,1)",
    "check explicit-reg (2,1,1) --orders 1,2",
    "check t-translation (1,2) --orders 2,2",
    "check csf (2,1)",
    "check csf-shifted (2,1) --orders 1,2",
    "check csf-star (2,1) --orders 2,2",
    "check csf-nonstar (2,1) --orders 2,2",
    "check csf-tau (2,1) --tau 1/2 --orders 2,2",
    "check csf-tau (2,1) --tau 0 --orders 2,2",
    "check csf-tau (2,1) --tau 1 --orders 2,2",
    "check duality (2) --orders 1,1",
    "check two-cycle --deg 5",
    "check three-cycle --deg 4",
    "check t-part --deg 4",
    "check gamma-factor --deg 5",
    "check independence --deg 5",
    "check duality-assoc --deg 4",
    "check smzv-assoc (2) --orders 1,1",
    "check rsmzv-routes (2) --orders 1,1",
    "scan stuffle --pmax 60",
    "scan stuffle (1) (2) --pmax 40 --pow 2",
    "scan stuffle (1,2) (2,1) --pmax 60 --pow 3",
    "scan shift (2) --shift 1 --pmax 60 --pow 2",
    "scan wolstenholme --pmax 60",
    "scan shift (2,1) --shift 1 --pmax 60 --pow 2",
    "scan shift (1,2) --shift 2 --pmax 60 --pow 3",
]

_RESIDUAL = re.compile(r"residual=(\S+)")


def transcript() -> list[str]:
    """Run every command with no value store and one worker; return the lines."""
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.txt")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("cache_path=\n")
        for command in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(command.split() + ["--config", config])
            lines.append(f"$ {command}")
            lines.extend(out.getvalue().splitlines())
            lines.append(f"exit={code}")
    return lines


def residual_close(old: str, new: str) -> bool:
    """Same order of magnitude: exponents within one, a zero stays below 1e-45."""
    a, b = Decimal(old), Decimal(new)
    if a == 0:
        return b <= Decimal("1e-45")
    return b != 0 and abs(a.adjusted() - b.adjusted()) <= 1


def test_residual_close_rule():
    assert residual_close("7.68741e-39", "1.2e-38")
    assert residual_close("7.68741e-39", "9.9e-40")
    assert not residual_close("7.68741e-39", "9.9e-41")
    assert not residual_close("7.68741e-39", "0.0")
    assert residual_close("0.0", "0.0") and residual_close("0.0", "1.0e-45")
    assert not residual_close("0.0", "1.0e-44")


def test_cli_transcript_matches_golden():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = transcript()
    assert len(got) == len(golden), "transcript length changed"
    for n, (old, new) in enumerate(zip(golden, got), start=1):
        m_old, m_new = _RESIDUAL.search(old), _RESIDUAL.search(new)
        if m_old and m_new:
            assert _RESIDUAL.sub("", old) == _RESIDUAL.sub("", new), f"line {n}: {new}"
            assert residual_close(m_old.group(1), m_new.group(1)), f"line {n}: {old} -> {new}"
        else:
            assert old == new, f"line {n}"


def test_every_check_returns_the_value_of_numeric_residual(monkeypatch):
    # every reported residual must come from the one measure, numeric.residual
    produced = []

    def recorder(*args, **kwargs):
        produced.append(numeric.residual(*args, **kwargs))
        return produced[-1]

    for module in (stadic, associator, regularization):
        monkeypatch.setattr(module, "residual", recorder)
    reported = []
    report_line = cli._report_line

    def record_report(name, params, residual, tol):
        reported.append((name, residual))
        return report_line(name, params, residual, tol)

    monkeypatch.setattr(cli, "_report_line", record_report)
    checks = [c for c in COMMANDS if c.startswith("check ")]
    assert {c.split()[1] for c in checks} == set(cli.CHECKS)
    assert transcript().count("exit=0") == len(COMMANDS)
    assert len(reported) == len(checks) + 1     # t-part reports two lines
    for name, value in reported:
        assert any(value is r for r in produced), name


def _container_sizes() -> dict[str, int]:
    """The size of every dict, list and set that a module of mzvkit holds, or
    that a class, function or object defined there holds."""
    holders = [(mod.__name__, mod) for mod in MODULES]
    holders += [(f"{mod.__name__}.{attr}", obj) for mod in MODULES for attr, obj in vars(mod).items()
                if mod.__name__ in (getattr(obj, "__module__", None), type(obj).__module__)]
    return {f"{name}.{attr}": len(value) for name, obj in holders
            for attr, value in getattr(obj, "__dict__", {}).items()
            if isinstance(value, (dict, list, set)) and not attr.startswith("__")}


def test_every_memo_is_a_functools_cache_or_a_named_one():
    # the transcript from cold caches and an empty store: a memo other than a
    # functools cache and the three below would stay warm across clear_caches
    # and the benchmark's reset, which empty only those
    store = dict(numeric.CACHE.records)
    numeric.CACHE.clear()
    clear_caches()
    before = _container_sizes()
    try:
        transcript()
        grown = {name for name, size in _container_sizes().items() if size > before.get(name, 0)}
    finally:
        numeric.CACHE.records.clear()
        numeric.CACHE.records.update(store)
    assert {"mzvkit.associator._PHI_CACHE"} <= grown <= {
        "mzvkit.associator._PHI_CACHE", "mzvkit.associator._PHI_RS_CACHE",
        "mzvkit.numeric.CACHE.records"}, grown
    clear_caches()
    assert [c.__name__ for c in CACHES if c.cache_info().currsize] == []
    assert not associator._PHI_CACHE and not associator._PHI_RS_CACHE


def _check_verdicts() -> dict[str, dict[str, str]]:
    """Each check command of the transcript, without its leading "check", ->
    {line: its PASS/FAIL word}.  The line of a one-line command is named by
    the command; t-part prints one line per product, named "t-part harmonic"
    and "t-part shuffle"."""
    printed: dict[str, list[list[str]]] = {}
    command = None
    for line in transcript():
        if line.startswith("$ "):
            command = line[len("$ check "):] if line.startswith("$ check ") else None
        elif command and not line.startswith("exit="):
            printed.setdefault(command, []).append(line.split())
    return {command: {command: lines[0][-1]} if len(lines) == 1
            else {f"{command.split()[0]} {words[1]}": words[-1] for words in lines}
            for command, lines in printed.items()}


_subst = associator.NcSeries.subst
_flanked_pairing = associator._flanked_pairing
_nc_mul = associator.NcSeries.__mul__


def _subst_unit_coefficients(self, images):
    return _subst(self, {a: tuple((b, 1) for b, _ in img) for a, img in images.items()})


def _mul_dropping_the_top_degree(self, other):
    out = _nc_mul(self, other)
    out.codes = {w: c for w, c in out.codes.items() if w < 1 << self.deg}   # len(w) < deg
    return out


def _flanked_pairing_unsigned(series, k, orders):
    grid = _flanked_pairing(series, k, orders)
    return BiSeries(grid.ms, grid.mt, [[(-1) ** (i + j) * grid.coeff(i, j)
                                        for j in range(grid.mt + 1)] for i in range(grid.ms + 1)])


_SplitProduct = associator._SplitProduct
_split_coeff = _SplitProduct.coeff


def _split_without_an_empty_first_piece(self, w):
    (letter, first), *rest = self.factors
    first_factor = (letter, lambda piece: first(piece) if piece else (0, 0))
    return _split_coeff(_SplitProduct([first_factor, *rest], self.bits), w)


def _split_skipping_the_last_factor(self, w):
    return _split_coeff(_SplitProduct(self.factors[:-1], self.bits), w)


_shift = BiSeries.shift
_mul = BiSeries.__mul__


def _mul_without_mixed_terms(self, other):
    out = _mul(self, other)
    if isinstance(other, BiSeries):
        out.terms = {(i, j): c for (i, j), c in out.terms.items() if not (i and j)}
    return out


def _positive_part(series):
    return BiSeries._sparse(series.ms, series.mt, {(i, j): c for (i, j), c in series.terms.items()
                                                   if i or j})


def _mul_without_mixed_terms_in_one_variable(self, other):
    """The product, without the terms to which two series in one variable
    both give a positive power."""
    out = _mul(self, other)
    if isinstance(other, BiSeries) and not (self.ms or other.ms):
        out -= _mul(_positive_part(self), _positive_part(other))
    return out


_zeta_reg = regularization.zeta_reg


def _zeta_reg_plus_T(k, product):
    return _zeta_reg(k, product).subst_tvars({"T": -1 * ZetaPoly.tvar("T")})


_shuffle_words = words._shuffle_words


def _shuffle_words_counted_once(w1, w2):
    """The interleavings of two words, each counted once: every coefficient 1."""
    return tuple((w, 1) for w, _ in _shuffle_words(w1, w2))


_t_renamed = stadic._t_renamed


def _t_renamed_negating_T2(series, name):
    out = _t_renamed(series, name)
    if name != "T2":
        return out
    return out.map(lambda p: p.subst_tvars({"T2": -1 * ZetaPoly.tvar("T2")}))


def _t_renamed_keeping_T_at_zero(series, name):
    return _t_renamed(series, name) if name else series


_shifts = indices.shifts


def _shifts_with_power_weights(k, n):
    """The shifts of k, each weighted by prod k_i^m_i in place of b(k; m)."""
    return [(l, prod(a ** (b - a) for a, b in zip(k, l))) for l, _ in _shifts(k, n)]


def _shifts_with_unit_weights(k, n):
    """The shifts of k, each weighted by 1 in place of b(k; m)."""
    return [(l, 1) for l, _ in _shifts(k, n)]


_shuffle_one = indices.shuffle_one


def _shuffle_one_without_the_prepended_part(head):
    """(1) sh head without the e1 put in before the first letter of a
    non-empty head; the empty head keeps its one term (1)."""
    out = _shuffle_one(head)
    if head:
        out[(1,) + tuple(head)] -= 1
    return out


_splits_tau = stadic._splits_tau


def _star_values_at_tau_0(k, tau, orders):
    """The tau-interpolated split sum with every coarsening weighted by 1 at tau = 0."""
    return _splits_tau(k, tau or 1, orders)


_factor = stadic._factor


def _factor_keeping_T_at_zero(keys, t_side):
    """A side read at T = 0 keeps its T-symbols, named as its side names them."""
    name = "T2" if t_side else "T1"
    return _factor(tuple(key[:4] + (key[4] or name,) for key in keys), t_side)


# planted fault -> the transcript checks that must FAIL under it; every other
# check of the transcript must still PASS.  An entry names a check target
# (every command of it FAILs), one command, such as "reg (2,1,1,1)", or one
# line of t-part, such as "t-part shuffle".  A fault that changes a body is
# support.planted, an edit of one site of the live source, bound where the
# fault belongs; every other fault wraps the unmodified function.  The
# associator builds no symbolic regularization: its values Z_T(index) come
# from its own numeric product recursion, so a fault in zeta_reg reaches the
# stadic and regularization checks, and the associator only through the
# routes that set it against them (rsmzv-routes, smzv-assoc).  zeta_reg
# solves the same recursion over the zeta symbols, and a planted zeta_reg
# recurses through itself; stadic binds the unfaulted function under its own
# name, which recurses through the name in regularization, so a fault bound
# in regularization reaches the stadic checks only through the inner values
# of that function.  No check reads the word route
# (_decompose_word and the word products), so its faults are planted in
# tests/test_regularization.py, where the word route is the oracle of
# zeta_reg.  A sign error in T, applied again at each level of the
# recursion, is wrong from degree 2 on: it reaches every reg command and,
# through inner values, explicit-reg.  A recursion without its T Z_T(head)
# term computes Z_0, which is still multiplicative, so only reg, which sets
# the two products against each other through rho, and explicit-reg see it.
# One without its division by c_k scales Z_T(k) by c_k, the number of
# trailing 1s of k: at the top of reg (2,1,1) both sides scale by 2, so only
# the deeper reg commands, whose inner values scale too, see it.  Leaves
# (-1)^depth Z[k] planted in stadic change its admissible values, the only
# ones csf (2,1) and csf-shifted (2,1) can see: their non-admissible terms
# cancel between their two sides.  shuffle still holds under them, because
# every term of a shuffle of two indices has the same depth, and so does
# t-translation.
# In the associator, a recursion without its T Z_T(head) term computes Z_0
# at every T, which only t-part sees, since it alone sets phi at T against an
# explicit function of T.  One without its division changes every value with
# two or more trailing 1s, which the two pairings at (2) never read: no piece
# of their words has two adjacent e1.  The cycle identities hold degree by degree, so
# a product that drops its top degree passes them, and so does independence,
# whose two sides are products alike; the exponentials are closed forms or
# one-variable recurrences that multiply no series, so only gamma-factor and
# t-part, which set a product against phi itself, see it.  A ZetaPoly
# product that keeps one factor's powers and drops the other's, whenever both
# have some, fails the checks listed for it, as measured; most associator
# checks multiply NcSeries over numbers and never build such a product.  The
# pairings (duality, rsmzv-routes, smzv-assoc) read a product by splits of
# each word and build no series, so eps, subst and the NcSeries product reach
# them only through a fault in the split sum.  The substitution of NcSeries
# is the pass of words._subst_codes, which associator binds, so its edit is
# bound there.  The classical cyclic sum
# formula is the shifted one at order 0, so csf, csf-shifted and antipode
# read the star values, the coarsening sums of stadic.shifted_mzv_star; a sum
# without the index itself fails those three.  t-translation alone tells a
# value of T2 - T1 from one of T1 + T2.  The shuffle kernel of words, the
# recursion on last letters, is read only by the shifted shuffle of the
# shuffle check, so a kernel that counts each interleaving once fails it
# alone.  A zeroing that keeps the T terms reaches only the two checks at
# T = 0, explicit-reg and shuffle, as measured.
# The shift weight prod k_i^m_i equals b(k; m) = prod C(k_i + m_i - 1, m_i)
# wherever every m_i <= 1, so only a shift of total >= 2 sees it: planted in
# stadic, whose shifted values read every total, it fails the checks listed
# for it, as measured.  The phi coefficients read shifts of total 1 only, by
# the one-letter recursion n Z_T(e0^n e_k) = -sum_i k_i Z_T(e0^(n-1)
# e_(k + delta_i)), so the associator's ``shifts`` is planted with every
# weight k_i set to 1.  It fails the checks listed for it, as measured;
# t-part, gamma-factor and independence set one phi against another built by
# the same faulted recursion, and pass.  regularization reads the same
# recursion only in Z_reg_full, which no check reads, so its fault is planted
# in tests/test_stadic.py.  stadic, associator, regularization
# and finite each bind ``stuffle`` too, so a stuffle without its merged terms
# is planted in each (finite in its own scan test below): in stadic it
# reaches the two stuffle checks; in associator only the harmonic phi, which
# gamma-factor and independence read; in regularization the harmonic
# recursion of zeta_reg, and so every check listed for it, as measured.  The
# one in words reaches only the word route.  A (1) sh head without its
# prepended part 1 changes every shuffle value Z_T(k) with a trailing 1:
# planted in associator, the checks listed for it read one, the shuffle line
# of t-part among them; planted in regularization, the shuffle values of reg,
# explicit-reg and shuffle.  Only csf-nonstar and csf-tau at tau = 0 read the
# symmetric values at tau = 0, so star values there fail only those two.
# regularization and associator each bind ``exp_coeffs``, the recurrence
# n e_n = sum k c_k e_(n-k), so a recurrence without the factor k is planted
# in each: in regularization it changes Gamma0 from X^2 on, and so rho and R,
# which every check listed for it reads; in associator only the zeta(2k)/k
# factor of independence.  A closed form exp(c x) without its 1/n! fails the
# checks that multiply by exp(c X_a): three-cycle, t-part, and duality-assoc
# through phi_rs.
# harmonic, shuffle and the tau cyclic sums build split sums (stadic._splits)
# and expand only the difference of their sides, linearly, so a fault in the
# expansion shows only if it is not linear, as a group that keeps only its
# last t-side.  A grid product without its mixed terms reaches only
# rsmzv-routes, through the associator's grids; the fault of that kind in the
# split code is a product of two series in one variable without the terms to
# which both give a positive power, which harmonic sees through its two-factor
# sides, and antipode and shifted-harmonic through their shifted values.
# shuffle multiplies by its rational (s, t) weights as shifts of keys, so a
# shift of keys that ignores t is what it sees there.  At T = 0 a factor is
# zeroed in stadic._factor: a zeroing there that keeps T1 and T2 fails
# shuffle, while one in _t_renamed keeps a single T, under which the shuffle
# relation still holds, so only explicit-reg sees it.  The tau cyclic sums
# read stadic._splits_tau, where star values at tau = 0 are planted.  A split
# sign by depth in place of weight and a product that pairs the first
# factor's t-side twice fail the checks listed for them, as measured.
MUTATIONS = {
    "eps-without-sign": ((associator.NcSeries, "eps", associator.NcSeries.reverse),
                         {"independence"}),
    "subst-unit-coefficients": ((associator.NcSeries, "subst", _subst_unit_coefficients),
                                {"three-cycle", "duality-assoc"}),
    "subst-identity": ((associator.NcSeries, "subst", lambda self, images: self),
                       {"two-cycle", "three-cycle", "duality-assoc"}),
    "subst-keeps-last-letter": ((associator, "_subst_codes",
                                 planted(words._subst_codes, "for q in range(",
                                         "for q in range(1, ")),
                                {"duality-assoc", "three-cycle", "two-cycle"}),
    "mul-drops-top-degree": ((associator.NcSeries, "__mul__", _mul_dropping_the_top_degree),
                             {"gamma-factor", "t-part"}),
    "split-drops-empty-first-piece": ((_SplitProduct, "coeff",
                                       _split_without_an_empty_first_piece),
                                      {"duality", "rsmzv-routes", "smzv-assoc"}),
    "split-skips-last-factor": ((_SplitProduct, "coeff", _split_skipping_the_last_factor),
                                {"duality", "rsmzv-routes", "smzv-assoc"}),
    "flank-without-sign": ((associator, "_flanked_pairing", _flanked_pairing_unsigned),
                           {"smzv-assoc", "rsmzv-routes", "duality"}),
    "negate-t-identity": ((BiSeries, "negate_t", lambda self: self),
                          {"csf-nonstar", "csf-star", "csf-tau", "rsmzv-routes", "shuffle",
                           "smzv-assoc"}),
    "shift-ignores-dt": ((BiSeries, "shift", lambda self, ds, dt: _shift(self, ds, 0)),
                         {"csf-nonstar", "csf-shifted", "csf-star", "csf-tau", "duality",
                          "shuffle"}),
    "mul-drops-mixed-terms": ((BiSeries, "__mul__", _mul_without_mixed_terms),
                              {"rsmzv-routes"}),
    "zeta-reg-plus-T": ((regularization, "zeta_reg", _zeta_reg_plus_T), {"explicit-reg", "reg"}),
    "zeta-reg-without-T-term": ((regularization, "zeta_reg",
                                 planted(regularization.zeta_reg,
                                         "out = zeta_reg(head, product) * _T", "out = ZetaPoly()")),
                                {"explicit-reg", "reg"}),
    "zeta-reg-without-division": ((regularization, "zeta_reg",
                                   planted(regularization.zeta_reg, "if ck == 1:", "if True:")),
                                  {"reg (2,1,1,1)", "reg (2,1,1,1,1)"}),
    "stadic-zeta-reg-with-signed-leaves": ((stadic, "zeta_reg",
                                            planted(regularization.zeta_reg,
                                                    "return ZetaPoly.zeta(k)\n",
                                                    "return ZetaPoly.zeta(k) * (-1) ** k.depth\n")),
                                           {"antipode", "csf", "csf-nonstar", "csf-shifted",
                                            "csf-star", "csf-tau", "explicit-reg", "harmonic",
                                            "rsmzv-routes", "shifted-harmonic", "smzv-assoc"}),
    "reg-value-without-T-term": ((associator, "_zeta_reg_value",
                                  planted(associator._zeta_reg_value,
                                          "T.numerator * _zeta_reg_value(head, product, T, prec)",
                                          "0")),
                                 {"t-part"}),
    "reg-value-without-division": ((associator, "_zeta_reg_value",
                                    planted(associator._zeta_reg_value,
                                            "T.denominator * terms[k])", "T.denominator)")),
                                   {"duality", "duality-assoc", "gamma-factor", "independence",
                                    "t-part", "three-cycle", "two-cycle"}),
    "merge-keeps-one-side": ((rings, "_merge_powers", lambda a, b: a or b),
                             {"antipode", "csf-nonstar", "csf-star", "csf-tau", "explicit-reg",
                              "gamma-factor", "harmonic", "reg", "shifted-harmonic", "shuffle"}),
    "star-without-the-index-itself": ((stadic, "shifted_mzv_star",
                                       planted(stadic.shifted_mzv_star, "coarsenings(Index(k))",
                                               "coarsenings(Index(k))[1:]")),
                                      {"antipode", "csf", "csf-shifted"}),
    "T2-with-wrong-sign": ((stadic, "_t_renamed", _t_renamed_negating_T2),
                           {"t-translation"}),
    "zeroing-keeps-T": ((stadic, "_t_renamed", _t_renamed_keeping_T_at_zero),
                        {"explicit-reg"}),
    "factor-zeroing-keeps-T": ((stadic, "_factor", _factor_keeping_T_at_zero), {"shuffle"}),
    "one-variable-mul-drops-mixed-terms": ((BiSeries, "__mul__",
                                            _mul_without_mixed_terms_in_one_variable),
                                           {"antipode", "harmonic", "shifted-harmonic"}),
    "weight-shift-ignores-dt": ((stadic, "_shifted",
                                 planted(stadic._shifted, "up(t, dt)", "t")),
                                {"csf-nonstar", "csf-star", "csf-tau", "shuffle"}),
    "split-sign-by-depth": ((stadic, "_splits", planted(stadic._splits, "(-1) ** tail.weight",
                                                        "(-1) ** tail.depth")),
                            {"csf-nonstar", "csf-star", "csf-tau", "harmonic", "rsmzv-routes",
                             "shuffle", "smzv-assoc"}),
    "product-pairs-the-first-t-side-twice": ((stadic, "check_harmonic",
                                              planted(stadic.check_harmonic, "times(t1, t2)",
                                                      "times(t1, t1)")),
                                             {"harmonic"}),
    "group-keeps-its-last-t-side": ((stadic, "_expand",
                                     planted(stadic._expand, "].add_scaled(_factor(t, True), ",
                                             "] = _factor(t, True).scale(")),
                                    {"csf-nonstar", "csf-star", "csf-tau", "harmonic", "shuffle"}),
    "stadic-shift-power-weights": ((stadic, "shifts", _shifts_with_power_weights),
                                   {"antipode", "csf-nonstar", "csf-shifted", "csf-star",
                                    "csf-tau", "harmonic", "shifted-harmonic", "shuffle"}),
    "associator-shift-unit-weights": ((associator, "shifts", _shifts_with_unit_weights),
                                      {"duality", "duality-assoc", "rsmzv-routes", "smzv-assoc",
                                       "three-cycle", "two-cycle"}),
    "stadic-stuffle-without-merged-terms": ((stadic, "stuffle", stuffle_without_merged_terms),
                                            {"harmonic", "shifted-harmonic"}),
    "regularization-stuffle-without-merged-terms": ((regularization, "stuffle",
                                                     stuffle_without_merged_terms),
                                                    {"antipode", "csf-nonstar", "csf-star",
                                                     "csf-tau", "explicit-reg", "harmonic", "reg",
                                                     "shifted-harmonic"}),
    "associator-stuffle-without-merged-terms": ((associator, "stuffle",
                                                 stuffle_without_merged_terms),
                                                {"gamma-factor", "independence"}),
    "shuffle-one-without-the-prepended-part": ((associator, "shuffle_one",
                                                _shuffle_one_without_the_prepended_part),
                                               {"duality", "duality-assoc", "gamma-factor",
                                                "independence", "rsmzv-routes", "t-part shuffle",
                                                "three-cycle", "two-cycle"}),
    "regularization-shuffle-one-without-the-prepended-part": (
        (regularization, "shuffle_one", _shuffle_one_without_the_prepended_part),
        {"explicit-reg", "reg", "shuffle"}),
    "tau-0-reads-star-values": ((stadic, "_splits_tau", _star_values_at_tau_0),
                                {"csf-nonstar", "csf-tau (2,1) --tau 0 --orders 2,2"}),
    "regularization-exp-without-factor-k": ((regularization, "exp_coeffs",
                                             planted(rings.exp_coeffs, "k * c[k] * e[n - k]",
                                                     "c[k] * e[n - k]")),
                                            {"explicit-reg", "gamma-factor", "reg"}),
    "associator-exp-without-factor-k": ((associator, "exp_coeffs",
                                         planted(rings.exp_coeffs, "k * c[k] * e[n - k]",
                                                 "c[k] * e[n - k]")),
                                        {"independence"}),
    "exp-linear-without-factorial": ((associator, "exp_linear",
                                      planted(associator.exp_linear, "c ** n / factorial(n)",
                                              "c ** n")),
                                     {"duality-assoc", "t-part", "three-cycle"}),
    "shuffle-kernel-counts-each-interleaving-once": ((words, "_shuffle_words",
                                                      _shuffle_words_counted_once),
                                                     {"shuffle"}),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_planted_faults_fail_exactly_the_checks_that_see_them(monkeypatch, mutation):
    (owner, name, fault), failing = MUTATIONS[mutation]
    clear_caches()
    monkeypatch.setattr(owner, name, fault)
    try:
        verdicts = _check_verdicts()
    finally:
        monkeypatch.undo()
        clear_caches()
    targets = {command.split()[0] for command in verdicts}
    assert targets == set(cli.CHECKS)
    names = targets | set(verdicts) | {line for lines in verdicts.values() for line in lines}
    assert failing <= names, failing - names
    for command, lines in verdicts.items():
        for line, seen in lines.items():
            fails = {line, command, command.split()[0]} & failing
            assert seen == ("FAIL" if fails else "PASS"), (mutation, line, seen)


def _scan_verdicts() -> dict[str, str]:
    """Each scan command of the transcript -> PASS or FAIL, from its exit code."""
    verdicts: dict[str, str] = {}
    command = None
    for line in transcript():
        if line.startswith("$ "):
            command = line[2:] if line.startswith("$ scan ") else None
        elif command and line.startswith("exit="):
            verdicts[command] = "PASS" if line == "exit=0" else "FAIL"
    return verdicts


_SCANS = [c for c in COMMANDS if c.startswith("scan ")]
_STUFFLE, _SHIFT, _WOLSTENHOLME = ({c for c in _SCANS if c.split()[1] == t}
                                   for t in ("stuffle", "shift", "wolstenholme"))
_SHIFT_DEPTH_2 = {c for c in _SHIFT if "," in c.split()[2]}
# planted DP fault, an edit of finite.finite_mzv: each prefix sum includes
# its current term, inv^(e-1) is read for inv^e at every e >= 2, or a
# shifted window a >= 1 is inverted as the window a - 1 before it.  The DP
# is the oracle of the pass only: every value a scan checks comes from the
# pass, so no scan sees these faults, and the oracle test below is what
# catches them.
DP_MUTATIONS = {
    "prefix-includes-current-term": planted(finite.finite_mzv, "accumulate(col, initial=0)",
                                            "accumulate(col)"),
    "power-one-step-short": planted(finite.finite_mzv, "powers = [None, _window_inverses(p, n, a)]",
                                    "powers = [None, *[_window_inverses(p, n, a)] * 2]"),
    "shifted-window-one-back": planted(finite.finite_mzv, "_window_inverses(p, n, a)]",
                                       "_window_inverses(p, n, a - 1 if a else a)]"),
}
# planted fault in the pass, an edit of finite.window_sums -> the transcript
# scans that must FAIL under it.  Both sides of a shift scan come from the pass,
# and its expansion holds for any values that sum over the integers of each
# window: a negated inverse negates every value of a nonempty index and
# passes every shift scan, as star values do
# (test_star_values_fail_only_the_stuffle_scans).  It keeps the product side
# of a stuffle and flips its sum side, so only a stuffle whose product side
# does not vanish mod p^n sees it: (1,2) with (2,1) mod p^3.  A child updated
# after its parent reads the parent's value at m in place of m - 1, so only
# values of depth >= 2 change: the stuffle scans and the depth-2 shift scans
# see it.  An exponent read from the parent's part (0 at the root) and a
# root scaled by m^(K-1) change the depth-1 values too, H_(p-1) among them;
# the first one leaves the shift scan of (2,1) mod p^2 passing, as measured.
# A window opened with only its root reset keeps the other prefixes' stale
# residues, and c = 1 in place of M (M^-1 mod q) resets the windows already
# open as well; at a = 0 the one opening finds the state 0 and M = 1, so
# these two see only the shifted windows, and every shift scan fails.
PASS_MUTATIONS = {
    "pass-children-after-parents": (
        planted(finite.window_sums, "for i, parent, e in steps:",
                "for i, parent, e in reversed(steps):"),
        _STUFFLE | _SHIFT_DEPTH_2),
    "pass-exponent-from-the-parent-part": (
        planted(finite.window_sums, "top - u[-1])", "top - (u[-2] if len(u) > 1 else 0))"),
        set(_SCANS) - {"scan shift (2,1) --shift 1 --pmax 60 --pow 2"}),
    "pass-inverse-negated": (planted(finite.window_sums, "inverse = pow(", "inverse = -pow("),
                             {c for c in _STUFFLE if c.endswith("--pow 3")}),
    "pass-root-scaled-by-N-to-K-1": (
        planted(finite.window_sums, "powers[top] * state[root]", "powers[top - 1] * state[root]"),
        set(_SCANS)),
    "pass-window-opened-with-only-its-root-reset": (
        planted(finite.window_sums, "state = [s * (1 - c) % modulus for s in state]",
                "state[root] = state[root] * (1 - c) % modulus"),
        _SHIFT),
    "pass-window-opening-resets-every-window": (
        planted(finite.window_sums, "c = modulus * pow(modulus, -1, q)", "c = 1"), _SHIFT),
}
_SHIFTED_WINDOW_FAULTS = ("pass-window-opened-with-only-its-root-reset",
                          "pass-window-opening-resets-every-window")


def _assert_failing_scans(failing, label) -> None:
    """Exactly the transcript scans in ``failing`` FAIL; every other one PASSes."""
    verdicts = _scan_verdicts()
    assert set(verdicts) == set(_SCANS)
    for command, seen in verdicts.items():
        assert seen == ("FAIL" if command in failing else "PASS"), (label, command, seen)


@pytest.mark.parametrize("mutation", sorted(DP_MUTATIONS))
def test_planted_dp_faults_fail_exactly_the_scans_that_see_them(monkeypatch, mutation):
    monkeypatch.setattr(finite, "finite_mzv", DP_MUTATIONS[mutation])
    _assert_failing_scans(set(), mutation)


def test_a_wrong_shift_weight_fails_only_the_pow_3_shift_scan(monkeypatch):
    # a scan at pow n sums the shifts of total < n, and prod k_i^m_i equals
    # b(k; m) wherever every m_i <= 1: no pow-2 scan can tell the two apart
    failing = {c for c in _SHIFT if c.endswith("--pow 3")}
    assert failing
    monkeypatch.setattr(finite, "shifts", _shifts_with_power_weights)
    _assert_failing_scans(failing, "power weights")


def test_a_stuffle_without_merged_terms_fails_only_the_stuffle_scans(monkeypatch):
    # the pass still agrees with the oracle under this fault, so it cannot be
    # a PASS_MUTATIONS entry (test_planted_pass_faults_fail_the_pass_against_the_oracle)
    monkeypatch.setattr(finite, "stuffle", stuffle_without_merged_terms)
    _assert_failing_scans(_STUFFLE, "no merged terms")


def _star_sums(ks, p_max, n=1, a=0):
    """``finite.window_sums`` with every value replaced by its star value."""
    return {p: {k: finite.finite_mzv_star(k, p, n, a) for k in map(indices.Index, ks)}
            for p in finite.sieve_primes(p_max) if p >= 5 and p > n}


def test_star_values_fail_only_the_stuffle_scans(monkeypatch):
    # the shift expansion holds for the star sums too, so with both of its
    # sides from one function a shift scan cannot tell them from the plain
    # sums; the oracle tests of the pass are the gate for such a fault
    monkeypatch.setattr(finite, "window_sums", _star_sums)
    _assert_failing_scans(_STUFFLE, "star values")


# the index grid of test_finite.test_dp_matches_bruteforce
_DP_INDICES = [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 2), (2, 1, 2), (5,)]
_DP_WINDOWS = list(itertools.product((5, 7, 11, 13), (1, 2), (0, 1, 3)))


def test_every_shift_scan_fails_under_the_planted_shifted_window_faults():
    for mutation in _SHIFTED_WINDOW_FAULTS:
        fault, failing = PASS_MUTATIONS[mutation]
        assert failing == _SHIFT, mutation
        for n in (1, 2, 3):
            want = finite.window_sums(_DP_INDICES, 100, n)
            assert fault(_DP_INDICES, 100, n) == want, (mutation, n)


def test_a_planted_fault_edits_exactly_one_site():
    for old in ("no such text", "% modulus"):
        with pytest.raises(ValueError, match="window_sums"):
            planted(finite.window_sums, old, "0")


# function, a site of it, and the values it is compared on
_IDENTITY_EDITS = {
    "dp": (finite.finite_mzv, "accumulate(col, initial=0)",
           lambda f: [f(k, p, n, a) for p, n, a in _DP_WINDOWS for k in [()] + _DP_INDICES]),
    "pass": (finite.window_sums, "inverse = pow(",
             lambda f: [f(_DP_INDICES, 100, n, a) for n in (1, 2) for a in (0, 1, 3)]),
    "zeta_reg": (regularization.zeta_reg, "if ck == 1:",
                 lambda f: [f(k, product) for k in indices_up_to(6)
                            for product in (HARMONIC, SHUFFLE)]),
}


@pytest.mark.parametrize("name", sorted(_IDENTITY_EDITS))
def test_an_identity_edit_plants_the_function_itself_and_writes_no_module(name):
    function, site, values = _IDENTITY_EDITS[name]
    module = vars(sys.modules[function.__module__])
    before = dict(module)
    edited = planted(function, site, site)
    assert module == before
    assert edited is not function and values(edited) == values(function)


@pytest.mark.parametrize("mutation", sorted(DP_MUTATIONS))
def test_planted_dp_faults_fail_the_dp_against_the_oracle(mutation):
    fault = DP_MUTATIONS[mutation]
    mismatches = sum(fault(k, p, n, a) != finite.finite_mzv_bruteforce(k, p, n, a)
                     for p, n, a in _DP_WINDOWS for k in _DP_INDICES)
    assert mismatches > 0, mutation


@pytest.mark.parametrize("mutation", sorted(PASS_MUTATIONS))
def test_planted_pass_faults_fail_exactly_the_scans_that_see_them(monkeypatch, mutation):
    fault, failing = PASS_MUTATIONS[mutation]
    monkeypatch.setattr(finite, "window_sums", fault)
    _assert_failing_scans(failing, mutation)


def test_every_scan_fails_under_some_planted_pass_fault():
    assert set().union(*(failing for _, failing in PASS_MUTATIONS.values())) == set(_SCANS)


@pytest.mark.parametrize("mutation", sorted(PASS_MUTATIONS))
def test_planted_pass_faults_fail_the_pass_against_the_oracle(mutation):
    fault, _ = PASS_MUTATIONS[mutation]
    mismatches = 0
    for n in (1, 2):
        for a in (0, 1, 2):
            for p, val in fault(_DP_INDICES, 13, n, a).items():
                mismatches += sum(val[k] != finite.finite_mzv(k, p, n, a) for k in _DP_INDICES)
    assert mismatches > 0, mutation


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(transcript()) + "\n", encoding="utf-8")
    sys.exit(0)
