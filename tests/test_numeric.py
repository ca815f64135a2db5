import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from mzvkit import numeric
from mzvkit.associator import NcSeries
from mzvkit.numeric import (
    _GUARD, CACHE, MIN_PREC, CacheFormatError, Gaussian, ValueCache, _as_mpf, _bits, _li_half,
    _number, eval_zeta_poly, mzv, mzv_star, pi_val, residual, to_mp, tolerance,
)
from mzvkit.rings import BiSeries, ZetaPoly
from mzvkit.stadic import stadic_smzv
from mzvkit.words import E0, E1, HARMONIC, SHUFFLE, index_of_word, word_of_index
from support import clear_caches, indices_up_to

GOLDEN_VALUES = Path(__file__).resolve().parent / "data" / "mzv_values.txt"
# (largest weight, prec) of the golden value store
GOLDEN_GRID = ((8, 40), (5, 100), (4, 200))


def direct_sum_oracle(k, terms):
    """Truncated nested summation by prefix sums, plus a rigorous tail bound.

    The inner nested sum below n is at most (1 + ln n)^(depth-1), so the tail
    of the outer sum is below 2 (1 + ln N)^(depth-1) N^(1-k_r)/(k_r - 1) by
    integral comparison.  Fully independent of the midpoint-split evaluator.
    """
    k = tuple(k)
    with mp.workdps(30):
        cur = None
        for exponent in k:
            nxt = [mp.mpf(0)] * terms
            if cur is None:
                for m in range(1, terms):
                    nxt[m] = mp.mpf(m) ** -exponent
            else:
                prefix = mp.mpf(0)
                for m in range(1, terms):
                    prefix += cur[m - 1]
                    nxt[m] = prefix * mp.mpf(m) ** -exponent
            cur = nxt
        total = mp.fsum(cur)
        bound = (2 * (1 + mp.log(terms)) ** (len(k) - 1)
                 * mp.mpf(terms) ** (1 - k[-1]) / (k[-1] - 1))
        return total, bound


def test_known_values_30_digits():
    with mp.workdps(60):
        limit = mp.mpf(10) ** -30
        assert abs(mzv((2,), 40) - pi_val(40) ** 2 / 6) < limit
        assert abs(mzv((4,), 40) - Fraction(2, 5) * mzv((2,), 40) ** 2) < limit


def test_duality_spot_checks_prec_minus_5():
    # reductions of depth-2 and depth-3 values to single zetas, at 35 digits
    with mp.workdps(60):
        limit = mp.mpf(10) ** -35
        assert abs(mzv((1, 2), 40) - mzv((3,), 40)) < limit
        assert abs(mzv((1, 3), 40) - pi_val(40) ** 4 / 360) < limit
        assert abs(mzv((1, 1, 2), 40) - mzv((4,), 40)) < limit


def test_against_mpmath_zeta():
    with mp.workdps(60):
        for k in range(2, 9):
            assert abs(mzv((k,), 40) - mp.zeta(k)) < mp.mpf(10) ** -38


@pytest.mark.parametrize("prec", [15, 40, 100])
def test_error_is_within_the_documented_bound(prec):
    # a value is rounded to prec significant digits, so its error can pass
    # 10^-prec (zeta(9) at prec 40 is off by 3.94e-40) but not 10^(1-prec) |zeta(k)|
    with mp.workdps(prec + 30):
        unit = mp.mpf(10) ** (1 - prec)
        for n in range(2, 17):
            assert abs(mzv((n,), prec) - mp.zeta(n)) <= unit * mp.zeta(n), n
        assert abs(mzv((1, 2), prec) - mp.zeta(3)) <= unit * mp.zeta(3)


def test_against_direct_summation():
    with mp.workdps(30):
        for k in [(2,), (3,), (1, 2), (2, 2), (1, 1, 3)]:
            approx, bound = direct_sum_oracle(k, 4000)
            assert abs(mzv(k, 40) - approx) < bound + mp.mpf(10) ** -9


def test_empty_index():
    assert mzv((), 40) == 1


def test_errors():
    with pytest.raises(ValueError):
        mzv((1,), 40)
    with pytest.raises(ValueError):
        mzv((2, 1), 40)
    with pytest.raises(ValueError):
        mzv((2,), 10)


def test_determinism():
    CACHE.clear()
    a = mzv((1, 2, 3), 40)
    s1 = CACHE.get((1, 2, 3), 40)
    CACHE.clear()
    b = mzv((1, 2, 3), 40)
    s2 = CACHE.get((1, 2, 3), 40)
    assert s1 == s2 and a == b


def test_cache_round_trip(tmp_path):
    cache = ValueCache()
    cache.put((1, 2), 40, "1.202056903159594285399738161511449990765")
    cache.put((), 20, "1.0")
    path = tmp_path / "cache.txt"
    cache.save(str(path))
    loaded = ValueCache()
    assert loaded.load(str(path)) == 2
    assert loaded.records == cache.records
    # sorted by (weight, parts, prec)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("k=;prec=20")


def test_the_golden_store_loads_as_it_was_saved(tmp_path):
    text = GOLDEN_VALUES.read_text(encoding="utf-8")
    cache = ValueCache()
    assert cache.load(str(GOLDEN_VALUES)) == 149
    cache.save(str(tmp_path / "store.txt"))
    assert (tmp_path / "store.txt").read_text(encoding="utf-8") == text
    for line in text.splitlines():
        kpart, ppart, vpart = line.split(";")
        k = tuple(int(part) for part in kpart[2:].split(","))
        assert cache.get(k, int(ppart[5:])) == vpart[6:], line


indices_at_prec = st.tuples(
    st.lists(st.integers(1, 12), max_size=4).map(tuple).filter(lambda k: not k or k[-1] >= 2),
    st.integers(MIN_PREC, 300))
# decimal strings as mpmath prints them, exponent forms included
decimals = st.builds(lambda m, e, digits: mp.nstr(mp.mpf(m) * mp.mpf(10) ** e, digits,
                                                  strip_zeros=False),
                     st.integers(-10**9, 10**9), st.integers(-80, 80), st.integers(1, 40))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.dictionaries(indices_at_prec, decimals, max_size=12))
@example({((), 20): "1.0", ((2,), 40): "1.234e-50", ((1, 12), 15): "-6.02e+23"})
def test_cache_round_trips_any_records(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("store") / "store.txt"
    cache = ValueCache()
    for (k, prec), value in records.items():
        cache.put(k, prec, value)
    assert cache.save(str(path)) == len(records)
    loaded = ValueCache()
    assert loaded.load(str(path)) == len(records)
    assert loaded.lines() == cache.lines()
    for (k, prec), value in records.items():
        assert loaded.get(k, prec) == value


@settings(derandomize=True, max_examples=60, deadline=None)
@given(decimals, st.integers(MIN_PREC, 120))
@example("2", 40)
@example("3.", 15)
@example("-6.02e+23", 40)
@example("1.644934066848226436472415166646025189219", 40)
def test_a_stored_decimal_is_read_as_the_nearest_fixed_point_int(text, prec):
    exact = Fraction(text) * 2 ** _bits(prec)
    assert abs(numeric._fixed(text, prec) - exact) <= Fraction(1, 2)


def test_a_stored_string_that_is_not_a_finite_decimal_has_no_fixed_point_value():
    for text in ["nan", "inf", "-inf", "1_0", "", "1.5 ", "0x10", "1e"]:
        assert numeric._fixed(text, 40) is None, text


def test_cache_skips_blank_lines_and_reads_crlf_line_ends(tmp_path):
    path = tmp_path / "store.txt"
    path.write_bytes(b"\r\nk=2;prec=40;value=1.6\r\n\n  \nk=3;prec=40;value=1.2\r\n")
    cache = ValueCache()
    assert cache.load(str(path)) == 2
    assert cache.get((2,), 40) == "1.6" and cache.get((3,), 40) == "1.2"
    path.write_bytes(b"k=2;prec=40;value=1.6\r\n\r\nk=02;prec=40;value=1.6\r\n")
    with pytest.raises(CacheFormatError, match="line 3: malformed cache record 'k=02;"):
        ValueCache().load(str(path))


# Each record names a field wrongly, stores a value that is not a finite
# decimal, or is not in the one form `cache save` writes.
BAD_RECORDS = ["zz2;prec=40;value=1.5", "k=2;prec=40;value=nan", "k=2;prec=40;value=inf",
               # an index part below 1, a non-admissible index, prec below 15
               "k=0,2;prec=40;value=1.5", "k=1;prec=40;value=1.5", "k=2;prec=14;value=1.5",
               "k=2,0;prec=-3;value=1.5",
               # leading zeros, a space, a digit separator
               "k=02;prec=40;value=1.5", "k=2;prec=040;value=1.5", "k=2, 3;prec=40;value=1.5",
               "k=2;prec=40;value=1_0"]


def test_cache_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    for record in ["not a record", *BAD_RECORDS]:
        path.write_text(f"k=2;prec=40;value=1.6\n{record}\n")
        with pytest.raises(CacheFormatError, match="line 2"):
            ValueCache().load(str(path))


def test_a_bad_line_in_the_middle_of_a_store_is_named_with_its_reason(tmp_path):
    lines = GOLDEN_VALUES.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "store.txt"
    reasons = {"zz2;prec=40;value=1.5": "unknown field name",
               "k=2;prec=40;value=nan": "value is not a finite decimal",
               "k=1;prec=40;value=1.5": "not a value that mzv stores"}
    for record in BAD_RECORDS:
        path.write_text("\n".join(lines[:74] + ["", record] + lines[74:]) + "\n")
        cache = ValueCache()
        with pytest.raises(CacheFormatError) as raised:
            cache.load(str(path))
        reason = reasons.get(record, numeric._bad_record(record))
        assert str(raised.value) == f"line 76: malformed cache record {record!r}: {reason}"
        assert not cache.records, "a store with a bad line adds none of its records"


def test_a_repeated_key_keeps_its_last_value_and_counts_twice(tmp_path):
    path = tmp_path / "store.txt"
    path.write_bytes(b"k=2;prec=40;value=1.6\r\n\r\n\t k=3;prec=40;value=1.2 \r\n"
                     b"k=2;prec=40;value=1.7\n\n")
    cache = ValueCache()
    assert cache.load(str(path)) == 3
    assert cache.records == {"k=2;prec=40": "1.7", "k=3;prec=40": "1.2"}


def test_cache_rejects_bad_records_under_python_optimize(tmp_path):
    # -O strips assert statements; the format check must not rest on one
    script = (
        "import sys\n"
        "from mzvkit.numeric import CacheFormatError, ValueCache\n"
        "for path in sys.argv[1:]:\n"
        "    try:\n"
        "        ValueCache().load(path)\n"
        "    except CacheFormatError:\n"
        "        print('rejected')\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    paths = []
    for n, record in enumerate(BAD_RECORDS):
        paths.append(str(tmp_path / f"bad{n}.txt"))
        Path(paths[-1]).write_text(record + "\n")
    src = str(Path(numeric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", script, *paths], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["rejected"] * len(BAD_RECORDS)


def test_residual_of_each_kind():
    with mp.workdps(60):
        assert residual(mp.mpf(3), mp.mpf(1), 40) == 2
        T = ZetaPoly.tvar("T")
        # compared coefficient by coefficient in T: |3| for T^1, |-1| for T^0
        assert residual(T * 3, ZetaPoly.const(1), 40) == 3
        grid = BiSeries(0, 2, [[mp.mpf(1), mp.mpf(-5), mp.mpf(2)]])
        assert residual(grid, BiSeries.constant(mp.mpf(0), 0, 2), 40) == 5
        series = NcSeries(2, {(E0,): mp.mpc(0, 4), (E1,): mp.mpf(1)}, 40)
        assert residual(series, NcSeries(2, {(E1,): mp.mpf(1)}, 40), 40) == 4
        assert residual(series, series, 40) == 0
        # exact numbers, and a series of them, are converted exactly
        small = mp.mpf(10) ** -54
        assert abs(residual(Fraction(1, 3), 0, 40) - mp.mpf(1) / 3) < small
        exact = NcSeries(2, {(E0,): Fraction(-2, 3), (E1,): Fraction(1, 7), (E0, E1): 1})
        assert exact.bits == 0
        assert residual(exact, NcSeries(2), 40) == 1
        assert abs(residual(exact, NcSeries(2, {(E0, E1): 1}), 40) - mp.mpf(2) / 3) < small


def test_residual_is_nan_wherever_a_grid_entry_is_nan():
    nan = mp.mpf("nan")
    for i, j in [(0, 1), (1, 0), (1, 1)]:
        grid = BiSeries(1, 1, [[mp.mpf(1), mp.mpf(2)], [mp.mpf(3), mp.mpf(4)]])
        grid.terms[(i, j)] = nan
        assert mp.isnan(residual(grid, BiSeries.constant(mp.mpf(0), 1, 1), 40)), (i, j)
    sym = BiSeries(0, 1, [[ZetaPoly.const(1), ZetaPoly.tvar("T") * ZetaPoly.zeta((2,))]])
    saved = dict(CACHE.records)
    try:
        CACHE.put((2,), 40, "nan")
        assert mp.isnan(residual(sym, BiSeries.constant(ZetaPoly(), 0, 1), 40))
    finally:
        CACHE.records.clear()
        CACHE.records.update(saved)


def test_residual_sees_a_factor_that_vanishes_at_one_point_of_t():
    # z(2) (1 + T2 - T1) is 0 wherever T2 - T1 = -1, but not as a polynomial
    T1, T2 = ZetaPoly.tvar("T1"), ZetaPoly.tvar("T2")
    wrong = BiSeries(0, 0, [[ZetaPoly.zeta((2,)) * (1 + T2 - T1)]])
    assert residual(wrong, BiSeries.constant(ZetaPoly(), 0, 0), 40) >= tolerance(40)


def test_residual_is_nan_when_a_series_coefficient_is_nan():
    series = NcSeries(2, {(): mp.mpf(1), (E0,): mp.mpf(5), (E0, E1): mp.mpf("nan")}, 40)
    assert mp.isnan(residual(series, NcSeries.const(2, 40), 40))


def t_coefficients_reference(p: ZetaPoly, prec: int) -> dict:
    """Each T-coefficient of ``p`` in mpf at twice the working precision, from
    the stored decimal strings parsed by mpmath: the sum the fixed-point path
    must reproduce."""
    out: dict = {}
    with mp.workdps(2 * (prec + _GUARD)):
        for (zpart, tpart), c in p.terms.items():
            term = to_mp(c)
            for k, e in zpart:
                mzv(k, prec)    # computes and stores a missing value
                term *= mp.mpf(CACHE.get(k, prec)) ** e
            out[tpart] = out.get(tpart, 0) + term
    return out


def assert_t_coefficients_match(p: ZetaPoly, prec: int = 40) -> None:
    with mp.workdps(prec + _GUARD):
        got = numeric._t_coefficients(p, prec, {})
    want = t_coefficients_reference(p, prec)
    assert got.keys() == want.keys()
    with mp.workdps(2 * (prec + _GUARD)):
        for tpart, value in got.items():
            value = _as_mpf(value, _bits(prec), prec)
            assert abs(value - want[tpart]) < mp.mpf(10) ** -50, (p, tpart)


def test_fixed_point_t_coefficients_of_seed_drawn_grids():
    rng = random.Random(33)
    choices = list(indices_up_to(4, 1))
    entries = [entry for product in (HARMONIC, SHUFFLE) for k in rng.sample(choices, 4)
               for entry in stadic_smzv(k, product, (2, 2)).terms.values()]
    monomials = [(zpart, tpart, c) for entry in entries for (zpart, tpart), c in entry.terms.items()]
    # the draws reach T-monomials, products of symbols and Fraction coefficients
    assert any(tpart for _, tpart, _ in monomials)
    assert any(sum(e for _, e in zpart) >= 2 for zpart, _, _ in monomials)
    assert any(isinstance(c, Fraction) for _, _, c in monomials)
    for entry in entries:
        assert_t_coefficients_match(entry)


def test_fixed_point_t_coefficients_of_hand_built_polynomials():
    z2, z3, z12 = ZetaPoly.zeta((2,)), ZetaPoly.zeta((3,)), ZetaPoly.zeta((1, 2))
    T, T1, T2 = ZetaPoly.tvar("T"), ZetaPoly.tvar("T1"), ZetaPoly.tvar("T2")
    for p in [ZetaPoly.const(Fraction(-7, 3)),
              z2 * z2 * Fraction(-5, 11) + z3 * 4 - ZetaPoly.const(Fraction(1, 9)),
              z3 * z3 * z3 * T * T + z12 * z2 * Fraction(13, 17) * T - z2 * 2,
              (z2 - z12 * Fraction(1, 3)) * (T1 - T2 * Fraction(3, 2)) * (z3 * z3 + 1),
              # Euler's zeta(4) = 2/5 zeta(2)^2: a near cancellation, scaled up
              (ZetaPoly.zeta((4,)) - z2 * z2 * Fraction(2, 5)) * 10**12]:
        assert_t_coefficients_match(p)


def test_a_difference_below_a_value_stays_visible_and_one_above_tol_fails():
    z2 = ZetaPoly.zeta((2,))
    got = residual(z2 * Fraction(1, 10**35), ZetaPoly(), 40)
    with mp.workdps(60):
        # fixed point: a few units of 2^-bits, about 2e-65, absolute
        assert abs(got - mzv((2,), 40) / 10**35) < mp.mpf(10) ** -60
    assert mp.nstr(got, 3) == "1.64e-35"
    T = ZetaPoly.tvar("T")
    for lhs, rhs in [(ZetaPoly.const(Fraction(1, 10**29)), ZetaPoly()),
                     (z2 * T + Fraction(1, 10**29) * T, z2 * T),
                     (z2 * (1 + Fraction(1, 10**29)), z2)]:
        assert residual(lhs, rhs, 40) >= tolerance(40), lhs - rhs


def test_residual_reads_each_distinct_symbol_once(monkeypatch):
    gets = []
    get = ValueCache.get

    def counting_get(self, k, prec):
        gets.append(tuple(k))
        return get(self, k, prec)

    grid = stadic_smzv((1, 2), HARMONIC, (2, 2)) * stadic_smzv((2,), HARMONIC, (2, 2))
    symbols = [k for entry in grid.terms.values() for zpart, _ in entry.terms for k, _ in zpart]
    assert len(symbols) > 3 * len(set(symbols))
    monkeypatch.setattr(ValueCache, "get", counting_get)
    assert residual(grid, BiSeries.constant(ZetaPoly(), 2, 2), 40) > 1
    assert sorted(gets) == sorted(set(symbols))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_a_stored_value_that_is_not_finite_is_never_read_as_a_number(monkeypatch, text):
    monkeypatch.setitem(CACHE.records, "k=2;prec=40", text)
    z2, T = ZetaPoly.zeta((2,)), ZetaPoly.tvar("T")
    assert mp.isnan(mzv((2,), 40))
    assert not mp.isfinite(residual(z2 * T + 1, ZetaPoly(), 40))
    for p in (z2, z2 * z2 * Fraction(1, 3) + 1, z2 * T + T * T):
        for t in (0, Fraction(1, 2), Gaussian(0, 1 << _bits(40))):
            assert not mp.isfinite(_number(*eval_zeta_poly(p, {"T": t}, 40), _bits(40))), (p, t)
    assert not mp.isfinite(residual(BiSeries(0, 1, [[ZetaPoly.const(1), z2 * T]]),
                                    BiSeries.constant(ZetaPoly(), 0, 1), 40))


def test_cache_save_failing_midway_keeps_the_previous_store(tmp_path, monkeypatch):
    class Unwritable:
        def __format__(self, spec):
            raise OSError("device full")

    def refuse_rename(src, dst):
        assert Path(src).read_text().count("\n") == 2    # both records are written
        raise OSError("device full")

    path = tmp_path / "store.txt"
    previous = ValueCache()
    previous.put((2,), 40, "1.644934066848226436472415166646025189219")
    previous.put((5,), 40, "1.036927755143369926331365486457034168057")
    previous.save(str(path))
    before = path.read_text()
    failing = ValueCache()
    failing.put((2,), 40, "1.644934066848226436472415166646025189219")
    # a value that cannot be written fails the save before its temp file
    # exists; a refused rename fails it after the temp file is written in full
    for value, replace in ((Unwritable(), os.replace),
                           ("1.202056903159594285399738161511449990765", refuse_rename)):
        failing.put((3,), 40, value)
        monkeypatch.setattr(numeric.os, "replace", replace)
        with pytest.raises(OSError, match="device full"):
            failing.save(str(path))
        assert path.read_text() == before
        assert ValueCache().load(str(path)) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["store.txt"]


def test_cache_racing_savers_leave_one_complete_store(tmp_path):
    path = str(tmp_path / "store.txt")
    savers = []
    for n in range(3):
        cache = ValueCache()
        for w in range(2, 400 + 50 * n):
            cache.put((w,), 40, f"1.{n}{w:038d}")
        savers.append(cache)
    savers[0].save(path)
    complete = [cache.records for cache in savers]
    problems = []

    def save(cache):
        for _ in range(20):
            cache.save(path)

    def read():
        for _ in range(60):
            loaded = ValueCache()
            try:
                loaded.load(path)
            except (OSError, ValueError) as exc:
                problems.append(repr(exc))
                continue
            if loaded.records not in complete:
                problems.append(f"torn store with {len(loaded.records)} records")

    threads = [threading.Thread(target=save, args=(c,)) for c in savers]
    threads += [threading.Thread(target=read) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert problems == []
    final = ValueCache()
    final.load(path)
    assert final.records in complete
    assert os.listdir(tmp_path) == ["store.txt"]


def test_mzv_star():
    with mp.workdps(60):
        # zeta*(1,2) = zeta(1,2) + zeta(3) = 2 zeta(3)
        assert abs(mzv_star((1, 2), 40) - 2 * mzv((3,), 40)) < mp.mpf(10) ** -30
        assert abs(mzv_star((2, 2), 40) - (mzv((2, 2), 40) + mzv((4,), 40))) == 0
    for k in [(2, 1), (1,)]:
        with pytest.raises(ValueError, match="not admissible"):
            mzv_star(k, 40)


def euler_residual(n: int, prec: int):
    """|zeta(2n) - q zeta(2)^n| for Euler's zeta(4) = 2/5 zeta(2)^2 (n = 2)
    and zeta(6) = 8/35 zeta(2)^3 (n = 3)."""
    q = {2: Fraction(2, 5), 3: Fraction(8, 35)}[n]
    with mp.workdps(prec + _GUARD):
        return residual(mzv((2 * n,), prec), q * mzv((2,), prec) ** n, prec)


def test_euler_check():
    t0 = time.time()
    assert euler_residual(2, 30) < tolerance(30)
    assert time.time() - t0 < 1.0
    assert euler_residual(2, 40) < mp.mpf(10) ** -35
    assert euler_residual(3, 40) < mp.mpf(10) ** -35


def test_eval_zeta_poly():
    with mp.workdps(60):
        z2 = ZetaPoly.zeta((2,))
        T = ZetaPoly.tvar("T")
        assert abs(_as_mpf(eval_zeta_poly(z2, {}, 40).re, _bits(40), 40) - mzv((2,), 40)) == 0
        p = (T * T - z2) * Fraction(1, 2)
        got = _number(*eval_zeta_poly(p, {"T": 0}, 40), _bits(40))
        assert abs(got + mzv((2,), 40) / 2) < mp.mpf(10) ** -38
        assert _number(*eval_zeta_poly(ZetaPoly.const(1), {}, 40), _bits(40)) == 1
        with pytest.raises(ValueError):
            eval_zeta_poly(T, {}, 40)


def test_to_mp_exact():
    with mp.workdps(40):
        assert to_mp(Fraction(1, 4)) == mp.mpf(1) / 4
        assert to_mp(7) == 7


def test_weight_twelve_depth_four_range():
    # the deformation checkers push shifted weights up to about 12 at
    # depth <= 4; values must come back quickly and deterministically
    t0 = time.time()
    with mp.workdps(60):
        for k in [(2, 3, 3, 4), (1, 1, 4, 6), (12,), (5, 7)]:
            v = mzv(k, 40)
            assert 0 < v < 3
            assert v == mzv(k, 40)
    assert time.time() - t0 < 30


def golden_store(path) -> None:
    """Compute every golden value from empty caches and save the store to ``path``."""
    clear_caches()
    CACHE.clear()
    for max_weight, prec in GOLDEN_GRID:
        for k in indices_up_to(max_weight, 2):
            if k.admissible:
                mzv(k, prec)
    CACHE.save(str(path))


def test_values_match_the_golden_store(tmp_path):
    golden_store(tmp_path / "store.txt")
    got = (tmp_path / "store.txt").read_text(encoding="utf-8").splitlines()
    want = GOLDEN_VALUES.read_text(encoding="utf-8").splitlines()
    assert len(want) == 127 + 15 + 7
    assert len(got) == len(want)
    for n, (old, new) in enumerate(zip(want, got), start=1):
        assert old == new, f"line {n}"


@pytest.mark.parametrize("prec", [40, 100, 200])
def test_li_half_against_closed_forms(prec):
    # Li_{1,...,1}(1/2) = log(2)^q / q!  and  Li_c(1/2) = polylog(c, 1/2)
    _li_half.cache_clear()
    numeric._level.cache_clear()
    with mp.workdps(prec + _GUARD + 20):
        bound = mp.mpf(10) ** -(prec + _GUARD)
        for q in range(1, 7):
            want = mp.log(2) ** q / math.factorial(q)
            assert abs(mp.mpf((_li_half((1,) * q, prec), -_bits(prec))) - want) < bound, q
        for c in range(1, 7):
            want = mp.polylog(c, mp.mpf(1) / 2)
            assert abs(mp.mpf((_li_half((c,), prec), -_bits(prec))) - want) < bound, c


def _li_half_reference(comp, prec):
    """The nested loop ``_li_half`` used before its levels were memoised: every
    level of ``comp`` summed from scratch, one n at a time, scaled by 2^bits."""
    bits = math.ceil(math.log2(10) * (prec + _GUARD)) + 32
    nterms = int(3.322 * (prec + 12)) + 16
    one = 1 << bits
    if not comp:
        return one
    first, rest = comp[0], comp[1:]
    pref = [0] * len(rest)      # pref[j]: sum of the level-j terms of all m < n
    acc = 0
    for n in range(1, nterms + 1):
        term = one // n ** first
        for j, c in enumerate(rest):
            term, pref[j] = pref[j] // n ** c, pref[j] + term
        acc += term >> n
    return acc


def split_compositions(k):
    """The compositions whose polylogarithms ``_mzv_compute`` multiplies for ``k``."""
    w = word_of_index(k)
    for i in range(len(w) + 1):
        yield tuple(index_of_word(w[:i]))
        yield tuple(index_of_word(tuple(1 - a for a in reversed(w[i:]))))


def test_li_half_levels_match_the_nested_loop():
    # every piece of the weight <= 8 (prec 40) and <= 5 (prec 100) values, in
    # sorted order and then shuffled, so the bounded level memo evicts parents
    # and derives them again; and one composition deeper than Python's
    # recursion limit
    cases = sorted({(comp, prec) for max_weight, prec in ((8, 40), (5, 100))
                    for k in indices_up_to(max_weight, 2) if k.admissible
                    for comp in split_compositions(k)}
                   | {((1,) * 1200 + (2,), MIN_PREC)})
    want = {case: _li_half_reference(*case) for case in cases}
    misses = []
    for order in (cases, random.Random(1).sample(cases, len(cases))):
        _li_half.cache_clear()
        numeric._level.cache_clear()
        for comp, prec in order:
            assert _li_half(comp, prec) == want[comp, prec], (comp, prec)
        misses.append(numeric._level.cache_info().misses)
    assert misses[1] > misses[0]


def test_li_half_long_sibling_chains_match_the_nested_loop():
    # a level with last part c is c floor divisions by n down a chain of
    # siblings: chains of 12 letters on either side of a split, at four
    # scales, and one chain deeper than Python's recursion limit
    cases = [(comp, prec) for comp in ((12,), (1, 12), (2, 11, 3), (12, 1, 1))
             for prec in (15, 40, 100, 200)] + [((1,) * 1200 + (12,), MIN_PREC)]
    for comp, prec in cases:
        _li_half.cache_clear()
        numeric._level.cache_clear()
        assert _li_half(comp, prec) == _li_half_reference(comp, prec), (comp, prec)
    assert isinstance(numeric._level.cache_info().maxsize, int)


@pytest.mark.parametrize("prec", [15, 40, 100, 200])
def test_a_cold_value_is_stored_and_read_as_through_an_mpf(prec):
    # the store string and the mzv of a cold value, formatted and rounded from
    # the exact int, are those an mpf at prec + _GUARD digits gives
    bits = _bits(prec)
    clear_caches()
    CACHE.clear()
    for k in indices_up_to(6, 2):
        if not k.admissible:
            continue
        pieces = iter(split_compositions(k))
        total = sum(_li_half(head, prec) * _li_half(tail, prec) for head, tail in zip(pieces, pieces))
        got = mzv(k, prec)
        text = CACHE.get(k, prec)
        with mp.workdps(prec + _GUARD):
            assert text == mp.nstr(mp.mpf((total, -2 * bits)), prec, strip_zeros=False), k
            assert got == mp.mpf((numeric._fixed(text, prec), -bits)), k
    before = mp.prec
    CACHE.clear()
    mzv((13,), 200)
    assert mp.prec == before


if __name__ == "__main__":
    # re-record the golden value store (only when a value change is intended)
    GOLDEN_VALUES.parent.mkdir(exist_ok=True)
    golden_store(GOLDEN_VALUES)
