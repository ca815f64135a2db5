import os
import sys
import threading
import time
from fractions import Fraction

import pytest
from mpmath import mp

from mzvkit.numeric import (
    CACHE, CacheFormatError, ValueCache, eval_zeta_poly, euler_check, mzv,
    mzv_star, pi_val, to_mp, tolerance,
)
from mzvkit.rings import ZetaPoly


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


def test_cache_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("k=2;prec=40;value=1.6\nnot a record\n")
    cache = ValueCache()
    with pytest.raises(CacheFormatError) as err:
        cache.load(str(path))
    assert "line 2" in str(err.value)


def test_cache_save_failing_midway_keeps_the_previous_store(tmp_path):
    class Unwritable:
        def __format__(self, spec):
            raise OSError("device full")

    path = tmp_path / "store.txt"
    previous = ValueCache()
    previous.put((2,), 40, "1.644934066848226436472415166646025189219")
    previous.put((5,), 40, "1.036927755143369926331365486457034168057")
    previous.save(str(path))
    before = path.read_text()
    failing = ValueCache()
    failing.put((2,), 40, "1.644934066848226436472415166646025189219")
    failing.put((3,), 40, Unwritable())
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


def test_euler_check():
    t0 = time.time()
    assert euler_check(2, 30) < tolerance(30)
    assert time.time() - t0 < 1.0
    assert euler_check(2, 40) < mp.mpf(10) ** -35
    assert euler_check(3, 40) < mp.mpf(10) ** -35
    with pytest.raises(ValueError):
        euler_check(4, 40)


def test_eval_zeta_poly():
    with mp.workdps(60):
        z2 = ZetaPoly.zeta((2,))
        T = ZetaPoly.tvar("T")
        assert abs(eval_zeta_poly(z2, {}, 40) - mzv((2,), 40)) == 0
        p = (T * T - z2) * Fraction(1, 2)
        got = eval_zeta_poly(p, {"T": 0}, 40)
        assert abs(got + mzv((2,), 40) / 2) < mp.mpf(10) ** -38
        assert eval_zeta_poly(ZetaPoly.const(1), {}, 40) == 1
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
