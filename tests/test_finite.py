import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from mzvkit import finite
from mzvkit.finite import (
    ScanReport, batch_inverses, finite_mzv, finite_mzv_bruteforce,
    finite_mzv_star, is_prime, scan_shift_expansion, scan_stuffle,
    scan_wolstenholme, sieve_primes, window_sums,
)
from mzvkit.indices import Index

GOLDEN_RESIDUES = Path(__file__).resolve().parent / "data" / "finite_values.txt"
# the (prime, n, window) grid of the golden residues, over every index of weight <= 5
GOLDEN_PRIMES, GOLDEN_POWERS, GOLDEN_WINDOWS = (5, 7, 11, 101, 397), (1, 2, 3), (0, 1, 2)


def indices_up_to(weight):
    """Every index (positive entries) of weight 1..``weight``, by weight."""
    for w in range(1, weight + 1):
        for cuts in itertools.product((False, True), repeat=w - 1):
            k, run = [], 1
            for cut in cuts:
                if cut:
                    k.append(run)
                    run = 1
                else:
                    run += 1
            yield Index(tuple(k) + (run,))


def golden_residues() -> list[str]:
    return [f"k={','.join(map(str, k))};p={p};n={n};a={a};value={finite_mzv(k, p, n, a)}"
            for p in GOLDEN_PRIMES for n in GOLDEN_POWERS for a in GOLDEN_WINDOWS
            for k in indices_up_to(5)]


def test_primes():
    assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(97) and not is_prime(91) and not is_prime(1)


def test_batch_inverses():
    mod = 7 ** 2
    xs = [3, 5, 8, 46]
    inv = batch_inverses(xs, mod)
    assert all(x * y % mod == 1 for x, y in zip(xs, inv))


def test_examples():
    # H_4 = 25/12 is divisible by 5
    assert finite_mzv((1,), 5, 1, 0) == 0
    # H_6 = 49/20 vanishes mod 49
    assert finite_mzv((1,), 7, 2, 0) == 0
    assert finite_mzv((), 11, 3, 2) == 1
    with pytest.raises(ValueError):
        finite_mzv((1,), 9, 1, 0)
    with pytest.raises(ValueError):
        finite_mzv((1,), 2, 3, 0)


@pytest.mark.parametrize("p, n, a", [(5, 1, 0), (7, 2, 1), (11, 3, 3), (13, 3, 2)])
def test_values_are_plain_ints_below_the_modulus(p, n, a):
    for k in [(), (1,), (2, 1), (1, 1, 3)]:
        values = [finite_mzv(k, p, n, a), finite_mzv_star(k, p, n, a),
                  finite_mzv_bruteforce(k, p, n, a)]
        for value in values:
            assert type(value) is int and 0 <= value < p ** n, (k, p, n, a, value)


def test_exact_rational_crosscheck():
    # H_4 mod 5 through exact rationals: 25/12 = 25 * inverse(12)
    h4 = sum(Fraction(1, m) for m in range(1, 5))
    assert h4 == Fraction(25, 12)
    val = h4.numerator * pow(h4.denominator, -1, 25) % 25
    assert finite_mzv((1,), 5, 2, 0) == val


def test_residues_match_the_golden_file():
    want = GOLDEN_RESIDUES.read_text(encoding="utf-8").splitlines()
    got = golden_residues()
    assert len(want) == 31 * 5 * 3 * 3
    assert len(got) == len(want)
    for line, (old, new) in enumerate(zip(want, got), start=1):
        assert old == new, f"line {line}"


def test_dp_matches_bruteforce():
    for ktup in [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 2), (2, 1, 2), (5,)]:
        for p in (5, 7, 11, 13):
            for n in (1, 2):
                for a in (0, 1, 3):
                    got = finite_mzv(ktup, p, n, a)
                    want = finite_mzv_bruteforce(ktup, p, n, a)
                    assert got == want, (ktup, p, n, a)


def test_default_exponent_and_window():
    # n = 1 and a = 0 by default: at (2,1) and p = 5, (n, a) = (1, 0), (2, 0)
    # and (2, 1) give 4, 24 and 4 (star values 4, 19 and 14)
    k, p = (2, 1), 5
    for value in (finite_mzv, finite_mzv_star, finite_mzv_bruteforce):
        assert value(k, p) == value(k, p, 1, 0) != value(k, p, 2, 0), value
        assert value(k, p, 2) == value(k, p, 2, 0) != value(k, p, 2, 1), value


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
ENTRIES = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 3), st.integers(0, 2),
       st.lists(ENTRIES, min_size=1, max_size=4))
def test_finite_mzv_matches_bruteforce_on_every_prefix(p, n, a, ks):
    assume(p > n)
    for k in {k[:i] for k in ks for i in range(len(k) + 1)}:
        assert finite_mzv(k, p, n, a) == finite_mzv_bruteforce(k, p, n, a), (k, p, n, a)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 13, 101, 397, 1009)), st.integers(1, 3),
       st.integers(0, 3))
def test_window_inverses_on_both_paths(p, n, a):
    # window 0 and the shifted windows, both inverted by batch_inverses
    modulus = p ** n
    want = [pow(a * p + j, -1, modulus) for j in range(1, p)]
    assert finite._window_inverses(p, n, a) == want


def test_pass_matches_the_golden_residues():
    # every line of the golden file, each (n, a) from one pass to 397
    want = GOLDEN_RESIDUES.read_text(encoding="utf-8").splitlines()
    passes = {(n, a): window_sums(indices_up_to(5), max(GOLDEN_PRIMES), n, a)
              for n in GOLDEN_POWERS for a in GOLDEN_WINDOWS}
    got = [f"k={','.join(map(str, k))};p={p};n={n};a={a};value={passes[n, a][p][k]}"
           for p in GOLDEN_PRIMES for n in GOLDEN_POWERS for a in GOLDEN_WINDOWS
           for k in indices_up_to(5)]
    assert len(want) == 31 * 5 * 3 * 3
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pass_matches_window_sums(n):
    ks = list(indices_up_to(5))
    for a in (0, 1, 2, 3):
        values = window_sums(ks, 400, n, a)
        assert list(values) == [p for p in sieve_primes(400) if p >= 5]
        for p, val in values.items():
            assert val == {k: finite_mzv(k, p, n, a) for k in ks}, (p, a)


def test_pass_matches_bruteforce():
    ks = list(indices_up_to(5))
    for n in (1, 2, 3):
        for a in (0, 1, 3):
            for p, val in window_sums(ks, 13, n, a).items():
                assert val == {k: finite_mzv_bruteforce(k, p, n, a) for k in ks}, (p, n, a)


def test_pass_where_the_windows_hardly_overlap():
    # at a = 50 the window of p opens at 50p + 1, past the end 51q of the
    # windows of most smaller primes q: the modulus empties and fills again
    ks = [(1,), (2,), (1, 2), (2, 1, 3)]
    values = window_sums(ks, 450, 2, 50)
    assert list(values) == [p for p in sieve_primes(450) if p >= 5]
    for p, val in values.items():
        assert val == {k: finite_mzv(k, p, 2, 50) for k in ks}, p


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=3).map(tuple),
       st.lists(st.lists(st.integers(1, 5), max_size=3).map(tuple), max_size=4),
       st.integers(0, 60), st.integers(1, 3), st.integers(0, 3))
def test_pass_values_do_not_depend_on_the_other_indices(k, others, p_max, n, a):
    # the largest part K and the trie come from every index of the pass, the
    # empty index and repeated ones among them; a residue must not see them
    alone = window_sums([k], p_max, n, a)
    shared = window_sums(others + [k, (), k] + others, p_max, n, a)
    assert list(alone) == list(shared) == [p for p in sieve_primes(p_max) if p >= 5 and p > n]
    assert all(shared[p][k] == alone[p][k] and shared[p][()] == 1 for p in alone)
    assert all(shared[p][l] == window_sums([l], p_max, n, a)[p][l] for l in others for p in alone)
    if p_max < 5:
        assert alone == shared == {}


def test_star():
    got = finite_mzv_star((1, 1), 7, 1, 0)
    want = (finite_mzv((1, 1), 7, 1, 0) + finite_mzv((2,), 7, 1, 0)) % 7
    assert got == want
    assert finite_mzv_star((2,), 11, 1, 0) == finite_mzv((2,), 11, 1, 0)
    brute = sum(finite_mzv_bruteforce(l, 7, 1, 0)
                for l in (Index((1, 1)), Index((2,)))) % 7
    assert got == brute


def test_not_reversal_symmetric():
    assert finite_mzv((1, 2), 11, 1, 0) != finite_mzv((2, 1), 11, 1, 0)


def test_stuffle_scan():
    pairs = [(Index((1,)), Index((1,)))]
    report = scan_stuffle(pairs, 100, 2)
    assert report.all_pass and len(report.results) == 23
    report = scan_stuffle([(Index((1,)), Index((2,)))], 100, 2)
    assert report.all_pass
    report = scan_stuffle([], 50, 1)
    assert not report.all_pass and report.results == []


@pytest.mark.parametrize("n", [0, -1])
def test_a_modulus_exponent_below_one_is_refused(n):
    # mod p^0 = 1 every residue is 0, so a stuffle scan would pass every prime
    with pytest.raises(ValueError, match="n >= 1"):
        window_sums([(1,), (2,)], 60, n)
    with pytest.raises(ValueError, match="n >= 1"):
        scan_stuffle([(Index((1,)), Index((2,)))], 60, n)


def test_a_negative_window_is_refused():
    with pytest.raises(ValueError, match="a >= 0"):
        window_sums([(1,), (2,)], 60, 1, -1)


def test_stuffle_identity_by_hand():
    # finite(1)^2 = 2 finite(1,1) + finite(2) mod 49
    p, n = 7, 2
    lhs = finite_mzv((1,), p, n) ** 2 % 49
    rhs = (2 * finite_mzv((1, 1), p, n) + finite_mzv((2,), p, n)) % 49
    assert lhs == rhs


def test_shift_scan():
    r = scan_shift_expansion(Index((1,)), 1, 60, 1)
    assert r.all_pass  # only the zero-shift term survives mod p
    r = scan_shift_expansion(Index((2,)), 1, 120, 2)
    assert r.all_pass
    r = scan_shift_expansion(Index((1, 2)), 2, 80, 2)
    assert r.all_pass
    with pytest.raises(ValueError):
        scan_shift_expansion(Index((1,)), 0, 50, 1)


def test_wolstenholme_small():
    r = scan_wolstenholme(500)
    assert r.all_pass
    assert len(r.results) == len([p for p in sieve_primes(500) if p >= 5])


def test_csv_format():
    report = ScanReport("stuffle", "(1)x(1)", results=[(5, True), (7, False)])
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "prime,relation,params,pass"
    assert lines[1] == "5,stuffle,(1)x(1),1"
    assert lines[2] == "7,stuffle,(1)x(1),0"
    assert lines[3] == "total,2,passed,1,failed,1"
    assert not report.all_pass


if __name__ == "__main__":
    # re-record the golden residues (only when a value change is intended)
    GOLDEN_RESIDUES.parent.mkdir(exist_ok=True)
    GOLDEN_RESIDUES.write_text("\n".join(golden_residues()) + "\n", encoding="utf-8")
    sys.exit(0)
