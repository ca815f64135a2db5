import functools
import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from mzvkit import words
from mzvkit.associator import IMG_1_INF, IMG_INF_0, IMG_INF_1, IMG_SWAP, NcSeries
from mzvkit.indices import EMPTY, Index, shuffle_one, stuffle
from mzvkit.rings import BiSeries
from mzvkit.words import (
    E0, E1, SWAP, NcPoly, antipode, code_of_word, coproduct, embed, geometric, harmonic,
    in_h0, in_h1, index_of_word, lift_biseries, reversed_code, shuffle, shuffle_shifted,
    sigma_t, telescope_sides, word_of_code, word_of_index,
)
from support import indices_up_to, words_up_to

W = NcPoly.from_word


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def shuffle_by_interleavings(w1, w2):
    """Every choice of the positions of w1's letters among len(w1) + len(w2),
    counted once: independent of the recursion on last letters."""
    n = len(w1) + len(w2)
    out = {}
    for positions in itertools.combinations(range(n), len(w1)):
        first, second = iter(w1), iter(w2)
        w = tuple(next(first) if p in positions else next(second) for p in range(n))
        out[w] = out.get(w, 0) + 1
    return out


def shuffle_oracle(w1, w2):
    """Two-term recursion, written on dicts apart from the kernel."""
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    out = {}
    for w, c in shuffle_oracle(w1[:-1], w2).items():
        out[w + w1[-1:]] = out.get(w + w1[-1:], 0) + c
    for w, c in shuffle_oracle(w1, w2[:-1]).items():
        out[w + w2[-1:]] = out.get(w + w2[-1:], 0) + c
    return out


def stuffle_index_oracle(k, l):
    """Head-recursion on indices, independent of the word-level transport."""
    if not k:
        return {Index(l): 1}
    if not l:
        return {Index(k): 1}
    out = {}

    def add(prefix, terms):
        for idx, c in terms.items():
            key = Index((prefix,) + tuple(idx))
            out[key] = out.get(key, 0) + c

    add(k[0], stuffle_index_oracle(k[1:], l))
    add(l[0], stuffle_index_oracle(k, l[1:]))
    add(k[0] + l[0], stuffle_index_oracle(k[1:], l[1:]))
    return out


def index_terms(u):
    """An H1 polynomial read back as indices: e_k gives (-1)^depth k."""
    return {(k := index_of_word(w)): (-1) ** k.depth * c for w, c in u.terms.items()}


def index_harmonic(k, l):
    """The stuffle by the word route: multiply the signed words, read back."""
    return index_terms(harmonic(embed(k), embed(l)))


def _last_block(w):
    """Split an H1 word as (head, k) where the word ends in e1 e0^(k-1)."""
    i = len(w) - 1
    while w[i] == E0:
        i -= 1
    return w[:i], len(w) - i


@functools.cache
def harmonic_words_by_blocks(w1, w2):
    """Signed quasi-shuffle of two H1 words by the recursion on last blocks,
    independent of ``indices.stuffle``:
    u.B(k) * v.B(l) = (u.B(k) * v).B(l) + (u * v.B(l)).B(k) - (u * v).B(k+l).
    """
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    u1, k = _last_block(w1)
    u2, l = _last_block(w2)
    out = {}
    for terms, suffix_k, sign in ((harmonic_words_by_blocks(w1, u2), l, 1),
                                  (harmonic_words_by_blocks(u1, w2), k, 1),
                                  (harmonic_words_by_blocks(u1, u2), k + l, -1)):
        suffix = (E1,) + (E0,) * (suffix_k - 1)
        for w, c in terms.items():
            out[w + suffix] = out.get(w + suffix, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def subst_reference(u, images):
    """Word-by-word expansion: every choice of one image term per letter."""
    out = {}
    for w, c in u.terms.items():
        for choices in itertools.product(*(images[a] for a in w)):
            key = tuple(b for b, _ in choices)
            out[key] = out.get(key, 0) + c * prod(m for _, m in choices)
    return NcPoly(out)


def truncated_product_reference(u, v, deg):
    """The untruncated concatenation product, truncated afterwards."""
    return NcSeries(deg, (NcPoly(u.terms) * NcPoly(v.terms)).terms)


def truncated_sum(k, n_max):
    """Exact partial nested harmonic sum with indices below n_max."""
    total = Fraction(0)

    def rec(depth, lower, acc):
        nonlocal total
        if depth == len(k):
            total += acc
            return
        for m in range(lower + 1, n_max):
            rec(depth + 1, m, acc / Fraction(m) ** k[depth])

    rec(0, 0, Fraction(1))
    return total


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_word_index_bijection():
    assert word_of_index(EMPTY) == ()
    assert word_of_index(Index((2,))) == (E1, E0)
    assert word_of_index(Index((1, 2))) == (E1, E1, E0)
    for w in words_up_to(7, h1_only=True):
        assert word_of_index(index_of_word(w)) == w


def test_membership_predicates():
    assert in_h1(()) and in_h0(())
    assert in_h1((E1, E1)) and not in_h0((E1, E1))
    assert in_h0((E1, E0)) and not in_h1((E0,))


def test_embed_signs():
    assert embed(EMPTY) == NcPoly.one()
    assert embed(Index((1, 2))).coeff([E1, E1, E0]) == 1 and embed(EMPTY).coeff((E1,)) == 0
    assert embed(Index((2,))) == W((E1, E0), Fraction(-1))
    assert embed(Index((1, 2))) == W((E1, E1, E0))


def test_harmonic_examples():
    e1 = W((E1,))
    assert harmonic(e1, e1) == NcPoly({(E1, E1): Fraction(2), (E1, E0): Fraction(-1)})
    assert harmonic(NcPoly.one(), W((E1, E0, E1))) == W((E1, E0, E1))
    combo = index_harmonic(Index((1,)), Index((2,)))
    assert combo == {Index((1, 2)): 1, Index((2, 1)): 1, Index((3,)): 1}
    with pytest.raises(ValueError):
        harmonic(W((E0,)), e1)


def test_shuffle_examples():
    e1 = W((E1,))
    assert shuffle(e1, e1) == NcPoly({(E1, E1): Fraction(2)})
    assert shuffle(e1, W((E1, E0))) == NcPoly(
        {(E1, E1, E0): Fraction(2), (E1, E0, E1): Fraction(1)})
    assert shuffle(NcPoly.one(), W((E0, E1))) == W((E0, E1))


def test_shuffle_against_recursive_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n1, n2 = rng.randint(0, 4), rng.randint(0, 4)
        w1 = tuple(rng.randint(0, 1) for _ in range(n1))
        w2 = tuple(rng.randint(0, 1) for _ in range(n2))
        got = shuffle(W(w1), W(w2))
        want = NcPoly({w: Fraction(c) for w, c in shuffle_oracle(w1, w2).items()})
        assert got == want


def test_shuffle_kernel_against_the_interleavings():
    # every word pair of total length <= 8
    pairs = 0
    for w1 in words_up_to(8):
        for w2 in words_up_to(8 - len(w1)):
            pairs += 1
            assert dict(words._shuffle_words(w1, w2)) == shuffle_by_interleavings(w1, w2), (w1, w2)
    assert pairs == 4097


def test_stuffle_against_index_oracle():
    # every pair of total weight <= 8, against the first-part recursion on
    # indices and the signed last-block recursion on words
    ks = list(indices_up_to(8))
    pairs = 0
    for k in ks:
        for l in ks:
            if k.weight + l.weight > 8:
                continue
            pairs += 1
            got = dict(stuffle(k, l))
            assert all(type(c) is int for c in got.values())
            assert got == stuffle_index_oracle(tuple(k), tuple(l)), (k, l)
            by_blocks = harmonic_words_by_blocks(word_of_index(k), word_of_index(l))
            sign = (-1) ** (k.depth + l.depth)
            assert {index_of_word(w): sign * (-1) ** index_of_word(w).depth * c
                    for w, c in by_blocks.items()} == got, (k, l)
    assert pairs == 1280


def test_shuffle_one_against_the_word_route():
    # (1) sh head of the product recursion, for every head of weight <= 10
    heads = list(indices_up_to(10))
    assert len(heads) == 1024
    for head in heads:
        assert shuffle_one(head) == index_terms(shuffle(embed(Index((1,))), embed(head))), head


def test_every_term_of_the_index_expansions_is_a_valid_index():
    # (1) sh head and (1) * head build their terms without checking the parts
    # again; checking them here must change nothing
    for head in indices_up_to(8):
        for terms in (shuffle_one(head), dict(stuffle(Index((1,)), head))):
            for l in terms:
                assert type(l) is Index and Index(tuple(l)) == l, (head, l)
                assert l.weight == head.weight + 1, (head, l)


def test_stuffle_against_truncated_sums():
    n_max = 25
    for k, l in [((1,), (2,)), ((2,), (2,)), ((1, 1), (2,)), ((1, 2), (1,))]:
        lhs = truncated_sum(k, n_max) * truncated_sum(l, n_max)
        rhs = Fraction(0)
        for idx, c in index_harmonic(Index(k), Index(l)).items():
            rhs += c * truncated_sum(tuple(idx), n_max)
        assert lhs == rhs


def test_products_commutative_associative_random():
    rng = random.Random(20250811)

    def random_h1_poly():
        out = NcPoly()
        for _ in range(rng.randint(1, 3)):
            wt = rng.randint(1, 4)
            idx = []
            while sum(idx) < wt:
                idx.append(rng.randint(1, wt - sum(idx)))
            out = out + W(word_of_index(Index(idx)), Fraction(rng.randint(-3, 3) or 1))
        return out

    for op in (harmonic, shuffle):
        for _ in range(6):
            u, v, w = random_h1_poly(), random_h1_poly(), random_h1_poly()
            assert op(u, v) == op(v, u)
            assert op(op(u, v), w) == op(u, op(v, w))


# ---------------------------------------------------------------------------
# geometric tails, shifted shuffle, sigma_t
# ---------------------------------------------------------------------------

def test_geometric():
    orders = (0, 2)
    g = geometric(1, "t", orders)
    assert set(g.terms) == {(), (E0,), (E0, E0)}
    assert g.terms[(E0,)] == BiSeries.monomial(Fraction(-1), 0, 1, 0, 2)
    assert g.terms[(E0, E0)] == BiSeries.monomial(Fraction(1), 0, 2, 0, 2)
    g0 = geometric(1, "t", (0, 0))
    assert set(g0.terms) == {()}
    gm = geometric(-1, "s", (1, 0))
    assert gm.terms[(E0,)] == BiSeries.monomial(Fraction(1), 1, 0, 1, 0)


def test_shuffle_shifted_order0_is_shuffle():
    orders = (0, 0)
    u = lift_biseries(W((E1,)), orders)
    v = lift_biseries(W((E1, E0)), orders)
    got = shuffle_shifted(u, v, orders)
    want = shuffle(u, v)
    assert got == want


def test_shuffle_shifted_unit():
    orders = (2, 0)
    one = lift_biseries(NcPoly.one(), orders)
    v = lift_biseries(W((E1,)), orders)
    assert shuffle_shifted(one, v, orders) == v


def test_shuffle_shifted_mixed_law():
    # (u sh v) sh_s w == u sh_s (v sh_s w), while sh_s itself is not associative
    orders = (2, 0)
    u = lift_biseries(W((E1,)), orders)
    v = lift_biseries(W((E1,)), orders)
    w = lift_biseries(W((E1,)), orders)
    lhs = shuffle_shifted(shuffle(u, v), w, orders)
    rhs = shuffle_shifted(u, shuffle_shifted(v, w, orders), orders)
    assert lhs == rhs
    assert shuffle_shifted(shuffle_shifted(u, v, orders), w, orders) != lhs


def test_h1_closed_under_shifted_shuffle():
    orders = (2, 0)
    for kw in [(E1,), (E1, E0), (E1, E1, E0)]:
        for lw in [(E1,), (E1, E0)]:
            got = shuffle_shifted(lift_biseries(W(kw), orders),
                                  lift_biseries(W(lw), orders), orders)
            assert got.support_in_h1()


def test_sigma_t_examples():
    assert sigma_t(NcPoly.one(), 2) == lift_biseries(NcPoly.one(), (0, 2))
    got = sigma_t(W((E1,)), 2)
    assert got == NcPoly({
        (E1,): BiSeries.monomial(Fraction(1), 0, 0, 0, 2),
        (E1, E0): BiSeries.monomial(Fraction(-1), 0, 1, 0, 2),
        (E1, E0, E0): BiSeries.monomial(Fraction(1), 0, 2, 0, 2),
    })


def _sigma_t_by_shift_vectors(u, order):
    """sigma_t by enumerating, for each word, every vector of e0 counts
    (j_1, ..., j_n) of total <= order put after its letters."""
    orders = (0, order)
    out = NcPoly()
    for w, c in u.terms.items():
        for extra in itertools.product(range(order + 1), repeat=len(w)):
            total = sum(extra)
            if total > order:
                continue
            new = []
            for letter, j in zip(w, extra):
                new.append(letter)
                new.extend([E0] * j)
            out.add_term(tuple(new), BiSeries.monomial(c * (-1) ** total, 0, total, *orders))
    return out


def test_sigma_t_equals_the_shift_vector_enumeration():
    for w in words_up_to(6):
        for order in range(4):
            u = W(w, Fraction(3, 7))
            got, want = sigma_t(u, order), _sigma_t_by_shift_vectors(u, order)
            assert got.terms.keys() == want.terms.keys(), (w, order)
            assert all(got.terms[v].terms == want.terms[v].terms for v in want.terms), (w, order)


def test_sigma_t_harmonic_homomorphism_small():
    e1 = W((E1,))
    e2 = W((E1, E0))
    for u, v in [(e1, e1), (e1, e2), (e2, e2)]:
        assert sigma_t(harmonic(u, v), 3) == harmonic(sigma_t(u, 3), sigma_t(v, 3))


def test_telescoping_lemma_small():
    for w in words_up_to(3):
        lhs, rhs = telescope_sides(w, (1, 1))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Hopf structure and endomorphisms
# ---------------------------------------------------------------------------

def counit(u):
    return u.terms.get((), 0)


def endo_tau(u):
    """Swap e0 and e1."""
    return u.subst(SWAP)


def endo_S(u, tau):
    """Algebra endomorphism e1 -> e1 + tau e0, e0 -> e0."""
    return u.subst({E0: ((E0, 1),), E1: ((E1, 1), (E0, Fraction(tau)))})


def endo_A(u, tau):
    """Algebra endomorphism e1 -> tau e0, e0 -> e0."""
    return u.subst({E0: ((E0, 1),), E1: ((E0, Fraction(tau)),)})


def endo_C(u):
    """Sum of all letter rotations of each word; the empty word maps to 0."""
    out = NcPoly()
    for w, c in u.terms.items():
        for j in range(1, len(w) + 1):
            out.add_term(w[j:] + w[:j], c)
    return out


def endo_H(u):
    """Strip a leading e1; words starting with e0 (and 1) map to 0."""
    out = NcPoly()
    for w, c in u.terms.items():
        if w and w[0] == E1:
            out.add_term(w[1:], c)
    return out


def test_coproduct_example():
    got = coproduct(W((E1, E1)))
    assert got == {
        ((), (E1, E1)): Fraction(1),
        ((E1,), (E1,)): Fraction(1),
        ((E1, E1), ()): Fraction(1),
    }


def test_counit():
    assert counit(NcPoly.one(Fraction(3))) == 3
    assert counit(W((E1,))) == 0


def test_antipode_examples():
    assert antipode(W((E1, E0))) == W((E1, E0), Fraction(-1))
    assert antipode(W((E1, E1))) == NcPoly(
        {(E1, E1): Fraction(1), (E1, E0): Fraction(-1)})


def test_antipode_axiom():
    # m(S (x) id) Delta = unit . counit, for the stuffle product
    for k in [EMPTY, Index((2,)), Index((1, 1)), Index((2, 1)), Index((1, 1, 2))]:
        u = W(word_of_index(k))
        acc = NcPoly()
        for (w1, w2), c in coproduct(u).items():
            acc = acc + harmonic(antipode(W(w1)), W(w2)).scale(c)
        assert acc == (NcPoly.one() if k.depth == 0 else NcPoly())


def test_endomorphisms():
    assert endo_tau(W((E1, E0))) == W((E0, E1))
    assert W((E1, E0)).eps() == W((E0, E1))              # (-1)^2 and reversal
    assert W((E1,)).eps() == W((E1,), Fraction(-1))
    assert endo_C(W((E1, E0))) == NcPoly({(E0, E1): Fraction(1), (E1, E0): Fraction(1)})
    assert endo_C(NcPoly.one()) == NcPoly()
    assert endo_H(W((E1, E0))) == W((E0,))
    assert endo_H(W((E0, E1))) == NcPoly()
    assert endo_H(NcPoly.one()) == NcPoly()
    assert endo_S(W((E1,)), Fraction(1)) == NcPoly({(E1,): Fraction(1), (E0,): Fraction(1)})
    assert endo_A(W((E1, E0)), Fraction(2)) == W((E0, E0), Fraction(2))
    assert endo_A(W((E0,)), Fraction(5)) == W((E0,))


def test_endo_S_group_law():
    # S^a composed with S^b is S^(a+b); A^tau = S^tau - S^0 on single letters
    rng = random.Random(3)
    for _ in range(10):
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        a, b = Fraction(1, 2), Fraction(1, 3)
        assert endo_S(endo_S(W(w), a), b) == endo_S(W(w), a + b)
        assert endo_S(endo_C(W(w)), a) == endo_C(endo_S(W(w), a))


# ---------------------------------------------------------------------------
# laws of substitution, eps and reversal (property tests)
# ---------------------------------------------------------------------------

# Derandomized and small: the same examples on every run, well under a second.
LAWS = settings(derandomize=True, max_examples=30, deadline=None, database=None)

_letters = st.sampled_from((E0, E1))
_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
polys = st.dictionaries(st.lists(_letters, max_size=4).map(tuple), _coeffs,
                        max_size=4).map(NcPoly)
_image = st.lists(st.tuples(_letters, _coeffs), min_size=1, max_size=2).map(tuple)
images = st.fixed_dictionaries({E0: _image, E1: _image})


@LAWS
@given(polys, polys, images)
def test_subst_is_multiplicative(u, v, img):
    assert (u * v).subst(img) == u.subst(img) * v.subst(img)


@LAWS
@given(polys, polys)
def test_eps_is_an_involutive_antiautomorphism(u, v):
    assert (u * v).eps() == v.eps() * u.eps()
    assert u.eps().eps() == u


@LAWS
@given(polys)
def test_reverse_is_an_involution(u):
    assert u.reverse().reverse() == u


@LAWS
@given(polys, images, st.integers(min_value=0, max_value=4))
def test_truncation_commutes_with_subst(u, img, deg):
    assert NcSeries(deg, u.terms).subst(img) == NcSeries(deg, u.subst(img).terms)


# ---------------------------------------------------------------------------
# substitution and the truncated product against references
# ---------------------------------------------------------------------------

_long_polys = st.dictionaries(st.lists(_letters, max_size=7).map(tuple), _coeffs,
                              max_size=6).map(NcPoly)


@LAWS
@given(_long_polys, images)
def test_subst_matches_the_word_by_word_expansion(u, img):
    assert u.subst(img) == subst_reference(u, img)


@LAWS
@given(st.data(), st.integers(min_value=0, max_value=5))
def test_truncated_product_matches_the_full_product_truncated(data, deg):
    top = data.draw(st.lists(_letters, min_size=deg, max_size=deg).map(tuple))
    left = {**data.draw(_long_polys).terms, top: Fraction(1, 3)}   # a left word of length deg
    u, v = NcSeries(deg, left), NcSeries(deg, data.draw(_long_polys).terms)
    got, want = u * v, truncated_product_reference(u, v, deg)
    assert list(got.terms.items()) == list(want.terms.items())     # same keys in the same order
    empty = NcSeries(deg)
    assert u * empty == empty and empty * v == empty and empty * empty == empty


def test_truncated_product_drops_a_left_word_beyond_the_degree():
    # NcSeries never builds one, but _new takes codes and does not check lengths
    u = NcSeries(2)._new({code_of_word((E0, E0, E0)): Fraction(1),
                          code_of_word((E1,)): Fraction(2)})
    v = NcSeries(2, {(): Fraction(1), (E0,): Fraction(5)})
    assert u * v == NcSeries(2, {(E1,): Fraction(2), (E1, E0): Fraction(10)})


def test_word_codes_read_back_through_the_series_operations():
    # every word of length <= 10, the empty word included, with its own
    # coefficient: the code keys of NcSeries against the tuple words of NcPoly
    words_ = list(words_up_to(10))
    terms = {w: Fraction(i + 1, 7) for i, w in enumerate(words_)}
    series, poly = NcSeries(10, terms), NcPoly(terms)
    assert sorted(series.codes) == list(range(1, 2 ** 11))
    for w in words_:
        code = code_of_word(w)
        assert word_of_code(code) == w and reversed_code(code) == code_of_word(w[::-1])
        assert series.coeff(w) == terms[w]
    assert series.terms == terms
    assert series.reverse().terms == poly.reverse().terms
    assert series.eps().terms == poly.eps().terms
    short = NcPoly({w: c for w, c in terms.items() if len(w) <= 7})
    for img in (IMG_SWAP, IMG_INF_0, IMG_INF_1, IMG_1_INF):
        assert series.subst(img).terms == poly.subst(img).terms
        # the word-by-word expansion, as an independent reference, on the shorter words
        assert NcSeries(7, short.terms).subst(img).terms == subst_reference(short, img).terms
