"""Degree-truncated noncommutative series over X0, X1 and the KZ machinery.

``NcSeries`` is a degree-bounded ``NcPoly`` with high-precision complex
coefficients: it adds only the bound, a product truncated beyond it, exp
and conjugation.  Letter substitution, eps and reversal are the ``NcPoly``
operations of ``words`` and keep the bound.  The generating
series of regularized values places Z_T(e_{a1}...e_{an}) on the reversed
word X_{an}...X_{a1}; consequently the pairing (plain coefficient
extraction, same letter order on both sides) satisfies
<Phi, w> = Z_T(reverse w).  That reversal is the most error-prone
convention here and is pinned by dedicated tests.

The module builds the shuffle associator (regularized at T = 0), its
letter-substituted and conjugated variants, the five-factor dressed series
used for refined symmetric values, and the residual checkers for the cycle
relations, the factorization identities and refined duality.  Symmetric
values read the flanked coefficients e0^i e_k e1 e0^j straight from a
series as an (s,t) grid.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from mpmath import mp

from .indices import Index, coarsenings, hoffman_dual
from .numeric import _GUARD, eval_zeta_poly, mzv, residual, to_mp
from .regularization import Z_reg_full, _z_reg_full_word, gamma0_coeffs
from .rings import BiSeries
from .stadic import stadic_smzv
from .words import E0, E1, HARMONIC, SHUFFLE, SWAP, NcPoly, Word, word_of_index


# The real parameter at which the numeric series checks compare phi(T).
SAMPLE_T = Fraction(7, 10)


class TruncationError(ValueError):
    """A pairing or expansion would silently lose terms beyond the degree."""


class NcSeries(NcPoly):
    """Truncated series over words in two letters with complex coefficients."""

    __slots__ = ("deg",)

    def __init__(self, deg: int, terms: dict[Word, object] | None = None):
        self.deg = deg
        self.terms = {w: c for w, c in (terms or {}).items() if c and len(w) <= deg}

    def _new(self, terms: dict) -> "NcSeries":
        out = super()._new(terms)
        out.deg = self.deg
        return out

    def _coerce(self, other: "NcSeries") -> "NcSeries":
        self._check(other)
        return other

    @classmethod
    def const(cls, deg: int, c=1) -> "NcSeries":
        return cls(deg, {(): mp.mpf(1) * c})

    @classmethod
    def letter(cls, deg: int, a: int, c=1) -> "NcSeries":
        return cls(deg, {(a,): mp.mpf(1) * c})

    def __mul__(self, other: "NcSeries") -> "NcSeries":
        self._check(other)
        deg = self.deg
        out = self._new({})
        out._accumulate((w1 + w2, c1 * c2)
                        for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()
                        if len(w1) + len(w2) <= deg)
        return out

    def exp(self) -> "NcSeries":
        """exp of a series with no constant term, truncated at the degree."""
        if () in self.terms:
            raise ValueError("exponent series must have no constant term")
        out = NcSeries.const(self.deg)
        power = NcSeries.const(self.deg)
        for n in range(1, self.deg + 1):
            power = power * self
            out += power.scale(mp.mpf(1) / factorial(n))
        return out

    def conj(self) -> "NcSeries":
        return self._new({w: mp.conj(c) for w, c in self.terms.items()})

    def _check(self, other):
        if self.deg != other.deg:
            raise ValueError("degree bounds do not match")

    def __repr__(self) -> str:
        pieces = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            body = "".join(f"X{a}" for a in w) or "1"
            pieces.append(f"({mp.nstr(self.terms[w], 8)})*{body}")
        return " + ".join(pieces) or "0"

    __str__ = __repr__


# substitution images
IMG_SWAP = SWAP                                        # (X1, X0)
IMG_INF_0 = {E0: ((E0, -1), (E1, -1)), E1: ((E0, 1),)}   # (X_inf, X0)
IMG_INF_1 = {E0: ((E0, -1), (E1, -1)), E1: ((E1, 1),)}   # (X_inf, X1)
IMG_1_INF = {E0: ((E1, 1),), E1: ((E0, -1), (E1, -1))}   # (X1, X_inf)


_PHI_CACHE: dict[tuple, NcSeries] = {}
_PHI_RS_CACHE: dict[tuple[int, int], NcSeries] = {}


def phi(product: str, T, D: int, prec: int) -> NcSeries:
    """Generating series of regularized values at parameter T.

    The coefficient of the word X_{b1}...X_{bn} is Z_T of the reversed
    letter word e_{bn}...e_{b1}.
    """
    key = (product, repr(T), D, prec)
    cached = _PHI_CACHE.get(key)
    if cached is not None:
        return cached
    with mp.workdps(prec + _GUARD):
        tval = to_mp(T)
        terms: dict[Word, object] = {}
        for n in range(D + 1):
            for w in itertools.product((E0, E1), repeat=n):
                zp = _z_reg_full_word(w[::-1], product)
                if not zp:
                    continue
                c = eval_zeta_poly(zp, {"T": tval}, prec)
                if c:
                    terms[w] = c
        series = NcSeries(D, terms)
    _PHI_CACHE[key] = series
    return series


def phi_kz(D: int, prec: int) -> NcSeries:
    """The shuffle associator: phi at product = shuffle, T = 0."""
    return phi(SHUFFLE, 0, D, prec)


def phi_ad(product: str, T1, T2, D: int, prec: int) -> NcSeries:
    """eps(phi(T1)) X1 phi(T2)."""
    with mp.workdps(prec + _GUARD):
        x1 = NcSeries.letter(D, E1)
        return phi(product, T1, D, prec).eps() * x1 * phi(product, T2, D, prec)


def phi_rs(D: int, prec: int) -> NcSeries:
    """exp(pi i X0/2) KZ(X1,X0) exp(2 pi i X1) KZ(X0,X1) exp(pi i X0/2)."""
    key = (D, prec)
    if key not in _PHI_RS_CACHE:
        with mp.workdps(prec + _GUARD):
            kz = phi_kz(D, prec)
            half = NcSeries.letter(D, E0, mp.pi * mp.mpc(0, 1) / 2).exp()
            mid = NcSeries.letter(D, E1, 2 * mp.pi * mp.mpc(0, 1)).exp()
            _PHI_RS_CACHE[key] = half * kz.subst(IMG_SWAP) * mid * kz * half
    return _PHI_RS_CACHE[key]


def pair(series: NcSeries, u: NcPoly):
    """Coefficient extraction <series, u>, word for word in the same order.

    Words longer than the degree bound raise rather than truncate.
    """
    total = mp.mpf(0)
    for w, c in u.terms.items():
        if len(w) > series.deg:
            raise TruncationError(
                f"word of length {len(w)} exceeds the degree bound {series.deg}")
        total += series.coeff(w) * to_mp(c)
    return total


def _degree(wt: int, orders: tuple[int, int]) -> int:
    """Length of the longest flanked word e0^i e_k e1 e0^j a pairing reads."""
    return wt + 1 + orders[0] + orders[1]


def _budget(wt: int, orders: tuple[int, int], D: int) -> None:
    need = _degree(wt, orders)
    if need > D:
        raise TruncationError(f"degree budget {D} too small; need {need}")


def _flanked_pairing(series: NcSeries, k: Index, orders: tuple[int, int]) -> BiSeries:
    """<series, (1 + e0 s)^(-1) e_k e1 (1 + e0 t)^(-1)> as an (s,t) grid.

    The (i, j) entry is (-1)^(i+j) times the coefficient of e0^i e_k e1 e0^j;
    callers check the degree budget first.
    """
    core = word_of_index(k) + (E1,)
    ms, mt = orders
    return BiSeries(ms, mt, [[(-1) ** (i + j) * series.coeff((E0,) * i + core + (E0,) * j)
                              for j in range(mt + 1)] for i in range(ms + 1)])


def smzv_via_assoc(k: Index, product: str, T1, T2, orders: tuple[int, int],
                   prec: int) -> BiSeries:
    """Symmetric value through the adjoint series pairing."""
    k = Index(k)
    if k.depth == 0:
        raise ValueError("the pairing route needs a non-empty index")
    D = _degree(k.weight, orders)
    with mp.workdps(prec + _GUARD):
        series = phi_ad(product, T1, T2, D, prec)
        val = _flanked_pairing(series, k, orders)
        return val.scale(mp.mpf((-1) ** (k.weight + k.depth)))


def _exp_st_grid(orders: tuple[int, int], prec: int) -> BiSeries:
    """exp(-(s+t) pi i / 2) as a complex coefficient grid."""
    ms, mt = orders
    with mp.workdps(prec + _GUARD):
        base = -mp.pi * mp.mpc(0, 1) / 2
        grid = [[base ** (m + n) / (factorial(m) * factorial(n))
                 for n in range(mt + 1)] for m in range(ms + 1)]
        return BiSeries(ms, mt, grid)


def rsmzv(k: Index, orders: tuple[int, int], prec: int, D: int | None = None) -> BiSeries:
    """Refined symmetric value via the dressed associator pairing."""
    k = Index(k)
    if k.depth == 0:
        return _exp_st_grid(orders, prec)
    if D is None:
        D = _degree(k.weight, orders)
    _budget(k.weight, orders, D)
    with mp.workdps(prec + _GUARD):
        series = phi_rs(D, prec)
        val = _flanked_pairing(series, k, orders)
        scale = mp.mpf((-1) ** (k.weight + k.depth)) / (2 * mp.pi * mp.mpc(0, 1))
        return val.scale(scale)


def rsmzv_remark_route(k: Index, orders: tuple[int, int], prec: int) -> BiSeries:
    """The same value as exp(-(s+t) pi i/2) times the harmonic-product
    symmetric value at (T1, T2) = (pi i/2, -pi i/2)."""
    k = Index(k)
    with mp.workdps(prec + _GUARD):
        halfpi = mp.pi * mp.mpc(0, 1) / 2
        sym = stadic_smzv(k, HARMONIC, orders)
        num = sym.map(lambda p: eval_zeta_poly(p, {"T1": halfpi, "T2": -halfpi}, prec))
        return _exp_st_grid(orders, prec) * num


def rsmzv_star(k: Index, orders: tuple[int, int], prec: int, D: int | None = None) -> BiSeries:
    k = Index(k)
    if k.depth == 0:
        raise ValueError("star values need a non-empty index")
    with mp.workdps(prec + _GUARD):
        out = BiSeries.constant(mp.mpf(0), *orders)
        for l in coarsenings(k):
            out += rsmzv(l, orders, prec, D)
        return out


# ---------------------------------------------------------------------------
# residual checkers
# ---------------------------------------------------------------------------

def check_two_cycle(D: int, prec: int):
    with mp.workdps(prec + _GUARD):
        kz = phi_kz(D, prec)
        return residual(kz * kz.subst(IMG_SWAP), NcSeries.const(D), prec)


def check_three_cycle(D: int, prec: int):
    with mp.workdps(prec + _GUARD):
        kz = phi_kz(D, prec)
        pij = mp.pi * mp.mpc(0, 1)
        prod = (kz
                * NcSeries.letter(D, E0, pij).exp()
                * kz.subst(IMG_INF_0)
                * NcSeries(D, {(E0,): -pij, (E1,): -pij}).exp()
                * kz.subst(IMG_1_INF)
                * NcSeries.letter(D, E1, pij).exp())
        return residual(prod, NcSeries.const(D), prec)


def check_t_part(product: str, T, D: int, prec: int):
    """phi(T) = exp(-T X1) phi(0)."""
    with mp.workdps(prec + _GUARD):
        lhs = phi(product, T, D, prec)
        rhs = NcSeries.letter(D, E1, -to_mp(T)).exp() * phi(product, 0, D, prec)
        return residual(lhs, rhs, prec)


def check_gamma_factor(T, D: int, prec: int):
    """phi_shuffle(T) = Gamma0(X1) phi_harmonic(T)."""
    with mp.workdps(prec + _GUARD):
        lhs = phi(SHUFFLE, T, D, prec)
        gamma0 = NcSeries(D, {(E1,) * b: eval_zeta_poly(g, {}, prec)
                              for b, g in enumerate(gamma0_coeffs(D)) if g})
        rhs = gamma0 * phi(HARMONIC, T, D, prec)
        return residual(lhs, rhs, prec)


def check_independence_factor(T, D: int, prec: int):
    """The adjoint shuffle series factors through exp(sum zeta(2k)/k X1^2k)."""
    with mp.workdps(prec + _GUARD):
        lhs = phi_ad(SHUFFLE, 0, T, D, prec)
        mid = NcSeries(D, {(E1,) * (2 * kk): mzv((2 * kk,), prec) / kk
                           for kk in range(1, D // 2 + 1)}).exp()
        x1 = NcSeries.letter(D, E1)
        rhs = phi(HARMONIC, 0, D, prec).eps() * x1 * mid * phi(HARMONIC, T, D, prec)
        return residual(lhs, rhs, prec)


def check_phi_ad_translation(T1, T2, D: int, prec: int):
    """phi_ad(T1, T2) = phi_ad(0, T2 - T1) for the harmonic product."""
    with mp.workdps(prec + _GUARD):
        lhs = phi_ad(HARMONIC, T1, T2, D, prec)
        rhs = phi_ad(HARMONIC, 0, to_mp(T2) - to_mp(T1), D, prec)
        return residual(lhs, rhs, prec)


def check_duality_assoc(D: int, prec: int):
    """The dressed series at (X_inf, X0) is the conjugate of it at (X_inf, X1)."""
    with mp.workdps(prec + _GUARD):
        rs = phi_rs(D, prec)
        return residual(rs.subst(IMG_INF_0), rs.subst(IMG_INF_1).conj(), prec)


def check_pair_convention(n: int, k: Index, product: str, T, prec: int):
    """<phi(T), w> equals the regularized value of the reversed word."""
    k = Index(k)
    w = (E0,) * n + word_of_index(k)
    D = len(w)
    with mp.workdps(prec + _GUARD):
        series = phi(product, T, D, prec)
        lhs = pair(series, NcPoly.from_word(w))
        rhs = eval_zeta_poly(Z_reg_full(NcPoly.from_word(w[::-1]), product),
                             {"T": to_mp(T)}, prec)
        return residual(lhs, rhs, prec)


def check_rsmzv_routes(k: Index, orders: tuple[int, int], prec: int):
    """Pairing route against the adjoint-series route for the same value."""
    with mp.workdps(prec + _GUARD):
        return residual(rsmzv(k, orders, prec), rsmzv_remark_route(k, orders, prec), prec)


def check_smzv_routes(k: Index, orders: tuple[int, int], prec: int):
    """Direct harmonic symmetric value at T1 = T2 = 0 against the associator pairing."""
    k = Index(k)
    with mp.workdps(prec + _GUARD):
        tvals = {"T1": to_mp(0), "T2": to_mp(0)}
        direct = stadic_smzv(k, HARMONIC, orders).map(
            lambda p: eval_zeta_poly(p, tvals, prec))
        paired = smzv_via_assoc(k, HARMONIC, 0, 0, orders, prec)
        return residual(direct, paired, prec)


def check_refined_duality(k: Index, orders: tuple[int, int], prec: int):
    """Padded star generating function against its sign-flipped conjugate dual.

    Paddings by ones beyond the truncation orders multiply s or t past the
    grid, so the two generating functions are compared exactly on the grid.
    """
    k = Index(k)
    if k.depth == 0:
        raise ValueError("duality needs a non-empty index")
    ms, mt = orders
    D = _degree(k.weight + ms + mt, orders)     # the longest padding

    def side(idx: Index) -> BiSeries:
        acc = BiSeries.constant(mp.mpf(0), ms, mt)
        for m in range(ms + 1):
            for n in range(mt + 1):
                padded = Index((1,) * m + tuple(idx) + (1,) * n)
                acc += rsmzv_star(padded, orders, prec, D).shift(m, n)
        return acc

    with mp.workdps(prec + _GUARD):
        lhs = side(k)
        rhs = side(hoffman_dual(k)).map(lambda c: -mp.conj(c))
        return residual(lhs, rhs, prec)
