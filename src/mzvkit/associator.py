"""Degree-truncated noncommutative series over X0, X1 and the KZ machinery.

``NcSeries`` is a degree-bounded ``NcPoly``: a finitely supported map from
words over two letters to high-precision complex coefficients, with
multiplication truncated beyond a fixed degree bound.  The generating
series of regularized values places Z_T(e_{a1}...e_{an}) on the reversed
word X_{an}...X_{a1}; consequently the pairing (plain coefficient
extraction, same letter order on both sides) satisfies
<Phi, w> = Z_T(reverse w).  That reversal is the most error-prone
convention here and is pinned by dedicated tests.

The module builds the shuffle associator (regularized at T = 0), its
letter-substituted and conjugated variants, the five-factor dressed series
used for refined symmetric values, and the residual checkers for the cycle
relations, the factorization identities and refined duality.
"""

from __future__ import annotations

import itertools
from math import factorial, prod

from mpmath import mp

from .indices import Index, coarsenings, hoffman_dual
from .numeric import _GUARD, eval_zeta_poly, mzv, to_mp
from .regularization import Z_reg_full, _z_reg_full_word, gamma0_coeffs
from .rings import BiSeries
from .stadic import stadic_smzv
from .words import (
    E0, E1, HARMONIC, SHUFFLE, NcPoly, Word, geometric, word_of_index,
)


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

    def coeff(self, w: Word):
        return self.terms.get(tuple(w), mp.mpf(0))

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

    def reverse(self) -> "NcSeries":
        """Word-by-word reversal, no signs."""
        return self._new({w[::-1]: c for w, c in self.terms.items()})

    def eps(self) -> "NcSeries":
        """Anti-automorphism X_i -> -X_i: reverse words, sign by length."""
        return self._new({w[::-1]: c * (-1) ** len(w) for w, c in self.terms.items()})

    def conj(self) -> "NcSeries":
        return self._new({w: mp.conj(c) for w, c in self.terms.items()})

    def subst(self, images: dict[int, tuple[tuple[int, object], ...]]) -> "NcSeries":
        """Replace each letter by a linear combination of letters."""
        out = self._new({})
        for w, c in self.terms.items():
            out._accumulate((tuple(b for b, _ in choices), prod((m for _, m in choices), start=c))
                            for choices in itertools.product(*(images[a] for a in w)))
        return out

    def max_abs(self):
        if not self.terms:
            return mp.mpf(0)
        return max(abs(c) for c in self.terms.values())

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
IMG_SWAP = {E0: ((E1, 1),), E1: ((E0, 1),)}          # (X1, X0)
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

    Words longer than the degree bound raise rather than truncate.  The
    result is a complex scalar, or a complex BiSeries grid when ``u``
    carries BiSeries coefficients.
    """
    bs = None
    for w, c in u.terms.items():
        if len(w) > series.deg:
            raise TruncationError(
                f"word of length {len(w)} exceeds the degree bound {series.deg}")
        if isinstance(c, BiSeries):
            bs = c
    if bs is None:
        total = mp.mpf(0)
        for w, c in u.terms.items():
            phi_c = series.terms.get(w)
            if phi_c:
                total += phi_c * to_mp(c)
        return total
    grid = [[mp.mpf(0)] * (bs.mt + 1) for _ in range(bs.ms + 1)]
    for w, c in u.terms.items():
        phi_c = series.terms.get(w)
        if not phi_c:
            continue
        for i, j, entry in c.entries():
            if entry:
                grid[i][j] += phi_c * to_mp(entry)
    return BiSeries(bs.ms, bs.mt, grid)


def _budget(wt: int, orders: tuple[int, int], D: int) -> None:
    need = wt + 2 + orders[0] + orders[1]
    if need > D:
        raise TruncationError(f"degree budget {D} too small; need {need}")


def _flanked_word_poly(k: Index, orders: tuple[int, int]) -> NcPoly:
    """(1 + e0 s)^(-1) e_k e1 (1 + e0 t)^(-1) as a word polynomial."""
    core = NcPoly.from_word(word_of_index(k) + (E1,))
    return geometric(1, E0, "s", orders) * core * geometric(1, E0, "t", orders)


def smzv_via_assoc(k: Index, product: str, T1, T2, orders: tuple[int, int],
                   prec: int, D: int | None = None) -> BiSeries:
    """Symmetric value through the adjoint series pairing."""
    k = Index(k)
    if k.depth == 0:
        raise ValueError("the pairing route needs a non-empty index")
    if D is None:
        D = k.weight + 2 + orders[0] + orders[1]
    _budget(k.weight, orders, D)
    with mp.workdps(prec + _GUARD):
        series = phi_ad(product, T1, T2, D, prec)
        val = pair(series, _flanked_word_poly(k, orders))
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
        D = k.weight + 2 + orders[0] + orders[1]
    _budget(k.weight, orders, D)
    with mp.workdps(prec + _GUARD):
        series = phi_rs(D, prec)
        val = pair(series, _flanked_word_poly(k, orders))
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
    out = None
    for l in coarsenings(k):
        v = rsmzv(l, orders, prec, D)
        out = v if out is None else out + v
    return out


# ---------------------------------------------------------------------------
# residual checkers
# ---------------------------------------------------------------------------

def _residual_series(a: NcSeries, b: NcSeries):
    return (a - b).max_abs()


def check_two_cycle(D: int, prec: int):
    with mp.workdps(prec + _GUARD):
        kz = phi_kz(D, prec)
        return _residual_series(kz * kz.subst(IMG_SWAP), NcSeries.const(D))


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
        return _residual_series(prod, NcSeries.const(D))


def check_t_part(product: str, T, D: int, prec: int):
    """phi(T) = exp(-T X1) phi(0)."""
    with mp.workdps(prec + _GUARD):
        lhs = phi(product, T, D, prec)
        rhs = NcSeries.letter(D, E1, -to_mp(T)).exp() * phi(product, 0, D, prec)
        return _residual_series(lhs, rhs)


def check_gamma_factor(T, D: int, prec: int):
    """phi_shuffle(T) = Gamma0(X1) phi_harmonic(T)."""
    with mp.workdps(prec + _GUARD):
        lhs = phi(SHUFFLE, T, D, prec)
        gamma0 = NcSeries(D, {(E1,) * b: eval_zeta_poly(g, {}, prec)
                              for b, g in enumerate(gamma0_coeffs(D)) if g})
        rhs = gamma0 * phi(HARMONIC, T, D, prec)
        return _residual_series(lhs, rhs)


def check_independence_factor(T, D: int, prec: int):
    """The adjoint shuffle series factors through exp(sum zeta(2k)/k X1^2k)."""
    with mp.workdps(prec + _GUARD):
        lhs = phi_ad(SHUFFLE, 0, T, D, prec)
        mid = NcSeries(D, {(E1,) * (2 * kk): mzv((2 * kk,), prec) / kk
                           for kk in range(1, D // 2 + 1)}).exp()
        x1 = NcSeries.letter(D, E1)
        rhs = phi(HARMONIC, 0, D, prec).eps() * x1 * mid * phi(HARMONIC, T, D, prec)
        return _residual_series(lhs, rhs)


def check_phi_ad_translation(T1, T2, D: int, prec: int, product: str = HARMONIC):
    """phi_ad(T1, T2) = phi_ad(0, T2 - T1)."""
    with mp.workdps(prec + _GUARD):
        lhs = phi_ad(product, T1, T2, D, prec)
        rhs = phi_ad(product, 0, to_mp(T2) - to_mp(T1), D, prec)
        return _residual_series(lhs, rhs)


def check_duality_assoc(D: int, prec: int):
    """The dressed series at (X_inf, X0) is the conjugate of it at (X_inf, X1)."""
    with mp.workdps(prec + _GUARD):
        rs = phi_rs(D, prec)
        return _residual_series(rs.subst(IMG_INF_0), rs.subst(IMG_INF_1).conj())


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
        return abs(lhs - rhs)


def check_rsmzv_routes(k: Index, orders: tuple[int, int], prec: int):
    """Pairing route against the adjoint-series route for the same value."""
    with mp.workdps(prec + _GUARD):
        a = rsmzv(k, orders, prec)
        b = rsmzv_remark_route(k, orders, prec)
        diff = a - b
        return max(abs(entry) for _, _, entry in diff.entries())


def check_smzv_routes(k: Index, orders: tuple[int, int], prec: int,
                      product: str = HARMONIC, T1=0, T2=0):
    """Direct symmetric value against the associator pairing."""
    k = Index(k)
    with mp.workdps(prec + _GUARD):
        tvals = {"T1": to_mp(T1), "T2": to_mp(T2)}
        direct = stadic_smzv(k, product, orders).map(
            lambda p: eval_zeta_poly(p, tvals, prec))
        paired = smzv_via_assoc(k, product, T1, T2, orders, prec)
        diff = direct - paired
        return max(abs(entry) for _, _, entry in diff.entries())


def check_refined_duality(k: Index, orders: tuple[int, int], prec: int):
    """Padded star generating function against its sign-flipped conjugate dual.

    Paddings by ones beyond the truncation orders multiply s or t past the
    grid, so the two generating functions are compared exactly on the grid.
    """
    k = Index(k)
    if k.depth == 0:
        raise ValueError("duality needs a non-empty index")
    ms, mt = orders
    D = k.weight + ms + mt + 2 + ms + mt

    def side(idx: Index) -> BiSeries:
        acc = None
        for m in range(ms + 1):
            for n in range(mt + 1):
                padded = Index((1,) * m + tuple(idx) + (1,) * n)
                v = rsmzv_star(padded, orders, prec, D).shift(m, n)
                acc = v if acc is None else acc + v
        return acc

    with mp.workdps(prec + _GUARD):
        lhs = side(k)
        rhs = side(hoffman_dual(k)).map(lambda c: -mp.conj(c))
        diff = lhs - rhs
        return max(abs(entry) for _, _, entry in diff.entries())
