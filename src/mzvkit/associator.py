"""Degree-truncated noncommutative series over X0, X1 and the KZ machinery.

``NcSeries`` is a degree-bounded series over word codes (``words``) that
holds numeric coefficients as ints at the binary scale of its ``prec``,
``numeric._bits(prec)``, the scale of the store's ints, not at the working
precision; real and imaginary part share one int where pi i enters.  Its
product truncates beyond the bound, sums exact int products and rounds each
coefficient once.  Numbers become mpf or mpc again, exactly, only when a
coefficient or a residual is read; letter substitution, eps, reversal and
conjugation stay exact on the ints.  The generating series of regularized
values places Z_T(e_{a1}...e_{an}) on the reversed word X_{an}...X_{a1};
consequently the pairing (plain coefficient extraction, same letter order on
both sides) satisfies <Phi, w> = Z_T(reverse w).  That reversal is the most error-prone
convention here and is pinned by dedicated tests.

The module builds the shuffle associator (regularized at T = 0), its
letter-substituted and conjugated variants, the five-factor dressed series
used for refined symmetric values, and the residual checkers for the cycle
relations, the factorization identities and refined duality.  Each
coefficient of phi, the value of a word e0^n e_k, strips one e0 at a time
by the one-letter recursion from Z_T(e0) = 0, down to values Z_T(index).  A
non-admissible index takes its number from admissible values by the product
recursion T Z_T(head) = Z_T((1) * head), for the shuffle or the harmonic
product, so no symbolic regularization is built here.  Both recursions run
on the store's fixed-point ints at a rational T, once per word or index;
phi and the split products are built from those ints, and the powers of
pi i in both are the Gaussian ints of ``numeric._i_pi_power``.
``regularization`` solves both recursions over the zeta symbols: the checks
that compare phi with ``zeta_reg`` or ``stadic`` share the index expansions
(``indices.shifts``, ``indices.shuffle_one`` and ``indices.stuffle``) but
not the arithmetic, and the word route of the regularization tests is the
independent check of both.

Symmetric values read the flanked coefficients e0^i e_k e1 e0^j as an (s,t)
grid.  The pairings (``rsmzv``, ``smzv_via_assoc`` and the duality built on
them) read a product without building it: the coefficient of F1...Fr at a
word is the sum over the splits of the word into r consecutive pieces, and
each factor is read on the pieces (``numeric._SplitProduct``).  Their grids
hold ``numeric.Gaussian`` ints up to the residual, so no function here opens
an mpmath context.  The whole-series checks (cycles, factorizations,
``duality-assoc``) multiply ``NcSeries``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial
from numbers import Complex, Rational

from mpmath import mp

from .indices import Index, coarsenings, hoffman_dual, shifts, shuffle_one, stuffle
from .numeric import (Gaussian, _SplitProduct, _bits, _div, _fixed_mzv, _i_pi_power, _number,
                      _pi, _scaled, eval_zeta_poly, residual)
from .regularization import gamma0_coeffs
from .rings import BiSeries, LinearCombination, ZetaPoly, exp_coeffs
from .stadic import stadic_smzv
from .words import (E0, E1, HARMONIC, SHUFFLE, SWAP, Word, _subst_codes, code_of_word,
                    index_of_word, reversed_code, word_of_code, word_of_index)


# The real parameter at which the numeric series checks compare phi(T).
SAMPLE_T = Fraction(7, 10)


class NcSeries:
    """Truncated series over words in two letters.

    ``codes`` maps each word's code (``words.code_of_word``) to its
    coefficient; words are tuples only in the constructor, ``coeff``,
    ``terms`` (built when read) and the text form.  A series built with a
    ``prec`` holds each value v as the int round(v 2^bits) at the store's
    scale, bits = ``numeric._bits(prec)``: ints and Fractions are converted
    exactly, mpmath numbers through ``numeric._scaled``.  It holds a + bi as
    the one int a + b 2^k (``_k``, more than twice ``bits``), so sums,
    negation, ``subst`` and ``eps`` act on both parts at once.  A
    product of two such ints has the base-2^k digits a1 a2, a1 b2 + b1 a2 and
    b1 b2, from which ``_rounded`` reads and rounds both parts.  A NaN or
    infinite value stays an mpmath number, and so does every sum and product
    it enters.  A series built without ``prec`` is exact (bits = 0): it keeps
    its coefficients as given and refuses mpmath numbers.  The operands of
    ``*``, ``+`` and ``-`` share their degree and their bits, or raise
    ``ValueError``.
    """

    __slots__ = ("deg", "bits", "codes")

    def __init__(self, deg: int, terms: dict[Word, object] | None = None, prec: int | None = None):
        self.deg = deg
        self.bits = 0 if prec is None else _bits(prec)
        self.codes = {code_of_word(w): f for w, c in (terms or {}).items()
                      if len(w) <= deg and (f := self._fixed(c))}

    def _new(self, codes: dict) -> "NcSeries":
        out = object.__new__(type(self))
        out.deg, out.bits, out.codes = self.deg, self.bits, codes
        return out

    terms = property(lambda self: {word_of_code(w): c for w, c in self.codes.items()})

    @classmethod
    def const(cls, deg: int, prec: int | None = None) -> "NcSeries":
        return cls(deg, {(): 1}, prec)

    @property
    def _k(self) -> int:
        """The bit offset of imaginary parts: 2 deg + 64 bits above 2^(2 bits), as
        product sums reach about 2^(2 bits + deg) (measured up to deg 14)."""
        return 2 * (self.bits + self.deg) + 64

    def _fixed(self, c):
        """A number held at this series' bits: an int, or c itself when it is
        an mpmath number that is not finite or the series is exact."""
        if isinstance(c, Complex) and not isinstance(c, Rational):     # an mpf or mpc
            if not self.bits:
                raise TypeError("an exact series takes no mpmath number; build it with a prec")
            re, im = _scaled(c.real, self.bits), _scaled(c.imag, self.bits)
            return c if re is None or im is None else re + (im << self._k)
        return _div(c.numerator << self.bits, c.denominator) if self.bits else c

    def _rounded(self, sums: dict) -> dict:
        """Product sums, exact at scale 2^(2 bits), rounded to scale 2^bits, the
        zeros dropped."""
        shift, k = self.bits, self._k
        half, top = 1 << (shift - 1), 1 << (k - 1)
        out = {}
        for w, s in sums.items():
            if type(s) is int:
                if -top < s < top:                   # real
                    s = (s + half) >> shift
                else:
                    a, rest = _digits(s, k)
                    b, c = _digits(rest, k)
                    s = ((a - c + half) >> shift) + (((b + half) >> shift) << k)
            if s:
                out[w] = s
        return out

    def coeff(self, w: Word):
        """The coefficient of ``w`` as an exact mpf or mpc; 0 when the word is absent."""
        c = self.codes.get(code_of_word(w), 0)
        return _number(*_digits(c, self._k), self.bits) if self.bits and type(c) is int and c else c

    def largest(self):
        """The coefficients that are not finite, and the fixed-point one of
        largest modulus, found on the ints: only these can be largest."""
        if not self.bits:
            return self.codes.values()
        out = [c for c in self.codes.values() if type(c) is not int]
        fixed = [_digits(c, self._k) for c in self.codes.values() if type(c) is int]
        if fixed:
            out.append(_number(*max(fixed, key=lambda d: d[0] * d[0] + d[1] * d[1]), self.bits))
        return out

    def __mul__(self, other: "NcSeries") -> "NcSeries":
        """Truncated product.  ``fits[m]`` holds (length, code less its top bit,
        coefficient) of the right factor's words of length <= m in their order,
        so each left word meets only the partners it keeps (none past deg)."""
        self._check(other)
        deg = self.deg
        fits = [[] for _ in range(deg + 1)]
        for w, c in other.codes.items():
            n = w.bit_length() - 1
            for m in range(n, deg + 1):
                fits[m].append((n, w ^ 1 << n, c))
        sums = LinearCombination()._accumulate(
            (w1 << n2 | low2, c1 * c2) for w1, c1 in self.codes.items()
            if (n1 := w1.bit_length() - 1) <= deg for n2, low2, c2 in fits[deg - n1]).terms
        return self._new(self._rounded(sums) if self.bits else sums)

    def __add__(self, other: "NcSeries") -> "NcSeries":
        self._check(other)
        return self._new(LinearCombination(self.codes)._accumulate(other.codes.items()).terms)

    def __sub__(self, other: "NcSeries") -> "NcSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "NcSeries":
        """Every coefficient times c; a number that is not an int multiplies a
        fixed-point series as a constant series."""
        if self.bits and not isinstance(c, int):
            return self * self._new({1: self._fixed(c)})
        return self._new({w: v for w, x in self.codes.items() if (v := c * x)})

    __rmul__ = scale

    def subst(self, images: dict) -> "NcSeries":
        """The algebra endomorphism of ``words.NcPoly.subst``, on the codes."""
        return self._new(_subst_codes(self.codes, images))

    def reverse(self) -> "NcSeries":
        """Word-by-word reversal, no signs."""
        return self._new({reversed_code(w): c for w, c in self.codes.items()})

    def eps(self) -> "NcSeries":
        """Anti-automorphism e_i -> -e_i: reverse words, sign by length."""
        return self._new({reversed_code(w): -c if w.bit_length() % 2 == 0 else c  # odd length
                          for w, c in self.codes.items()})

    def conj(self) -> "NcSeries":
        """Complex conjugation; a fixed-point a + b 2^k becomes 2a - (a + b 2^k)."""
        return self._new({w: 2 * _digits(c, self._k)[0] - c if self.bits and type(c) is int
                          else mp.conj(c) for w, c in self.codes.items()})

    def _check(self, other):
        if self.deg != other.deg:
            raise ValueError("degree bounds do not match")
        if self.bits != other.bits:
            raise ValueError("fixed-point scales do not match")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.codes == other.codes

    def __bool__(self) -> bool:
        return bool(self.codes)

    def __repr__(self) -> str:
        pieces = []
        for word in map(word_of_code, sorted(self.codes)):   # by length, then as words
            body = "".join(f"X{a}" for a in word) or "1"
            pieces.append(f"({mp.nstr(self.coeff(word), 8)})*{body}")
        return " + ".join(pieces) or "0"

    __str__ = __repr__


def _digits(c: int, k: int) -> tuple[int, int]:
    """The signed digits (low, high) of c = low + high 2^k, |low| <= 2^(k-1)."""
    half = 1 << (k - 1)
    low = ((c + half) & ((half << 1) - 1)) - half
    return low, (c - low) >> k


def exp_linear(deg: int, r, letters: tuple[int, ...], prec: int) -> NcSeries:
    """exp(r pi i x), r rational and x the sum of ``letters``, in closed form:
    (r pi i)^n/n! on every word of length n over them, the Gaussian int that
    ``numeric._i_pi_power`` gives the split products too."""
    out = NcSeries(deg, prec=prec)
    powers = (_i_pi_power(r, n, out.bits) for n in range(deg + 1))
    terms = [re + (im << out._k) for re, im in powers]
    return out._new({code_of_word(w): terms[n] for n in range(deg + 1) if terms[n]
                     for w in itertools.product(letters, repeat=n)})


# substitution images
IMG_SWAP = SWAP                                        # (X1, X0)
IMG_INF_0 = {E0: ((E0, -1), (E1, -1)), E1: ((E0, 1),)}   # (X_inf, X0)
IMG_INF_1 = {E0: ((E0, -1), (E1, -1)), E1: ((E1, 1),)}   # (X_inf, X1)
IMG_1_INF = {E0: ((E1, 1),), E1: ((E0, -1), (E1, -1))}   # (X1, X_inf)


_PHI_CACHE: dict[tuple, NcSeries] = {}
_PHI_RS_CACHE: dict[tuple[int, int], NcSeries] = {}


# T x is a multiply by T's numerator, so T is an int or a Fraction; the caches
# of the recursions are typed, so an mpf equal to a cached T is refused too
@lru_cache(maxsize=None, typed=True)
def _zeta_reg_value(k: Index, product: str, T, prec: int):
    """The number Z_T(k) as an int scaled by 2^bits, bits = ``numeric._bits(prec)``
    (NaN if a stored value is not a finite decimal), by the product recursion.

    Z_T is an algebra homomorphism for either product with Z_T((1)) = T, so
    T Z_T(head) = sum c_l Z_T(l) over the expansion of (1) * head, where
    head = k[:-1], taken on indices (``shuffle_one`` or ``stuffle``).  k
    appears there with its number of trailing 1s as coefficient, and every
    other l has fewer, so the recursion ends at admissible indices, read
    from the store (``_fixed_mzv``).  At T = a/b it is one rounded division.
    """
    if not isinstance(T, (int, Fraction)):
        raise TypeError(f"T must be an int or a Fraction, not {type(T).__name__}")
    if k.admissible:
        return mp.nan if (value := _fixed_mzv(k, prec)) is None else value
    head = Index(k[:-1])
    terms = shuffle_one(head) if product == SHUFFLE else dict(stuffle((1,), head))
    rest = sum(c * _zeta_reg_value(l, product, T, prec) for l, c in terms.items() if l != k)
    return _div(T.numerator * _zeta_reg_value(head, product, T, prec) - T.denominator * rest,
                T.denominator * terms[k])


def _phi_coeff(w: Word, product: str, T, prec: int):
    """<phi(T), w> = Z_T(reverse w) = Z_T(e0^n e_k), an int (``_phi_index``)."""
    u = w[::-1]
    n = u.index(E1) if E1 in u else len(u)
    return _phi_index(n, index_of_word(u[n:]), product, T, prec)


@lru_cache(maxsize=None, typed=True)
def _phi_index(n: int, k: Index, product: str, T, prec: int):
    """Z_T(e0^n e_k), an int: (-1)^depth Z_T(k) at n = 0, and otherwise
    n Z_T(e0^n e_k) = -sum_i k_i Z_T(e0^(n-1) e_(k + delta_i)) with one rounded
    division, the one-letter recursion from Z_T(e0) = 0."""
    if not n:
        return (-1) ** k.depth * _zeta_reg_value(k, product, T, prec)
    return _div(-sum(c * _phi_index(n - 1, l, product, T, prec) for l, c in shifts(k, 1)), n)


def phi(product: str, T, D: int, prec: int) -> NcSeries:
    """Generating series of regularized values at T, an int or a Fraction.

    The coefficient of the word X_{b1}...X_{bn} is Z_T of the reversed
    letter word e_{bn}...e_{b1}, the int ``_phi_coeff`` at the series' scale.
    """
    key = (product, repr(T), D, prec)
    if key not in _PHI_CACHE:
        coeffs = (_phi_coeff(word_of_code(w), product, T, prec) for w in range(1, 2 << D))
        _PHI_CACHE[key] = NcSeries(D, prec=prec)._new({w: c for w, c in enumerate(coeffs, 1) if c})
    return _PHI_CACHE[key]


def phi_kz(D: int, prec: int) -> NcSeries:
    """The shuffle associator: phi at product = shuffle, T = 0."""
    return phi(SHUFFLE, 0, D, prec)


def phi_ad(product: str, T1, T2, D: int, prec: int) -> NcSeries:
    """eps(phi(T1)) X1 phi(T2)."""
    x1 = NcSeries(D, {(E1,): 1}, prec)
    return phi(product, T1, D, prec).eps() * x1 * phi(product, T2, D, prec)


def phi_rs(D: int, prec: int) -> NcSeries:
    """exp(pi i X0/2) KZ(X1,X0) exp(2 pi i X1) KZ(X0,X1) exp(pi i X0/2)."""
    key = (D, prec)
    if key not in _PHI_RS_CACHE:
        kz = phi_kz(D, prec)
        half = exp_linear(D, Fraction(1, 2), (E0,), prec)
        mid = exp_linear(D, 2, (E1,), prec)
        _PHI_RS_CACHE[key] = half * kz.subst(IMG_SWAP) * mid * kz * half
    return _PHI_RS_CACHE[key]


@cache
def _ad_product(product: str, T1, T2, prec: int) -> _SplitProduct:
    """phi_ad(T1, T2) = eps(phi(T1)) X1 phi(T2), read by splits."""
    bits = _bits(prec)
    eps_phi = (None, lambda u: ((-1) ** len(u) * _phi_coeff(u[::-1], product, T1, prec), 0))
    x1 = (E1, lambda u: (1 << bits, 0) if len(u) == 1 else (0, 0))
    phi_t2 = (None, lambda u: (_phi_coeff(u, product, T2, prec), 0))
    return _SplitProduct([eps_phi, x1, phi_t2], bits)


@cache
def _rs_product(prec: int) -> _SplitProduct:
    """phi_rs, read by splits; KZ(X1,X0) reads the swapped word."""
    bits = _bits(prec)
    half = (E0, lambda u: _i_pi_power(Fraction(1, 2), len(u), bits))
    swapped = (None, lambda u: (_phi_coeff(tuple(1 - a for a in u), SHUFFLE, 0, prec), 0))
    mid = (E1, lambda u: _i_pi_power(2, len(u), bits))
    kz = (None, lambda u: (_phi_coeff(u, SHUFFLE, 0, prec), 0))
    return _SplitProduct([half, swapped, mid, kz, half], bits)


def _flanked_pairing(series, k: Index, orders: tuple[int, int]) -> BiSeries:
    """<series, (1 + e0 s)^(-1) e_k e1 (1 + e0 t)^(-1)> as an (s,t) grid.

    The (i, j) entry is (-1)^(i+j) times the coefficient of e0^i e_k e1 e0^j,
    read through ``series.coeff``: a ``_SplitProduct`` reads every word
    exactly, an ``NcSeries`` must reach the longest word,
    weight(k) + 1 + s-order + t-order.
    """
    core = word_of_index(k) + (E1,)
    ms, mt = orders
    return BiSeries(ms, mt, [[(-1) ** (i + j) * series.coeff((E0,) * i + core + (E0,) * j)
                              for j in range(mt + 1)] for i in range(ms + 1)])


def smzv_via_assoc(k: Index, orders: tuple[int, int], prec: int) -> BiSeries:
    """Harmonic symmetric value at T1 = T2 = 0 through the adjoint series pairing."""
    k = Index(k)
    if k.depth == 0:
        raise ValueError("the pairing route needs a non-empty index")
    return _flanked_pairing(_ad_product(HARMONIC, 0, 0, prec), k, orders).scale(
        (-1) ** (k.weight + k.depth))


def rsmzv(k: Index, orders: tuple[int, int], prec: int) -> BiSeries:
    """Refined symmetric value via the dressed associator pairing, divided by
    2 pi i with one rounded division per part by 2 pi at 2^(bits + 16); at the
    empty index it is exp(-(s+t) pi i/2)."""
    k = Index(k)
    g = _bits(prec) + 16
    two_pi, unit = 2 * _pi(g), (-1) ** (k.weight + k.depth) << g
    return _flanked_pairing(_rs_product(prec), k, orders).map(
        lambda c: Gaussian(_div(unit * c.im, two_pi), _div(-unit * c.re, two_pi)))


def rsmzv_remark_route(k: Index, orders: tuple[int, int], prec: int) -> BiSeries:
    """The same value as exp(-(s+t) T1) times the harmonic-product symmetric
    value, an exact ``ZetaPoly`` grid evaluated once at (T1, T2) = (pi i/2, -pi i/2)."""
    ms, mt = orders
    T1 = ZetaPoly.tvar("T1")
    exp = BiSeries(ms, mt, [[T1 ** (m + n) * Fraction((-1) ** (m + n), factorial(m) * factorial(n))
                             for n in range(mt + 1)] for m in range(ms + 1)])
    half_pi_i = Gaussian(*_i_pi_power(Fraction(1, 2), 1, _bits(prec)))
    return (exp * stadic_smzv(Index(k), HARMONIC, orders)).map(
        lambda p: eval_zeta_poly(p, {"T1": half_pi_i, "T2": -half_pi_i}, prec))


# ---------------------------------------------------------------------------
# residual checkers
# ---------------------------------------------------------------------------

def _one_letter_series(coeffs, D: int, prec: int) -> NcSeries:
    """sum c_n X1^n over ``ZetaPoly`` coefficients, each evaluated once: the
    real parts of ``eval_zeta_poly`` are the series' ints."""
    values = enumerate(eval_zeta_poly(c, {}, prec).re for c in coeffs)
    return NcSeries(D, prec=prec)._new({code_of_word((E1,) * n): v for n, v in values if v})


def check_two_cycle(D: int, prec: int):
    kz = phi_kz(D, prec)
    return residual(kz * kz.subst(IMG_SWAP), NcSeries.const(D, prec), prec)


def check_three_cycle(D: int, prec: int):
    kz = phi_kz(D, prec)
    prod = (kz * exp_linear(D, 1, (E0,), prec)
            * kz.subst(IMG_INF_0) * exp_linear(D, -1, (E0, E1), prec)
            * kz.subst(IMG_1_INF) * exp_linear(D, 1, (E1,), prec))
    return residual(prod, NcSeries.const(D, prec), prec)


def check_t_part(product: str, T, D: int, prec: int):
    """phi(T) = exp(-T X1) phi(0), the exponential from the exact (-T)^n/n!."""
    exp = NcSeries(D, {(E1,) * n: Fraction(-T) ** n / factorial(n) for n in range(D + 1)}, prec)
    return residual(phi(product, T, D, prec), exp * phi(product, 0, D, prec), prec)


def check_gamma_factor(T, D: int, prec: int):
    """phi_shuffle(T) = Gamma0(X1) phi_harmonic(T)."""
    gamma0 = _one_letter_series(gamma0_coeffs(D), D, prec)
    return residual(phi(SHUFFLE, T, D, prec), gamma0 * phi(HARMONIC, T, D, prec), prec)


def check_independence_factor(T, D: int, prec: int):
    """The adjoint shuffle series factors through exp(sum zeta(2k)/k X1^2k)."""
    mid = _one_letter_series(exp_coeffs([ZetaPoly.zeta((n,)) / (n // 2) if n % 2 == 0 < n
                                         else ZetaPoly() for n in range(D + 1)]), D, prec)
    x1 = NcSeries(D, {(E1,): 1}, prec)
    rhs = phi(HARMONIC, 0, D, prec).eps() * x1 * mid * phi(HARMONIC, T, D, prec)
    return residual(phi_ad(SHUFFLE, 0, T, D, prec), rhs, prec)


def check_duality_assoc(D: int, prec: int):
    """The dressed series at (X_inf, X0) is the conjugate of it at (X_inf, X1)."""
    rs = phi_rs(D, prec)
    return residual(rs.subst(IMG_INF_0), rs.subst(IMG_INF_1).conj(), prec)


def check_rsmzv_routes(k: Index, orders: tuple[int, int], prec: int):
    """Pairing route against the adjoint-series route for the same value.  The
    empty index is refused: its value is the factor exp(-(s+t) pi i/2) alone,
    with no symmetric value for the two routes to compare."""
    if Index(k).depth == 0:
        raise ValueError("the pairing route needs a non-empty index")
    return residual(rsmzv(k, orders, prec), rsmzv_remark_route(k, orders, prec), prec)


def check_smzv_routes(k: Index, orders: tuple[int, int], prec: int):
    """Direct harmonic symmetric value at T1 = T2 = 0 against the associator
    pairing: the first reads the symbolic ``zeta_reg``, the second the
    numeric product recursion.  Both expand (1) * head by ``indices.stuffle``,
    so a fault there can pass here; the word-route test of ``zeta_reg`` is
    the independent check of that expansion."""
    direct = stadic_smzv(Index(k), HARMONIC, orders).map(
        lambda p: eval_zeta_poly(p, {"T1": 0, "T2": 0}, prec))
    return residual(direct, smzv_via_assoc(k, orders, prec), prec)


def check_refined_duality(k: Index, orders: tuple[int, int], prec: int):
    """Padded star generating function against its sign-flipped conjugate dual.

    Paddings by ones beyond the truncation orders multiply s or t past the
    grid, so the two generating functions are compared exactly on the grid.
    A padding's star value sums ``rsmzv`` over its coarsenings; paddings
    share coarsenings, so each distinct ``rsmzv`` value is computed once.
    """
    k = Index(k)
    if k.depth == 0:
        raise ValueError("duality needs a non-empty index")
    ms, mt = orders
    value = cache(lambda l: rsmzv(l, orders, prec))

    def side(idx: Index) -> BiSeries:
        acc = BiSeries.constant(0, ms, mt)
        for m, n in itertools.product(range(ms + 1), range(mt + 1)):
            for l in coarsenings(Index((1,) * m + tuple(idx) + (1,) * n)):
                acc += value(l).shift(m, n)
        return acc

    return residual(side(k), side(hoffman_dual(k)).map(lambda c: -c.conj()), prec)
