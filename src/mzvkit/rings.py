"""Sparse linear combinations and the scalar coefficient rings built on them.

* ``LinearCombination`` -- a finitely supported map from basis keys (words,
  monomials, exponent pairs) to nonzero coefficients.  It is the one sparse
  core under all four dict algebras of the package (``ZetaPoly``,
  ``BiSeries``, ``words.NcPoly``, ``associator.NcSeries``): zero-dropping
  construction, ``+``, ``-``, ``scale``, equality, a ``repr`` (type name
  and terms), and in-place accumulation (``+=``, ``-=``, ``add_term``,
  ``add_scaled``) through a single accumulate-and-drop-zeros loop.
* ``ZetaPoly`` -- commutative polynomials in formal zeta symbols ``Z[k]``
  (k an admissible index) and named indeterminates (``T``, ``T1``, ``T2``)
  with exact rational coefficients.  Equality is structural; no relation
  between zeta symbols is assumed.
* ``BiSeries`` -- a series in (s, t) truncated at orders (ms, mt), keyed by
  exponent pairs (i, j), with coefficients in any ring supporting ``+``,
  ``-``, ``*`` and ``bool``.  It adds to the core only what truncation
  needs: the truncating product, shifts and the orders.  A series in one
  variable is a ``BiSeries`` with ``ms = 0``.
* ``exp_coeffs`` -- the coefficients of exp(sum c_k x^k) in one variable,
  over any coefficient ring, by one recurrence.

Zero tests go through ``bool(x)``, which works for ``Fraction``, mpmath
numbers and the classes below.  Exact coefficients are ``int`` where the
arithmetic gives one and ``Fraction`` otherwise (the two compare, hash and
print alike); ``ZetaPoly.const`` keeps an ``int`` and converts only other
outside values to ``Fraction``, so that products stay in ``int`` arithmetic
where they can.  A constant ``ZetaPoly`` equals and hashes as its value.
The ZetaPoly product merges the exponents of two monomials only when both
have some in that part; an empty part leaves the other as it is.

In-place operations change only the container they are applied to, never a
coefficient object: coefficients may be shared between combinations.  An
accumulator must be a fresh object that its function created, never a value
handed out by a cache.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

# A monomial is (zpart, tpart):
#   zpart: tuple of (index_tuple, exponent), sorted by index_tuple
#   tpart: tuple of (name, exponent), sorted by name
Monomial = tuple[tuple, tuple]

_ONE_MONO: Monomial = ((), ())


def _merge_powers(a, b):
    """The product of two sorted power tuples; two one-factor parts, such as
    T1 against T2, merge without a dict (exponents are positive)."""
    if not a or not b:
        return a or b
    if len(a) == 1 == len(b):
        (x, e), (y, f) = a[0], b[0]
        if x == y:
            return ((x, e + f),)
        return (a[0], b[0]) if x < y else (b[0], a[0])
    d = {}
    for key, e in a:
        d[key] = d.get(key, 0) + e
    for key, e in b:
        d[key] = d.get(key, 0) + e
    return tuple(sorted((k, e) for k, e in d.items() if e))


class LinearCombination:
    """Finitely supported linear combination: basis key -> nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def _new(self, terms: dict):
        """A combination of the same kind over ``terms``, which hold no zeros."""
        out = object.__new__(type(self))
        out.terms = terms
        return out

    def _coerce(self, other):
        """The operand of ``+``/``-`` as a combination of the same kind."""
        return other

    def _accumulate(self, items) -> "LinearCombination":
        """Add (key, coefficient) pairs into this combination, dropping zeros."""
        terms = self.terms
        for key, c in items:
            s = terms.get(key)
            s = c if s is None else s + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return self

    def add_term(self, key, c) -> None:
        """In place: add c times the basis element ``key``."""
        self._accumulate(((key, c),))

    def add_scaled(self, other, c) -> None:
        """In place: add c times ``other``, without building the scaled copy."""
        self._accumulate((k, c * v) for k, v in self._coerce(other).terms.items())

    def __iadd__(self, other):
        return self._accumulate(self._coerce(other).terms.items())

    def __isub__(self, other):
        return self._accumulate((k, -c) for k, c in self._coerce(other).terms.items())

    def __add__(self, other):
        out = self._new(dict(self.terms))
        out += other
        return out

    def __sub__(self, other):
        out = self._new(dict(self.terms))
        out -= other
        return out

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """Every coefficient multiplied by c, as a new combination.  Scaling by
        1 copies the container and shares the coefficients."""
        if c == 1:
            return self._new(dict(self.terms))
        return self._new({k: cv for k, v in self.terms.items() if (cv := c * v)})

    __rmul__ = scale

    def largest(self):
        """The coefficients among which ``numeric.residual`` finds the largest
        modulus: all of them here."""
        return self.terms.values()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


class ZetaPoly(LinearCombination):
    """Exact polynomial in zeta symbols and formal T-variables."""

    __slots__ = ()

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, q) -> "ZetaPoly":
        """The constant q; an int stays an int, anything else becomes a Fraction."""
        if not isinstance(q, int):
            q = Fraction(q)
        return cls({_ONE_MONO: q} if q else {})

    @classmethod
    def zeta(cls, k) -> "ZetaPoly":
        """The symbol Z[k] for an admissible index; Z[()] is 1."""
        k = tuple(k)
        if k and k[-1] < 2:
            raise ValueError(f"zeta symbol requires an admissible index, got {k}")
        if not k:
            return cls.const(1)
        return cls({(((k, 1),), ()): 1})

    @classmethod
    def tvar(cls, name: str) -> "ZetaPoly":
        return cls({((), ((name, 1),)): 1})

    # -- ring operations ----------------------------------------------
    def _coerce(self, other) -> "ZetaPoly":
        return _as_zp(other)

    __radd__ = LinearCombination.__add__

    def __mul__(self, other) -> "ZetaPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ZetaPoly):
            return NotImplemented
        out = ZetaPoly()
        out._accumulate(((_merge_powers(z1, z2), _merge_powers(t1, t2)), c1 * c2)
                        for (z1, t1), c1 in self.terms.items()
                        for (z2, t2), c2 in other.terms.items())
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ZetaPoly":
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, n: int) -> "ZetaPoly":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = ZetaPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ZetaPoly.const(other)
        return super().__eq__(other)

    def __hash__(self):
        # a constant hashes as its value, since it compares equal to it
        if self.terms.keys() <= {_ONE_MONO}:
            return hash(self.terms.get(_ONE_MONO, 0))
        return hash(frozenset(self.terms.items()))

    # -- structure ------------------------------------------------------
    def subst_tvars(self, values: dict[str, "ZetaPoly | Fraction | int"]) -> "ZetaPoly":
        """Substitute polynomials/constants for the named T-variables."""
        out = ZetaPoly()
        for (zpart, tpart), c in self.terms.items():
            term = ZetaPoly({(zpart, tuple((n, e) for n, e in tpart if n not in values)): c})
            for name, e in tpart:
                if name in values:
                    term = term * (_as_zp(values[name]) ** e)
            out += term
        return out

    def _degree(self, mono: Monomial) -> int:
        zpart, tpart = mono
        return sum(e for _, e in zpart) + sum(e for _, e in tpart)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda m: (self._degree(m), m))
        pieces = []
        for m in keys:
            zpart, tpart = m
            factors = [str(self.terms[m])]
            for idx, e in zpart:
                factors.append(f"Z[{','.join(map(str, idx))}]^{e}")
            for name, e in tpart:
                factors.append(f"{name}^{e}")
            pieces.append(" * ".join(factors))
        return " + ".join(pieces)

    __repr__ = __str__


def _as_zp(x) -> ZetaPoly:
    if isinstance(x, ZetaPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return ZetaPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into ZetaPoly")


class BiSeries(LinearCombination):
    """Series in s and t truncated at orders (ms, mt), keyed by exponent
    pairs (i, j) for the term s^i t^j.

    A series in one variable is the case ``ms = 0``; its coefficients, in
    powers of t, are ``coeffs``.
    """

    __slots__ = ("ms", "mt")

    def __init__(self, ms: int, mt: int, grid: list[list]):
        if len(grid) != ms + 1 or any(len(row) != mt + 1 for row in grid):
            raise ValueError("grid shape must be (ms+1) x (mt+1)")
        self.ms = ms
        self.mt = mt
        self.terms = {(i, j): a for i, row in enumerate(grid) for j, a in enumerate(row) if a}

    def _new(self, terms: dict) -> "BiSeries":
        return self._sparse(self.ms, self.mt, terms)

    @classmethod
    def _sparse(cls, ms: int, mt: int, terms: dict) -> "BiSeries":
        out = object.__new__(cls)
        out.ms, out.mt, out.terms = ms, mt, terms
        return out

    def _coerce(self, other: "BiSeries") -> "BiSeries":
        if not isinstance(other, BiSeries) or (other.ms, other.mt) != (self.ms, self.mt):
            raise ValueError("truncation orders do not match")
        return other

    @classmethod
    def constant(cls, c, ms: int, mt: int) -> "BiSeries":
        return cls.monomial(c, 0, 0, ms, mt)

    @classmethod
    def monomial(cls, c, i: int, j: int, ms: int, mt: int) -> "BiSeries":
        """c * s^i * t^j, or zero when the monomial is beyond truncation."""
        return cls._sparse(ms, mt, {(i, j): c} if c and i <= ms and j <= mt else {})

    @classmethod
    def from_outer(cls, a: "BiSeries", b: "BiSeries") -> "BiSeries":
        """The product a(s) * b(t) of two one-variable series."""
        if a.ms or b.ms:
            raise ValueError("from_outer needs one-variable series (ms = 0)")
        return cls._sparse(a.mt, b.mt, {(i, j): xy for (_, i), x in a.terms.items()
                                        for (_, j), y in b.terms.items() if (xy := x * y)})

    def coeff(self, i: int, j: int):
        """The coefficient of s^i t^j; 0 when the term is absent."""
        return self.terms.get((i, j), 0)

    @property
    def coeffs(self) -> list:
        """The coefficients of a one-variable series (ms = 0), 0 where absent."""
        if self.ms:
            raise ValueError("coeffs needs a one-variable series (ms = 0)")
        return [self.coeff(0, j) for j in range(self.mt + 1)]

    def __mul__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            return self.scale(other)
        self._coerce(other)
        ms, mt = self.ms, self.mt
        out: dict = {}
        for (i, j), x in self.terms.items():
            for (k, l), y in other.terms.items():
                if i + k <= ms and j + l <= mt:
                    # each product is a fresh object, so the sum may grow in place
                    key = (i + k, j + l)
                    acc = out.get(key)
                    if acc is None:
                        out[key] = x * y
                    else:
                        acc += x * y
                        out[key] = acc
        return self._new({key: c for key, c in out.items() if c})

    def negate_t(self) -> "BiSeries":
        """Substitute -t for t."""
        return self._new({(i, j): a if j % 2 == 0 else -1 * a
                          for (i, j), a in self.terms.items()})

    def shift(self, ds: int, dt: int) -> "BiSeries":
        """Multiply by s^ds * t^dt, dropping overflow."""
        return self._new({(i + ds, j + dt): a for (i, j), a in self.terms.items()
                          if i + ds <= self.ms and j + dt <= self.mt})

    def map(self, f: Callable) -> "BiSeries":
        """f applied to every coefficient; f must send 0 to 0."""
        return self._new({key: fa for key, a in self.terms.items() if (fa := f(a))})

    def entries(self):
        """(i, j, coefficient) over the whole grid, 0 where a term is absent."""
        for i in range(self.ms + 1):
            for j in range(self.mt + 1):
                yield i, j, self.coeff(i, j)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and (self.ms, self.mt) == (other.ms, other.mt)


def exp_coeffs(c: Sequence) -> list:
    """The coefficients e_0..e_n of exp(sum_k c_k x^k), n = len(c) - 1, by
    n e_n = sum_{k=1..n} k c_k e_(n-k) (from e' = c' e).  c_0 must be the
    ring's zero, such as ``ZetaPoly()`` or ``mpf(0)``; e_0 = c_0 + 1 is its one."""
    if c[0]:
        raise ValueError("exponent series must have no constant term")
    e = [c[0] + 1]
    for n in range(1, len(c)):
        e.append(sum((k * c[k] * e[n - k] for k in range(1, n + 1) if c[k] and e[n - k]),
                     c[0]) / n)
    return e
