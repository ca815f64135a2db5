"""Sparse linear combinations and the scalar coefficient rings built on them.

* ``LinearCombination`` -- a finitely supported map from basis keys (words,
  monomials, indices) to nonzero coefficients.  It is the one sparse core
  under every dict algebra in the package: zero-dropping construction,
  ``+``, ``-``, ``scale``, equality, and in-place accumulation (``+=``,
  ``-=``, ``add_term``) through a single accumulate-and-drop-zeros loop.
* ``ZetaPoly`` -- commutative polynomials in formal zeta symbols ``Z[k]``
  (k an admissible index) and named indeterminates (``T``, ``T1``, ``T2``)
  with exact rational coefficients.  Equality is structural; no relation
  between zeta symbols is assumed.
* ``BiSeries`` -- a series in (s, t) truncated at orders (ms, mt), stored as
  a dense coefficient grid, with coefficients in any ring supporting ``+``,
  ``-``, ``*`` and ``bool``.  A series in one variable is a ``BiSeries``
  with ``ms = 0``.

Zero tests go through ``bool(x)``, which works for ``Fraction``, mpmath
numbers and the classes below.

In-place operations change only the container they are applied to, never a
coefficient object: coefficients may be shared between combinations and
grids.  An accumulator must be a fresh object that its function created,
never a value handed out by a cache.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

# A monomial is (zpart, tpart):
#   zpart: tuple of (index_tuple, exponent), sorted by index_tuple
#   tpart: tuple of (name, exponent), sorted by name
Monomial = tuple[tuple, tuple]

_ONE_MONO: Monomial = ((), ())


def _merge_powers(a, b):
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
        """Every coefficient multiplied by c, as a new combination."""
        return self._new({k: cv for k, v in self.terms.items() if (cv := c * v)})

    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)


class ZetaPoly(LinearCombination):
    """Exact polynomial in zeta symbols and formal T-variables."""

    __slots__ = ()

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, q) -> "ZetaPoly":
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
        return cls({(((k, 1),), ()): Fraction(1)})

    @classmethod
    def tvar(cls, name: str) -> "ZetaPoly":
        return cls({((), ((name, 1),)): Fraction(1)})

    # -- ring operations ----------------------------------------------
    def _coerce(self, other) -> "ZetaPoly":
        return _as_zp(other)

    __radd__ = LinearCombination.__add__

    def __rsub__(self, other) -> "ZetaPoly":
        return _as_zp(other) - self

    def __mul__(self, other) -> "ZetaPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
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
        return hash(frozenset(self.terms.items()))

    # -- structure ------------------------------------------------------
    def tvar_names(self) -> set[str]:
        return {name for (_, tpart) in self.terms for (name, _) in tpart}

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

    def constant_value(self) -> Fraction:
        """The rational value, if the polynomial is a constant."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {_ONE_MONO}:
            return self.terms[_ONE_MONO]
        raise ValueError(f"not a constant polynomial: {self}")

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


class BiSeries:
    """Series in s and t truncated at orders (ms, mt), as a dense grid.

    A series in one variable is the case ``ms = 0``; its coefficients, in
    powers of t, are ``coeffs``.
    """

    __slots__ = ("ms", "mt", "grid")

    def __init__(self, ms: int, mt: int, grid: list[list]):
        if len(grid) != ms + 1 or any(len(row) != mt + 1 for row in grid):
            raise ValueError("grid shape must be (ms+1) x (mt+1)")
        self.ms = ms
        self.mt = mt
        self.grid = [list(row) for row in grid]

    @classmethod
    def constant(cls, c, ms: int, mt: int) -> "BiSeries":
        zero = c * 0
        grid = [[c if (i == 0 and j == 0) else zero for j in range(mt + 1)] for i in range(ms + 1)]
        return cls(ms, mt, grid)

    @classmethod
    def monomial(cls, c, i: int, j: int, ms: int, mt: int) -> "BiSeries":
        """c * s^i * t^j, or zero when the monomial is beyond truncation."""
        zero = c * 0
        grid = [[zero] * (mt + 1) for _ in range(ms + 1)]
        if i <= ms and j <= mt:
            grid[i][j] = c
        return cls(ms, mt, grid)

    @classmethod
    def from_outer(cls, a: "BiSeries", b: "BiSeries") -> "BiSeries":
        """The product a(s) * b(t) of two one-variable series as a grid."""
        return cls(a.mt, b.mt, [[x * y for y in b.coeffs] for x in a.coeffs])

    @property
    def coeffs(self) -> list:
        """The coefficients of a one-variable series (ms = 0)."""
        if self.ms:
            raise ValueError("coeffs needs a one-variable series (ms = 0)")
        return self.grid[0]

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        return BiSeries(self.ms, self.mt,
                        [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.grid, other.grid)])

    def __iadd__(self, other: "BiSeries") -> "BiSeries":
        """In place: each nonzero entry of ``other`` is added into a new entry
        here, or taken over as it is where this entry is zero."""
        self._check(other)
        for row, orow in zip(self.grid, other.grid):
            for j, b in enumerate(orow):
                if b:
                    a = row[j]
                    row[j] = a + b if a else b
        return self

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        return BiSeries(self.ms, self.mt,
                        [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.grid, other.grid)])

    def __neg__(self) -> "BiSeries":
        return self.scale(-1)

    def __mul__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            return BiSeries(self.ms, self.mt, [[a * other for a in row] for row in self.grid])
        self._check(other)
        a, b = self.grid, other.grid
        out = []
        for m in range(self.ms + 1):
            row = []
            for n in range(self.mt + 1):
                # each product is a fresh object, so the sum may grow in place
                acc = None
                for i in range(m + 1):
                    for j in range(n + 1):
                        x, y = a[i][j], b[m - i][n - j]
                        if x and y:
                            if acc is None:
                                acc = x * y
                            else:
                                acc += x * y
                row.append(a[0][0] * 0 if acc is None else acc)
            out.append(row)
        return BiSeries(self.ms, self.mt, out)

    def scale(self, c) -> "BiSeries":
        if c == 1:
            return BiSeries(self.ms, self.mt, self.grid)
        return BiSeries(self.ms, self.mt, [[c * a for a in row] for row in self.grid])

    __rmul__ = scale

    def negate_t(self) -> "BiSeries":
        """Substitute -t for t."""
        return BiSeries(self.ms, self.mt,
                        [[a if j % 2 == 0 else -1 * a for j, a in enumerate(row)] for row in self.grid])

    def shift(self, ds: int, dt: int) -> "BiSeries":
        """Multiply by s^ds * t^dt, dropping overflow."""
        zero = self.grid[0][0] * 0
        grid = [[zero] * (self.mt + 1) for _ in range(self.ms + 1)]
        for i in range(self.ms + 1 - ds):
            for j in range(self.mt + 1 - dt):
                grid[i + ds][j + dt] = self.grid[i][j]
        return BiSeries(self.ms, self.mt, grid)

    def map(self, f: Callable) -> "BiSeries":
        return BiSeries(self.ms, self.mt, [[f(a) for a in row] for row in self.grid])

    def entries(self):
        for i, row in enumerate(self.grid):
            for j, a in enumerate(row):
                yield i, j, a

    def _check(self, other):
        if not isinstance(other, BiSeries) or (other.ms, other.mt) != (self.ms, self.mt):
            raise ValueError("truncation orders do not match")

    def __eq__(self, other) -> bool:
        return (isinstance(other, BiSeries) and (self.ms, self.mt) == (other.ms, other.mt)
                and self.grid == other.grid)

    def __bool__(self) -> bool:
        return any(bool(a) for row in self.grid for a in row)

    def __repr__(self) -> str:
        rows = ["[" + "; ".join(str(a) for a in row) + "]" for row in self.grid]
        return "BiSeries" + "".join("\n  " + r for r in rows)
