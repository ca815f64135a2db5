import ast
import itertools
from math import comb, prod
from pathlib import Path

import pytest

from mzvkit import indices, rings
from mzvkit.indices import (
    EMPTY, Index, coarsenings, concat, cyclic_class, hoffman_dual,
    parse_index, reverse, shifts, split, uplus,
)
from support import indices_up_to


def test_basic_attributes():
    k = Index((3, 1, 2))
    assert k.weight == 6 and k.depth == 3 and k.admissible
    assert not Index((2, 1)).admissible
    assert EMPTY.admissible and EMPTY.weight == 0


def test_validation():
    with pytest.raises(ValueError):
        Index((0, 2))
    with pytest.raises(ValueError):
        Index((-1,))


def test_reverse():
    assert reverse(EMPTY) == EMPTY
    assert reverse(Index((1, 2))) == Index((2, 1))
    assert reverse(Index((3, 1, 2))) == Index((2, 1, 3))
    for k in indices_up_to(6):
        assert reverse(reverse(k)) == k


def test_split():
    assert split(Index((1, 2, 3)), 0) == (EMPTY, Index((1, 2, 3)))
    assert split(Index((1, 2, 3)), 2) == (Index((1, 2)), Index((3,)))
    assert split(Index((5,)), 1) == (Index((5,)), EMPTY)
    with pytest.raises(IndexError):
        split(Index((1, 2)), 3)
    for k in indices_up_to(5):
        for i in range(k.depth + 1):
            head, tail = split(k, i)
            assert concat(head, tail) == k


def test_shifts():
    assert shifts(Index((1, 2)), 3)[3] == (Index((4, 2)), 1)
    assert shifts(Index((1, 2)), 3)[1] == (Index((2, 4)), 3)    # C(1,1)*C(3,2)
    assert shifts(EMPTY, 0) == [(EMPTY, 1)]
    assert all(shifts(EMPTY, n) == [] for n in range(1, 6))
    for k in indices_up_to(6, 1):
        if k.depth > 4:
            continue
        d = k.depth
        for n in range(6):
            # every m >= 0 with |m| = n, m_1 ascending first, and its weight
            want = [(Index(a + b for a, b in zip(k, m)),
                     prod(comb(a + b - 1, b) for a, b in zip(k, m)))
                    for m in itertools.product(range(n + 1), repeat=d) if sum(m) == n]
            got = shifts(k, n)
            assert got == want, (k, n)
            assert all(type(l) is Index for l, _ in got)
            assert len(got) == comb(n + d - 1, d - 1)
            assert sum(b for _, b in got) == comb(k.weight + n - 1, n)


def test_compositions():
    # the shift vectors m = l - k of shifts(k, n) are the compositions of n
    # into depth(k) nonnegative parts
    def ms(k, n):
        return [tuple(b - a for a, b in zip(k, l)) for l, _ in shifts(k, n)]
    assert shifts(EMPTY, 0) == [(EMPTY, 1)]
    assert shifts(EMPTY, 2) == []
    assert sorted(ms(Index((1, 1)), 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(ms(Index((1, 1, 1)), 4)) == 15


def test_oplus_and_b_coeff():
    # each shift k + m comes with its weight b(k; m) = prod C(k_i + m_i - 1, m_i)
    assert (Index((1, 5)), 4) in shifts(Index((1, 2)), 3)   # C(0,0)*C(4,3)
    assert shifts(Index((2,)), 1) == [(Index((3,)), 2)]
    assert (Index((3, 3)), 2) in shifts(Index((1, 2)), 3)   # C(2,2)*C(2,1)
    for k in indices_up_to(5, 1):
        assert shifts(k, 0) == [(k, 1)]


def test_hoffman_dual():
    assert hoffman_dual(Index((2,))) == Index((1, 1))
    assert hoffman_dual(Index((1, 1, 1))) == Index((3,))
    assert hoffman_dual(Index((1, 2))) == Index((2, 1))
    with pytest.raises(ValueError):
        hoffman_dual(EMPTY)
    for k in indices_up_to(7, 1):
        d = hoffman_dual(k)
        assert hoffman_dual(d) == k
        assert d.weight == k.weight
        assert k.depth + d.depth == k.weight + 1


def test_coarsenings():
    assert coarsenings(Index((1, 1))) == [Index((1, 1)), Index((2,))]
    assert coarsenings(Index((2,))) == [Index((2,))]
    assert coarsenings(Index((1, 1, 1))) == [
        Index((1, 1, 1)), Index((2, 1)), Index((1, 2)), Index((3,))]
    assert coarsenings(EMPTY) == [EMPTY]
    for k in indices_up_to(6, 1):
        cs = coarsenings(k)
        assert len(cs) == 2 ** (k.depth - 1)
        assert all(c.weight == k.weight for c in cs)


def test_cyclic_class():
    assert cyclic_class(Index((2,))) == [Index((2,))]
    assert cyclic_class(Index((1, 2))) == [Index((2, 1)), Index((1, 2))]
    assert cyclic_class(Index((1, 1))) == [Index((1, 1)), Index((1, 1))]
    for k in indices_up_to(6, 1):
        rots = cyclic_class(k)
        assert len(rots) == k.depth
        assert all(r.weight == k.weight and r.depth == k.depth for r in rots)
        assert k in rots


def test_uplus():
    assert uplus(Index((2,)), Index((3,))) == Index((5,))
    assert uplus(Index((1, 2)), Index((1,))) == Index((1, 3))
    assert uplus(Index((1, 2)), Index((3, 4))) == Index((1, 5, 4))
    with pytest.raises(ValueError):
        uplus(EMPTY, Index((1,)))


def test_parse_and_render():
    assert parse_index("()") == EMPTY
    assert parse_index("(1,2)") == Index((1, 2))
    assert str(Index((1, 2))) == "(1,2)"
    assert str(EMPTY) == "()"
    for bad in ["(0,2)", "(1,", "1,2", "(a)", "(1,-2)"]:
        with pytest.raises(ValueError):
            parse_index(bad)
    for k in indices_up_to(5):
        assert parse_index(str(k)) == k


def test_parse_index_takes_ascii_digits_only():
    # Arabic-Indic one and two, and a superscript two: str.isdigit accepts all
    # three, and int() reads the first two as 1 and 2
    for bad in ["(\u0661,\u0662)", "(1,\u0662)", "(\u00b2)"]:
        with pytest.raises(ValueError, match="is not a positive integer"):
            parse_index(bad)


def _mzvkit_imports(module):
    """The mzvkit modules that a module's source imports, relative or absolute."""
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "mzvkit"):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "mzvkit")


@pytest.mark.parametrize("module", [indices, rings], ids=["indices", "rings"])
def test_the_leaf_layers_import_no_other_mzvkit_module(module):
    # the other layers import indices and rings, never the reverse
    assert list(_mzvkit_imports(module)) == []
