"""What the test modules share: the index and word enumerators, the reset to
cold caches, and one planted fault.  Not a test module: pytest puts this
directory on ``sys.path``, and the tests import it as ``support``."""

import itertools

from mzvkit import associator, cli, finite, indices, numeric, regularization, rings, stadic, words
from mzvkit.indices import Index
from mzvkit.words import E0, E1

MODULES = (associator, cli, finite, indices, numeric, regularization, rings, stadic, words)
# every functools cache defined in mzvkit, found once, before any test plants
# a fault over one of them
CACHES = [obj for mod in MODULES for obj in vars(mod).values()
          if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__]


def indices_up_to(max_weight, min_weight=0):
    """Every index of weight min_weight .. max_weight, by weight: () at
    weight 0, and (w) first among those of weight w."""
    if min_weight == 0:
        yield Index()
    for w in range(max(min_weight, 1), max_weight + 1):
        for cuts in itertools.product((False, True), repeat=w - 1):
            ends = [0, *itertools.compress(range(1, w), cuts), w]
            yield Index(b - a for a, b in itertools.pairwise(ends))


def words_up_to(length, h1_only=False):
    """Every word of at most ``length`` letters, the shortest first; with
    ``h1_only``, only those that do not start with e0."""
    for n in range(length + 1):
        for w in itertools.product((E0, E1), repeat=n):
            if not (h1_only and w and w[0] == E0):
                yield w


def clear_caches() -> None:
    """Empty every memo of mzvkit but the value store ``numeric.CACHE``."""
    for obj in CACHES:
        obj.cache_clear()
    associator._PHI_CACHE.clear()
    associator._PHI_RS_CACHE.clear()


_stuffle = indices.stuffle


def stuffle_without_merged_terms(k, l):
    """The stuffle without its merged terms (k * l, a + b): only the terms
    that keep every part of k and l."""
    return tuple((m, c) for m, c in _stuffle(k, l) if len(m) == len(k) + len(l))
