"""Cached values must come out of a batch of checks exactly as they went in.

Sums accumulate in place, so a function that started its accumulator from a
cached object would silently rewrite that cache entry.  This test records
every call into the value caches during a batch of stadic and associator
checks, takes the values the caches serve afterwards, and compares each with
a recomputation from empty caches.
"""

from fractions import Fraction

from mzvkit import associator, regularization, stadic, words
from mzvkit.indices import Index
from mzvkit.words import E0, E1, HARMONIC, NcPoly
from support import clear_caches

PREC = 40
MODULES = (words, regularization, stadic, associator)
# the caches whose entries are checked: the symbolic values and the series
WATCHED = (stadic.stadic_smzv, stadic.shifted_mzv, regularization.zeta_reg,
           regularization._z_reg_full_word, associator.phi, associator.phi_rs)


def _batch() -> None:
    k = Index((2, 1))
    T = associator.SAMPLE_T
    stadic.check_harmonic(Index((1,)), Index((2,)), (2, 2), PREC)
    stadic.check_shifted_harmonic(Index((1,)), Index((1, 2)), 2, PREC)
    stadic.check_antipode(Index((1, 2)), 2, PREC)
    stadic.check_shuffle(Index((1,)), Index((2,)), (1, 1), PREC)
    stadic.check_explicit_reg(Index((1, 1, 2)), 2, PREC)
    stadic.check_shifted_csf(k, 2, PREC)
    stadic.check_csf_star(k, (1, 1), PREC)
    stadic.check_csf_nonstar(k, (1, 1), PREC)
    stadic.check_csf_tau(k, Fraction(1, 2), (1, 1), PREC)
    associator.check_two_cycle(5, PREC)
    associator.check_three_cycle(4, PREC)
    associator.check_t_part(HARMONIC, T, 4, PREC)
    associator.check_gamma_factor(T, 5, PREC)
    associator.check_independence_factor(T, 5, PREC)
    associator.check_duality_assoc(4, PREC)
    associator.check_smzv_routes(Index((2,)), (1, 1), PREC)
    associator.check_rsmzv_routes(Index((2,)), (1, 1), PREC)
    associator.check_refined_duality(Index((2,)), (1, 1), PREC)
    regularization.Z_reg_full(NcPoly.from_word((E0, E1, E1, E0)), HARMONIC)


def _same(a, b) -> bool:
    if hasattr(a, "terms"):
        return type(a) is type(b) and a.terms == b.terms
    return a == b


def test_cached_values_survive_their_readers(monkeypatch):
    calls: dict = {}

    def recorder(fn):
        def record(*args, **kwargs):
            calls.setdefault((fn, args, tuple(sorted(kwargs.items()))), None)
            return fn(*args, **kwargs)
        return record

    watched = {id(fn): fn for fn in WATCHED}
    for mod in MODULES:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in watched:
                monkeypatch.setattr(mod, attr, recorder(obj))

    clear_caches()
    _batch()
    served = [(key, key[0](*key[1], **dict(key[2]))) for key in calls]
    assert {key[0] for key, _ in served} == set(WATCHED)
    for (fn, args, kwargs), value in served:
        clear_caches()
        fresh = fn(*args, **dict(kwargs))
        assert fresh is not value
        assert _same(value, fresh), (fn.__name__, args, kwargs)
