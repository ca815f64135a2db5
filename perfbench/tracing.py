"""Per-layer tracing from outside mzvkit.

``Tracer.install`` replaces every public function of the nine mzvkit
modules (plus the few private hot spots named in ``PRIVATE``) with a timing
wrapper, in every module namespace that binds it, and wraps the methods of
the classes those modules define on the class itself.  Each call records a
span (id, parent id, name, start, end, operation number); self time is the
span's duration minus the time of its child spans.  Cache hit and miss
counts come from the existing ``functools.cache`` statistics and from the
associator's series caches, never from code inside mzvkit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("indices", "words", "rings", "regularization", "numeric", "stadic",
           "associator", "finite", "cli")

# Private functions traced because a per-layer metric names them.
PRIVATE = {"numeric._li_half", "finite._window_inverses"}
# Methods never wrapped: construction, printing, hashing and comparison run
# inside every container operation and carry no layer work of their own.
SKIP_METHODS = {"__init__", "__new__", "__repr__", "__str__", "__eq__", "__hash__",
                "__bool__", "__post_init__", "__setattr__", "__delattr__", "_check"}
# functools caches whose miss counts are reported.
MISS_COUNTERS = {
    "numeric.li_half.misses": "numeric._li_half",
    "words.shuffle_kernel.misses": "words._shuffle_words",
    "words.harmonic_kernel.misses": "words._harmonic_words",
    "regularization.zeta_reg.misses": "regularization.zeta_reg",
    "regularization.z_reg_full_word.misses": "regularization._z_reg_full_word",
    "stadic.stadic_smzv.misses": "stadic.stadic_smzv",
    "stadic.shifted_mzv.misses": "stadic.shifted_mzv",
}


class Env:
    """The mzvkit modules and every cache they hold, found before any patching."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"mzvkit.{name}") for name in MODULES}
        self.cli = self.modules["cli"]
        self.numeric = self.modules["numeric"]
        self.associator = self.modules["associator"]
        self.caches = {}
        for name, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "") == mod.__name__:
                    self.caches[f"{name}.{attr}"] = obj
        self.on_reset = []

    def reset(self) -> None:
        """Empty every cache, as a fresh process starts (resets cache statistics too)."""
        for c in self.caches.values():
            c.cache_clear()
        self.associator._PHI_CACHE.clear()
        self.associator._PHI_RS_CACHE.clear()
        self.numeric.CACHE.clear()
        for fn in self.on_reset:
            fn()


def _traceable(obj) -> bool:
    return inspect.isfunction(obj) or type(obj).__name__ == "_lru_cache_wrapper"


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    prefix, _, short = module.partition(".")
    return short if prefix == "mzvkit" and short in MODULES else None


class Tracer:
    def __init__(self, env: Env):
        self.env = env
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.keep = False               # record spans (first traced repetition only)
        self.op = 0
        self.top_s = 0.0                # time inside root spans
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.store_bytes = 0
        self._sid = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._cache_seen: dict[str, tuple[int, int]] = {}
        self._phi_seen: set = set()
        self.wrapped_caches: set[str] = set()
        env.on_reset.append(self._on_reset)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        targets = list(self.env.modules.values()) + [importlib.import_module("mzvkit")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__ and _layer_of(obj):
                        self._install_class(obj)
                    continue
                layer = _layer_of(obj) if _traceable(obj) else None
                if layer is None:
                    continue
                name = f"{layer}.{obj.__name__}"
                if obj.__name__.startswith("_") and name not in PRIVATE:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                    if hasattr(obj, "cache_info"):
                        self.wrapped_caches.add(name)
                self._patch(mod, attr, wrappers[id(obj)])

    def _install_class(self, cls) -> None:
        if cls.__name__ == "Index" or issubclass(cls, BaseException):
            return
        layer = _layer_of(cls)
        for attr, member in list(vars(cls).items()):
            if attr in SKIP_METHODS or (attr.startswith("_") and not attr.startswith("__")):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, member.__func__)))

    def _patch(self, target, attr, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stack, spans = self.stack, self.spans
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        sid = self._sid
        hook = _HOOKS.get(name)
        generator = inspect.isgeneratorfunction(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(sid), name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # consume inside the span so the iteration is timed here
                    result = iter(list(result))
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                calls[name] += 1
                if parent is None:
                    tracer.top_s += dur
                else:
                    parent[0] += dur
                if tracer.keep:
                    spans.append((frame[1], parent[1] if parent else 0, name, t0, t1, tracer.op))
            if hook is not None:
                hook(tracer, args, result, dur, parent)
            return result

        return wrapper

    # -- counters read after each operation ---------------------------------

    def _on_reset(self) -> None:
        self._cache_seen = {name: (0, 0) for name in self.env.caches}
        self._phi_seen = set()

    def harvest(self) -> None:
        """Fold cache statistics of the operation just run into the counters."""
        for name, cached in self.env.caches.items():
            info = cached.cache_info()
            hits0, misses0 = self._cache_seen.get(name, (0, 0))
            self.counts[f"{name}.misses"] += info.misses - misses0
            self.counts[f"{name}.lookups"] += info.hits + info.misses - hits0 - misses0
            self._cache_seen[name] = (info.hits, info.misses)
        for key in self.env.associator._PHI_CACHE:
            if key not in self._phi_seen:
                self._phi_seen.add(key)
                self.counts["phi_words"] += 2 ** (key[2] + 1) - 1   # all words of length <= D
        self.op += 1

    def escapes(self) -> dict[str, tuple[int, int]]:
        """Cached functions whose calls through the wrapper differ from the
        cache's own lookup count: a difference means a call escaped tracing."""
        return {name: (self.calls[name], self.counts[f"{name}.lookups"])
                for name in sorted(self.wrapped_caches)
                if self.calls[name] != self.counts[f"{name}.lookups"]}

    def layer_self(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def clear(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_s = 0.0
        self.store_bytes = 0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last ``clear``."""
        s, t, c, n = self.self_s, self.total_s, self.calls, self.counts

        def prefixed(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        layers = self.layer_self()
        gets = n["store_gets"]
        tried = n["mul_pairs_tried"]
        m = {
            "numeric.li_half.self_s": s["numeric._li_half"],
            "numeric.mzv.calls": c["numeric.mzv"],
            "numeric.mzv.self_s": s["numeric.mzv"],
            "numeric.store_hit_ratio": n["store_hits"] / gets if gets else 0.0,
            "numeric.eval_zeta_poly.self_s": s["numeric.eval_zeta_poly"],
            "numeric.store.save_s": t["numeric.ValueCache.save"],
            "numeric.store.load_s": t["numeric.ValueCache.load"],
            "numeric.store.bytes": self.store_bytes,
            "words.shuffle.self_s": s["words.shuffle"],
            "words.harmonic.self_s": s["words.harmonic"],
            "rings.ZetaPoly.calls": prefixed(c, "rings.ZetaPoly."),
            "rings.ZetaPoly.self_s": prefixed(s, "rings.ZetaPoly."),
            "rings.BiSeries.self_s": prefixed(s, "rings.BiSeries."),
            "rings.TSeries.self_s": prefixed(s, "rings.TSeries."),
            "stadic.residual.self_s": s["stadic.residual_biseries"] + s["stadic.residual_tseries"],
            "associator.phi.self_s": s["associator.phi"],
            "associator.phi.words": n["phi_words"],
            "associator.phi_rs.self_s": s["associator.phi_rs"],
            "associator.NcSeries.mul.calls": c["associator.NcSeries.__mul__"],
            "associator.NcSeries.mul.self_s": s["associator.NcSeries.__mul__"],
            "associator.NcSeries.subst.self_s": s["associator.NcSeries.subst"],
            "associator.pair.self_s": s["associator.pair"],
            "associator.NcSeries.mul.pairs_tried": tried,
            "associator.NcSeries.mul.kept_ratio": n["mul_pairs_kept"] / tried if tried else 0.0,
            "finite.finite_mzv.calls": c["finite.finite_mzv"],
            "finite.finite_mzv.self_s": s["finite.finite_mzv"],
            "finite.dp_cells": n["dp_cells"],
            "finite.window_inverses.self_s": s["finite._window_inverses"],
            "indices.calls": prefixed(c, "indices."),
            "cli.commands": c["cli.main"],
            "cli.store_load_s": n["cli_store_load_s"],
            "cli.store_save_s": n["cli_store_save_s"],
        }
        for key, cache_name in MISS_COUNTERS.items():
            m[key] = n[f"{cache_name}.misses"]
        for layer, value in layers.items():
            m[f"{layer}.self_s"] = value
        return m


# -- hooks: counters that need a call's arguments or result -----------------

def _store_get(tracer, args, result, dur, parent):
    tracer.counts["store_gets"] += 1
    if result is not None:
        tracer.counts["store_hits"] += 1


def _store_io(kind):
    def hook(tracer, args, result, dur, parent):
        path = args[1]
        if os.path.exists(path):
            tracer.store_bytes = max(tracer.store_bytes, os.path.getsize(path))
        if parent is not None and parent[2] == "cli.main":
            tracer.counts[f"cli_store_{kind}_s"] += dur
    return hook


def _nc_mul(tracer, args, result, dur, parent):
    a, b = args
    if not isinstance(b, type(a)):
        return
    la = Counter(len(w) for w in a.terms)
    lb = Counter(len(w) for w in b.terms)
    tracer.counts["mul_pairs_tried"] += len(a.terms) * len(b.terms)
    tracer.counts["mul_pairs_kept"] += sum(na * nb for i, na in la.items()
                                           for j, nb in lb.items() if i + j <= a.deg)


def _finite_mzv(tracer, args, result, dur, parent):
    k, p = args[0], args[1]
    tracer.counts["dp_cells"] += len(tuple(k)) * (p - 1)


_HOOKS = {
    "numeric.ValueCache.get": _store_get,
    "numeric.ValueCache.load": _store_io("load"),
    "numeric.ValueCache.save": _store_io("save"),
    "associator.NcSeries.__mul__": _nc_mul,
    "finite.finite_mzv": _finite_mzv,
}


# -- the per-layer metrics: unit, better, and the end-to-end metric each one
# should move, on which workload ---------------------------------------------

_TABLE, _STADIC, _ASSOC, _SCANS = "mzv_table", "certify_stadic", "certify_assoc", "finite_scans"


def _on(metrics, *workloads):
    return [(m, w) for m in metrics for w in workloads]


LAYER_METRICS = {
    "numeric.li_half.misses": ("count", "lower", _on(("wall_s", "op_tail_ms"), _TABLE)),
    "numeric.li_half.self_s": ("s", "lower", _on(("wall_s", "op_tail_ms"), _TABLE)),
    "numeric.mzv.calls": ("count", "lower", _on(("wall_s",), _STADIC, _ASSOC)),
    "numeric.mzv.self_s": ("s", "lower", _on(("wall_s",), _STADIC, _ASSOC)),
    "numeric.store_hit_ratio": ("ratio", "higher", _on(("wall_s",), _STADIC, _ASSOC)),
    "numeric.eval_zeta_poly.self_s": ("s", "lower", _on(("wall_s",), _STADIC, _ASSOC)),
    "numeric.store.save_s": ("s", "lower", _on(("wall_s",), _TABLE) + _on(("setup_s",), _STADIC, _ASSOC)),
    "numeric.store.load_s": ("s", "lower", _on(("wall_s",), _TABLE) + _on(("setup_s",), _STADIC, _ASSOC)),
    "numeric.store.bytes": ("bytes", "lower", _on(("wall_s",), _TABLE) + _on(("setup_s",), _STADIC, _ASSOC)),
    # a store that keeps its guard digits lowers this and widens the sum-theorem margin
    "numeric.doc_bound_ratio": ("ratio", "lower", _on(("min_margin_digits",), _TABLE)),
    "numeric.self_s": ("s", "lower", _on(("wall_s",), _TABLE)),
    "words.shuffle.self_s": ("s", "lower", _on(("wall_s",), _STADIC)),
    "words.harmonic.self_s": ("s", "lower", _on(("wall_s",), _STADIC)),
    "words.shuffle_kernel.misses": ("count", "lower", _on(("wall_s",), _STADIC)),
    "words.harmonic_kernel.misses": ("count", "lower", _on(("wall_s",), _STADIC)),
    "words.self_s": ("s", "lower", _on(("wall_s",), _STADIC)),
    "rings.ZetaPoly.calls": ("count", "lower", _on(("wall_s",), _STADIC, _ASSOC)),
    "rings.ZetaPoly.self_s": ("s", "lower", _on(("wall_s",), _STADIC, _ASSOC)),
    "rings.BiSeries.self_s": ("s", "lower", _on(("wall_s",), _STADIC, _ASSOC)),
    "rings.TSeries.self_s": ("s", "lower", _on(("wall_s",), _STADIC, _ASSOC)),
    "rings.self_s": ("s", "lower", _on(("wall_s",), _STADIC, _ASSOC)),
    "regularization.zeta_reg.misses": ("count", "lower", _on(("wall_s",), _ASSOC)),
    "regularization.z_reg_full_word.misses": ("count", "lower", _on(("wall_s",), _ASSOC)),
    "regularization.self_s": ("s", "lower", _on(("wall_s",), _ASSOC)),
    "stadic.stadic_smzv.misses": ("count", "lower", _on(("wall_s", "op_tail_ms"), _STADIC)),
    "stadic.shifted_mzv.misses": ("count", "lower", _on(("wall_s", "op_tail_ms"), _STADIC)),
    "stadic.self_s": ("s", "lower", _on(("wall_s", "op_tail_ms"), _STADIC)),
    "stadic.residual.self_s": ("s", "lower", _on(("wall_s", "op_tail_ms"), _STADIC)),
    "associator.phi.self_s": ("s", "lower", _on(("wall_s", "op_tail_ms"), _ASSOC)),
    "associator.phi.words": ("count", "lower", _on(("wall_s", "op_tail_ms"), _ASSOC)),
    "associator.phi_rs.self_s": ("s", "lower", _on(("wall_s", "op_tail_ms"), _ASSOC)),
    "associator.NcSeries.mul.calls": ("count", "lower", _on(("wall_s", "op_tail_ms"), _ASSOC)),
    "associator.NcSeries.mul.self_s": ("s", "lower", _on(("wall_s", "op_tail_ms"), _ASSOC)),
    "associator.NcSeries.subst.self_s": ("s", "lower", _on(("wall_s", "op_tail_ms"), _ASSOC)),
    "associator.pair.self_s": ("s", "lower", _on(("wall_s", "op_tail_ms"), _ASSOC)),
    "associator.NcSeries.mul.pairs_tried": ("count", "lower", _on(("wall_s",), _ASSOC)),
    "associator.NcSeries.mul.kept_ratio": ("ratio", "higher", _on(("wall_s",), _ASSOC)),
    "associator.self_s": ("s", "lower", _on(("wall_s", "op_tail_ms"), _ASSOC)),
    "finite.finite_mzv.calls": ("count", "lower", _on(("wall_s", "ops_per_s"), _SCANS)),
    "finite.finite_mzv.self_s": ("s", "lower", _on(("wall_s", "ops_per_s"), _SCANS)),
    "finite.dp_cells": ("count", "lower", _on(("wall_s", "ops_per_s"), _SCANS)),
    "finite.window_inverses.self_s": ("s", "lower", _on(("wall_s", "ops_per_s"), _SCANS)),
    "finite.primes": ("count", "higher", _on(("wall_s", "ops_per_s"), _SCANS)),
    "finite.primes_per_s": ("1/s", "higher", _on(("wall_s", "ops_per_s"), _SCANS)),
    "finite.self_s": ("s", "lower", _on(("wall_s", "ops_per_s"), _SCANS)),
    "indices.calls": ("count", "lower", _on(("wall_s",), _STADIC)),
    "indices.self_s": ("s", "lower", _on(("wall_s",), _STADIC)),
    "cli.commands": ("count", "lower", _on(("setup_s", "op_p50_ms"), _STADIC, _ASSOC, _SCANS)),
    "cli.self_s": ("s", "lower", _on(("setup_s", "op_p50_ms"), _STADIC, _ASSOC, _SCANS)),
    "cli.store_load_s": ("s", "lower", _on(("setup_s", "op_p50_ms"), _STADIC, _ASSOC, _SCANS)),
    "cli.store_save_s": ("s", "lower", _on(("setup_s", "op_p50_ms"), _STADIC, _ASSOC, _SCANS)),
    # traced minus untraced time of one repetition: how far tracing inflates wall_s
    "trace.overhead_s": ("s", "lower", _on(("wall_s",), _TABLE, _STADIC, _ASSOC, _SCANS)),
}
