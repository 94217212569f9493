"""Outside-in tracing of the smbalg layers for the benchmark's traced run.

`Tracer.install` replaces each public function listed in `SPANNED` by a
wrapper: the module attribute and every `from ... import` binding of it
in the `smbalg.*` modules, so calls between modules are timed too.  A
wrapper records one span (name, start, end, parent span, op id) and folds
its duration into per-name call counts, total time and self time (the
duration minus the time covered by direct child spans).  `Partition`
methods are only counted, since ops call them 10^5 to 10^6 times.  Cache
hit ratios come from each lru_cache's public `cache_info()`.

Spans stay in memory and are written out once, by `write_spans`.  Nothing
in the program is changed on disk; a function the program no longer has
is skipped and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs that get spans, in smbalg.<module>
SPANNED = (
    ("dsl", "parse_algebra"), ("dsl", "format_algebra"),
    ("core", "check_identity"),
    ("relations", "congruence_lattice"), ("relations", "congruence_violation"),
    ("relations", "principal_congruence"), ("relations", "congruence_generated"),
    ("relations", "quotient_algebra"), ("relations", "generate_subpower"),
    ("relations", "subpower_closure_fast"), ("relations", "commutator"),
    ("relations", "product_algebra"),
    ("analyzer", "find_smb_congruences"), ("analyzer", "check_smb_over"),
    ("analyzer", "check_regular_base"), ("analyzer", "check_regular"),
    ("analyzer", "verify_cg_d3"), ("analyzer", "check_cgvsim"),
    ("analyzer", "check_undersim"), ("analyzer", "commutator_below_sim"),
    ("pipeline", "regularize"),
    ("constructions", "glue_smb"), ("constructions", "random_semilattice"),
)
COUNTED_METHODS = ("join", "meet", "refines")


def smbalg_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "smbalg" or name.startswith("smbalg."))]


def find_caches() -> dict:
    """Every lru_cache'd function defined in smbalg, by `module.name`."""
    caches = {}
    for mod in smbalg_modules():
        for attr, val in vars(mod).items():
            if (hasattr(val, "cache_info") and hasattr(val, "cache_clear")
                    and getattr(val, "__module__", None) == mod.__name__):
                caches[f"{mod.__name__.split('.', 1)[-1]}.{attr}"] = val
    return caches


def _assignments(args, kwargs, result):
    """Assignments check_identity scanned: n^vars when the identity holds,
    the rank of the least failing assignment plus one when it fails."""
    alg, ident = args[0], args[1]
    nvars = max(ident.variables(), default=-1) + 1
    n = alg.size
    if result.holds:
        return n ** nvars
    rank = 0
    for x in result.witness:
        rank = rank * n + x
    return rank + 1


# name -> (counter suffix, function of (args, kwargs, result)); the counter
# grows only on calls that computed (cache misses for cached functions)
COUNTERS = {
    "core.check_identity": ("assignments", _assignments),
    "relations.congruence_lattice": ("members", lambda a, k, r: len(r)),
    "relations.generate_subpower": ("elements", lambda a, k, r: len(r)),
    "relations.subpower_closure_fast": ("elements", lambda a, k, r: len(r)),
    "analyzer.verify_cg_d3": ("chains", lambda a, k, r: len(r.chains)),
}


class Tracer:
    def __init__(self, caches: dict):
        self.caches = caches
        self.enabled = False
        self.phase = "setup"
        self.op_id = -1
        self.names: list = []
        self._name_ids: dict = {}
        self.starts = array("d")
        self.ends = array("d")
        self.span_names = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: list = []        # [span index, time covered by children]
        # phase -> name -> [calls, total_s, self_s]
        self.stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.counts = defaultdict(lambda: defaultdict(int))

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name: str):
        self.span_names.append(self._name_id(name))
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append([len(self.starts), 0.0])
        self.starts.append(time.perf_counter())

    def _end(self, name: str):
        end = time.perf_counter()
        idx, covered = self._stack.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        agg = self.stats[self.phase][name]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the block, when tracing is on."""
        if not self.enabled:
            yield
            return
        self._begin(name)
        try:
            yield
        finally:
            self._end(name)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        cache = fn if hasattr(fn, "cache_info") else None
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            misses = cache.cache_info().misses if cache is not None else 0
            tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(name)
            if counter is not None and (cache is None
                                        or cache.cache_info().misses > misses):
                tracer.counts[tracer.phase][f"{name}.{counter[0]}"] += \
                    counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, key: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[tracer.phase][key] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def install(self):
        modules = smbalg_modules()
        by_name = {m.__name__: m for m in modules}
        for mod_name, attr in SPANNED:
            home = by_name.get(f"smbalg.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, name, wrapper)
        partition = getattr(by_name.get("smbalg.partitions"), "Partition", None)
        for method in COUNTED_METHODS:
            original = getattr(partition, method, None)
            if original is not None:
                setattr(partition, method,
                        self._count(f"partitions.Partition.{method}.calls", original))

    # -- results -----------------------------------------------------------

    def calls(self, name: str, phase: str = "ops") -> int:
        return self.stats[phase][name][0] if name in self.stats[phase] else 0

    def total_s(self, name: str, phase: str = "ops") -> float:
        return self.stats[phase][name][1] if name in self.stats[phase] else 0.0

    def self_s(self, name: str, phase: str = "ops") -> float:
        return self.stats[phase][name][2] if name in self.stats[phase] else 0.0

    def count(self, key: str, phase: str = "ops") -> int:
        return self.counts[phase].get(key, 0)

    def hit_ratio(self, name: str) -> float:
        """Hits over lookups since the caches were last cleared; 0 when the
        function was not looked up or is not cached."""
        cache = self.caches.get(name)
        if cache is None:
            return 0.0
        info = cache.cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0

    def write_spans(self, path, op_labels: list):
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name=np.asarray(self.span_names, dtype=np.int64),
                 start=np.asarray(self.starts, dtype=np.float64),
                 end=np.asarray(self.ends, dtype=np.float64),
                 parent=np.asarray(self.parents, dtype=np.int64),
                 op=np.asarray(self.ops, dtype=np.int64),
                 op_labels=np.array(op_labels, dtype=str))
