"""
Per-layer tracing of blobcat from outside the library.

`Tracer.install()` replaces each traced public function by a wrapper that
records a span: its name, start, duration, the enclosing span and the op it
belongs to.  blobcat modules bind each other's functions at import time
(`from .words import canonical_word` in `algebra`, dispatch tables such as
`enumeration.COUNTS`), so every binding of the original in every blobcat
module, and in every module-level dict, is swapped; `uninstall()` puts each
one back.  Self time is a span's duration minus that of its children, kept
exactly with a stack while the run goes.  Spans are held in memory, up to
SPAN_CAP of them, and written out once the run is over.

Generators (`iter_commutation_class`) are timed only while they run: each
resumption is charged to the generator and counted as a yielded member, and
the consumer's own time between resumptions stays with the consumer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

from blobcat import algebra, normal_forms, triangles

LAYERS = ("words", "normal_forms", "grids", "triangles", "enumeration", "algebra", "cli")

TRACED = {
    "words": ("canonical_word", "is_reduced_fc", "same_element", "iter_commutation_class"),
    "normal_forms": ("fc_forms", "normal_form_of_word", "is_positive", "positive_blocks_of"),
    "grids": ("is_blobbed",),
    "triangles": ("blobbed_entry",),
    "enumeration": ("a_count", "b_count", "d_count", "blob_polynomial"),
    "algebra": ("reduce_word", "in_index_set"),
    "cli": ("main",),
}
GENERATORS = ("words.iter_commutation_class",)
OP = "bench.op"
SPAN_CAP = 200_000

# the lru_caches whose cache_info() feeds the cache metrics; read, never cleared
CACHES = {
    "reduce_cache": lambda: algebra._reduce_canonical,
    "fc_forms": lambda: normal_forms.fc_forms,
    "row_cache": lambda: triangles._row,
}


class Tracer:
    def __init__(self):
        self.names = [OP] + [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self._index = {name: i for i, name in enumerate(self.names)}
        size = len(self.names)
        self.calls = [0] * size
        self.self_time = [0.0] * size
        # calls of one traced function made directly from another: (child, parent) -> count
        self.edges: dict[tuple[int, int], int] = {}
        self.counters = {"class_members": 0, "fc_forms_forms": 0, "fc_forms_kept": 0}
        self._stack: list[list] = []  # [name index, start, child time, span index]
        self.op_id = 0
        self.spans_dropped = 0
        self._span_cols = {k: array("d") for k in ("start", "dur", "self")}
        self._span_ids = {k: array("l") for k in ("op", "name", "parent")}
        self._bindings: list[tuple[dict, object, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        if self._bindings:
            raise RuntimeError("tracer already installed")
        self._caches = {key: get() for key, get in CACHES.items()}
        self._cache_start = {key: cache.cache_info() for key, cache in self._caches.items()}
        modules = [m for name, m in sys.modules.items() if name == "blobcat" or name.startswith("blobcat.")]
        for layer, fns in TRACED.items():
            module = sys.modules[f"blobcat.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                original = getattr(module, fn)
                wrapper = self._wrap_generator(name, original) if name in GENERATORS else self._wrap(name, original)
                for mod in modules:
                    self._rebind(mod.__dict__, original, wrapper)
                    for key, value in list(mod.__dict__.items()):
                        if isinstance(value, dict) and not key.startswith("__"):
                            self._rebind(value, original, wrapper)
        return self

    def _rebind(self, namespace: dict, original, wrapper) -> None:
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
                self._bindings.append((namespace, key, original))

    def uninstall(self) -> None:
        self._cache_end = {key: cache.cache_info() for key, cache in self._caches.items()}
        for namespace, key, original in reversed(self._bindings):
            namespace[key] = original
        self._bindings.clear()

    # -- spans ---------------------------------------------------------------

    def _open(self, idx: int) -> int:
        """Count the call against the enclosing span; return the new span's row."""
        if self._stack:
            key = (idx, self._stack[-1][0])
            self.edges[key] = self.edges.get(key, 0) + 1
        ids = self._span_ids
        if len(ids["name"]) >= SPAN_CAP:
            self.spans_dropped += 1
            return -1
        ids["op"].append(self.op_id)
        ids["name"].append(idx)
        ids["parent"].append(self._stack[-1][3] if self._stack else -1)
        for col in self._span_cols.values():
            col.append(0.0)
        return len(ids["name"]) - 1

    def _enter(self, idx: int) -> None:
        span = self._open(idx)
        self._stack.append([idx, time.perf_counter(), 0.0, span])

    def _exit(self) -> None:
        idx, start, child, span = self._stack.pop()
        dur = time.perf_counter() - start
        self._close(idx, start, dur, dur - child, span)

    def _close(self, idx: int, start: float, dur: float, own: float, span: int, charge_parent: bool = True) -> None:
        self.calls[idx] += 1
        self.self_time[idx] += own
        if charge_parent and self._stack:
            self._stack[-1][2] += dur
        if span >= 0:
            self._span_cols["start"][span] = start
            self._span_cols["dur"][span] = dur
            self._span_cols["self"][span] = own

    def _wrap(self, name: str, original):
        idx = self._index[name]
        if name == "normal_forms.fc_forms":
            return self._wrap_fc_forms(idx, original)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            enter(idx)
            try:
                return original(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def _wrap_fc_forms(self, idx: int, original):
        filter_idx = self._index["words.is_reduced_fc"]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            misses = original.cache_info().misses
            filtered = self.edges.get((filter_idx, idx), 0)
            self._enter(idx)
            try:
                forms = original(*args, **kwargs)
            finally:
                self._exit()
            if original.cache_info().misses > misses:
                self.counters["fc_forms_forms"] += len(forms)
                if self.edges.get((filter_idx, idx), 0) > filtered:
                    self.counters["fc_forms_kept"] += len(forms)
            return forms

        return wrapper

    def _wrap_generator(self, name: str, original):
        idx = self._index[name]
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(idx)
            first = time.perf_counter()
            busy = 0.0
            members = 0
            inner = original(*args, **kwargs)
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        spent = time.perf_counter() - t0
                        busy += spent
                        if stack:
                            stack[-1][2] += spent
                    members += 1
                    yield item
            finally:
                inner.close()
                self.counters["class_members"] += members
                # each resumption was charged to the consumer as it happened
                self._close(idx, first, busy, busy, span, charge_parent=False)

        return wrapper

    def run_op(self, fn, inp):
        self.op_id += 1
        self._enter(0)
        try:
            return fn(inp)
        finally:
            self._exit()

    # -- results -------------------------------------------------------------

    def _stat(self, name: str):
        i = self._index[name]
        return self.calls[i], self.self_time[i]

    def _edge(self, child: str, parent: str) -> int:
        return self.edges.get((self._index[child], self._index[parent]), 0)

    def _cache(self, key: str):
        start, end = self._cache_start[key], self._cache_end[key]
        hits, misses = end.hits - start.hits, end.misses - start.misses
        ratio = hits / (hits + misses) if hits + misses else 0.0
        return hits, misses, ratio, end.currsize

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        def calls(name):
            put(f"{name}.calls", self._stat(name)[0], "count")

        def self_s(name):
            put(f"{name}.self_s", self._stat(name)[1], "s")

        for layer in LAYERS:
            put(f"{layer}.self_s", sum(self._stat(f"{layer}.{fn}")[1] for fn in TRACED[layer]), "s")

        members = self.counters["class_members"]
        put("words.class_members", members, "count")
        self_s("words.iter_commutation_class")
        calls("words.canonical_word")
        self_s("words.canonical_word")
        self_s("words.is_reduced_fc")

        calls("algebra.reduce_word")
        self_s("algebra.reduce_word")
        _, searches, ratio, size = self._cache("reduce_cache")
        put("algebra.redex_searches", searches, "count")
        put("algebra.members_per_search", members / searches if searches else 0.0, "count")
        put("algebra.reduce_cache.hit_ratio", ratio, "ratio")
        put("algebra.reduce_cache.size", size, "count")
        self_s("algebra.in_index_set")

        self_s("normal_forms.fc_forms")
        _, builds, _, _ = self._cache("fc_forms")
        put("normal_forms.fc_forms.builds", builds, "count")
        put("normal_forms.fc_forms.forms", self.counters["fc_forms_forms"], "count")
        filtered = self._edge("words.is_reduced_fc", "normal_forms.fc_forms")
        put("normal_forms.fc_forms.keep_ratio", self.counters["fc_forms_kept"] / filtered if filtered else 0.0, "ratio")
        lookups, _ = self._stat("normal_forms.normal_form_of_word")
        calls("normal_forms.normal_form_of_word")
        self_s("normal_forms.normal_form_of_word")
        same = self._edge("words.same_element", "normal_forms.normal_form_of_word")
        put("normal_forms.same_element_per_lookup", same / lookups if lookups else 0.0, "count")

        calls("grids.is_blobbed")
        self_s("grids.is_blobbed")

        calls("triangles.blobbed_entry")
        self_s("triangles.blobbed_entry")
        _, _, ratio, size = self._cache("row_cache")
        put("triangles.row_cache.size", size, "count")
        put("triangles.row_cache.hit_ratio", ratio, "ratio")

        self_s("enumeration.d_count")
        self_s("enumeration.a_count")
        self_s("cli.main")
        return out

    def write_spans(self, path) -> int:
        """One JSON header line, then one [op, name, parent, start_s, dur_s,
        self_s] row per kept span; `parent` indexes the rows."""
        ids, cols = self._span_ids, self._span_cols
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "columns": ["op", "name", "parent", "start_s", "dur_s", "self_s"]}) + "\n")
            for row in zip(ids["op"], ids["name"], ids["parent"], cols["start"], cols["dur"], cols["self"]):
                fh.write(json.dumps(row) + "\n")
        return len(ids["name"])
