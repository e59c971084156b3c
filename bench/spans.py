"""In-memory spans around calls into the package's layers, for the traced run.

``Tracer.install`` wraps each function named in ``TARGETS`` and replaces
it at every ``cartancover`` module that binds it (``from .x import f``
copies the binding) or on its class. A span is (name, start, end,
parent, request id); the spans stay in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter

# (metric name, module, attribute path); the layers are the package modules
TARGETS = (
    ("fields.GF", "fields", "GF"),
    ("fields.PrimeField.new", "fields", "PrimeField.__init__"),
    ("instances.load_instance", "instances", "load_instance"),
    ("reports.Report.to_machine_text", "reports", "Report.to_machine_text"),
    ("linalg.Matrix.new", "linalg", "Matrix.__init__"),
    ("linalg.Matrix.matmul", "linalg", "Matrix.__matmul__"),
    ("linalg.Matrix.inverse", "linalg", "Matrix.inverse"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.kernel", "linalg", "kernel"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.min_poly", "linalg", "min_poly"),
    ("linalg.eigenspaces", "linalg", "eigenspaces"),
    ("linalg.Subspace.intersect", "linalg", "Subspace.intersect"),
    ("poly.roots_in_field", "poly", "roots_in_field"),
    ("poly.squarefree_no_guard", "poly", "squarefree_no_guard"),
    ("poly.nonsplit_witness", "poly", "nonsplit_witness"),
    ("cartan.classify_subspace", "cartan", "classify_subspace"),
    ("cartan.simultaneous_eigenlines", "cartan", "simultaneous_eigenlines"),
    ("cartan.conjugate_subspace", "cartan", "conjugate_subspace"),
    ("bundles.validate_cartan_bundle", "bundles", "validate_cartan_bundle"),
    ("bundles.flat_sections", "bundles", "flat_sections"),
    ("covers.cover_roundtrip", "covers", "cover_roundtrip"),
    ("covers.roundtrip_verify", "covers", "roundtrip_verify"),
    ("covers.build_spectral_cover", "covers", "build_spectral_cover"),
    ("covers.cover_isomorphisms", "covers", "cover_isomorphisms"),
    ("covers.line_bundles_gauge_equivalent", "covers", "line_bundles_gauge_equivalent"),
    ("covers.direct_image_line_bundle", "covers", "direct_image_line_bundle"),
    ("covers.cover_report", "covers", "cover_report"),
    ("factorization.monodromy_generators", "factorization", "monodromy_generators"),
    ("factorization.block_systems", "factorization", "block_systems"),
    ("factorization.intermediate_cover", "factorization", "intermediate_cover"),
    ("factorization.summand_embedding_check", "factorization", "summand_embedding_check"),
    ("parabolic.check_pardeg_conservation", "parabolic", "check_pardeg_conservation"),
)
NAMES = tuple(t[0] for t in TARGETS)
# generators: only the calls to next() are timed, and their items counted
GENERATORS = {"covers.cover_isomorphisms"}
# functions whose result adds to the item count of their layer
RESULT_COUNTS = {"factorization.block_systems": lambda catalog: len(catalog.proper)}


class Tracer:
    def __init__(self):
        self.names = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.nested = bytearray()  # 1 when a span of the same name is open around it
        self.calls = [0] * len(NAMES)
        self.items = [0] * len(NAMES)
        self._active = [0] * len(NAMES)
        self._stack = []
        self._patches = []
        self.current_request = -1

    # -- recording -------------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.names.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.nested.append(1 if self._active[nid] else 0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._active[self.names[idx]] -= 1

    def end_request(self) -> None:
        """Close spans left open when a request was interrupted."""
        now = perf_counter()
        for idx in self._stack:
            self.end[idx] = now
        self._stack.clear()
        self._active = [0] * len(NAMES)

    # -- installation ----------------------------------------------------

    def _wrap(self, nid: int, fn):
        tracer = self
        name = NAMES[nid]
        if name in GENERATORS:

            class TimedIterator:
                def __init__(self, gen):
                    self.gen = gen

                def __iter__(self):
                    return self

                def __next__(self):
                    idx = tracer.open(nid)
                    try:
                        item = next(self.gen)
                    finally:
                        tracer.close(idx)
                    tracer.items[nid] += 1
                    return item

            def wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                return TimedIterator(fn(*args, **kwargs))

        else:
            count = RESULT_COUNTS.get(name)

            def wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                idx = tracer.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if count is not None:
                    tracer.items[nid] += count(result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "cartancover" or key.startswith("cartancover."))
        ]
        for nid, (_name, module_name, path) in enumerate(TARGETS):
            owner = importlib.import_module(f"cartancover.{module_name}")
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(nid, original)
            if classes:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{NAMES[self.names[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.request[i]}\n"
                )


def self_times(start, end, parent) -> list:
    """Per span: its duration minus the part of it that its child spans cover.

    Children are clipped to their parent and merged as intervals, so
    overlapping children are not counted twice.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [None] * n  # per parent, the furthest end merged so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        s, e = max(start[i], start[p]), min(end[i], end[p])
        last = reach[p]
        if last is not None:
            s = max(s, last)
        if e > s:
            covered[p] += e - s
        if last is None or e > last:
            reach[p] = e
    return [end[i] - start[i] - covered[i] for i in range(n)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per layer: calls, total time (outermost spans only) and self time, in ms."""
    totals = [0.0] * len(NAMES)
    selfs = [0.0] * len(NAMES)
    for i, own in enumerate(self_times(tracer.start, tracer.end, tracer.parent)):
        nid = tracer.names[i]
        selfs[nid] += own
        if not tracer.nested[i]:
            totals[nid] += tracer.end[i] - tracer.start[i]
    out = {}
    for nid, name in enumerate(NAMES):
        out[f"{name}.calls"] = tracer.calls[nid]
        out[f"{name}.total_ms"] = totals[nid] * 1000.0
        out[f"{name}.self_ms"] = selfs[nid] * 1000.0
    return out
