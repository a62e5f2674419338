"""Spans around calls into the package, installed from outside it.

``install(tracer)`` replaces each function in ``LAYERS`` by a wrapper at
every binding the package looks it up through: the defining module, every
``from x import y`` copy in another package module, and every class
attribute that holds the same function (``Poly.__rmul__`` is
``Poly.__mul__``).  A wrapper records a span (name, start, end, parent,
job) and a call count; some also count a property of the result.  Spans
stay in flat arrays in memory and are written out once, after the pass.
"""

from __future__ import annotations

import array
import json
import sys
import time

# layer -> functions, as "attr" (module function) or "Class.attr".
LAYERS = {
    "cli": ["run"],
    "representation": [
        "ad_nonzero_eigenvalues",
        "minimal_polynomial",
        "traceless_element",
        "irreducible_projector",
        "element_to_map",
        "diagram_to_map",
        "TensorMap.rank",
        "TensorMap.compose",
    ],
    "brauer": ["multiply", "compose_diagrams"],
    "young": ["young_symmetrizer", "symmetrizer_norm"],
    "model": [
        "gaussian_expectation",
        "wick_expand",
        "graph_amplitude",
        "duality_check",
        "perturbative_expansion",
        "enumerate_invariants",
        "StrandedGraph.is_connected",
    ],
    "combinatorics": ["face_decomposition", "pairing_sign", "all_pairings"],
    "polynomial": ["Poly.__mul__", "Poly.__add__", "Poly.__call__"],
    "oracle": [
        "numeric_invariant_expectation",
        "ExplicitCovariance.from_propagator",
        "bosonic_moment",
        "berezin_expectation",
        "ExteriorElement.__mul__",
    ],
}


def _nonzeros(m) -> int:
    return sum(len(col) for col in m.cols.values())


# span name -> (extra count name, size of the result)
EXTRAS = {
    "representation.ad_nonzero_eigenvalues": ("found", len),
    "representation.element_to_map": ("nonzeros", _nonzeros),
    "brauer.multiply": ("terms_out", lambda e: len(e.terms)),
    "model.wick_expand": ("graphs", len),
    "model.enumerate_invariants": ("classes", len),
}

# A generator function: calls are counted at the call, work is timed per
# yielded item, and ".items" counts the items.
GENERATORS = {"combinatorics.all_pairings"}

ROOT_SPAN = "cli.run"


def span_names() -> list:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _metric_keys(name: str) -> list:
    """The per-layer metrics of one span name: calls, self time and the
    extra count if it has one."""
    keys = [f"{name}.calls", "cli.self_s" if name == ROOT_SPAN else f"{name}.self_s"]
    if name in EXTRAS:
        keys.append(f"{name}.{EXTRAS[name][0]}")
    if name in GENERATORS:
        keys.append(f"{name}.items")
    return keys


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    return [key for name in span_names() for key in _metric_keys(name)] + ["trace.overhead_ratio"]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_id = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.job = array.array("l")
        self.calls = [0] * len(self.names)
        self.extra = {name: 0 for name in self.names if name in EXTRAS or name in GENERATORS}
        self.stack = []
        self.current_job = -1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self.names.index(name)
        size = EXTRAS.get(name, (None, None))[1]
        calls, extra = self.calls, self.extra

        if name in GENERATORS:

            def traced(*args, **kwargs):
                calls[nid] += 1
                idx = self._open(nid)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                return _TracedIterator(self, nid, name, it)

        else:

            def traced(*args, **kwargs):
                calls[nid] += 1
                idx = self._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if size is not None:
                    extra[name] += size(result)
                return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [dur[i] - child[i] for i in range(n)]

    def summary(self, scales: dict) -> dict:
        """Per-layer metrics of everything traced so far (without the
        overhead ratio), and per job the sum of self times.

        A span's self time counts in the per-layer sums multiplied by the
        speed scale of its job (``harness.REFERENCE_S``); the per-job sums
        are raw seconds."""
        selfs = self.self_times()
        self_s = [0.0] * len(self.names)
        per_job = {}
        for i, s in enumerate(selfs):
            job = self.job[i]
            self_s[self.name_id[i]] += s * scales[job]
            per_job[job] = per_job.get(job, 0.0) + s
        metrics = {}
        for nid, name in enumerate(self.names):
            values = [self.calls[nid], self_s[nid]]
            if name in self.extra:
                values.append(self.extra[name])
            metrics.update(zip(_metric_keys(name), values))
        return {"metrics": metrics, "job_self_s": per_job}

    def write(self, path: str):
        """Spans as five flat arrays, in native byte order and item size,
        after a one-line JSON header."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name_id", "l"], ["start", "d"], ["end", "d"], ["parent", "l"], ["job", "l"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.name_id, self.start, self.end, self.parent, self.job):
                arr.tofile(fh)


class _TracedIterator:
    __slots__ = ("tracer", "nid", "name", "it")

    def __init__(self, tracer, nid, name, it):
        self.tracer, self.nid, self.name, self.it = tracer, nid, name, it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        idx = tracer._open(self.nid)
        try:
            item = next(self.it)
        finally:
            tracer._close(idx)
        tracer.extra[self.name] += 1
        return item


def read_spans(path: str) -> dict:
    """Load a file written by ``Tracer.write`` back into arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for key, code in header["arrays"]:
            arr = array.array(code)
            arr.fromfile(fh, header["count"])
            out[key] = arr
    return out


def install(tracer: Tracer, package: str = "gradedtensor") -> int:
    """Wrap every traced function at every binding; return the number of
    bindings replaced."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    replaced = 0
    for layer, fns in LAYERS.items():
        home = sys.modules[f"{package}.{layer}"]
        for fn in fns:
            name = f"{layer}.{fn}"
            if "." in fn:
                cls_name, attr = fn.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(name, raw.__func__))
                    setattr(cls, attr, wrapped)
                    replaced += 1
                    continue
                wrapped = tracer.wrap(name, raw)
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        setattr(cls, key, wrapped)
                        replaced += 1
                continue
            raw = getattr(home, fn)
            wrapped = tracer.wrap(name, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapped)
                        replaced += 1
    return replaced
