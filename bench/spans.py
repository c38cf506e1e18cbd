"""Spans and counters recorded from outside the package.

Both recorders work by rebinding module attributes for the length of a
pass, so `src/` carries no instrumentation. The CLI imports pipeline
functions by name, so each function is rebound in the module that calls
it (for example `solvcohom.cli.build_invariant_complex`, and
`restrict_complex` both in `solvcohom.lattice` and in `solvcohom.oracle`).

`SpanTracer` records timing only. `WorkCounter` runs in a separate,
untimed pass: it counts scalar operations by wrapping `GaussianRational`
methods and reads sizes off the objects the layers return. It reads
scalars through `.re`/`.im` only, so its own scans do not show up in the
scalar counts.
"""
from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import solvcohom.cecomplex
import solvcohom.cli
import solvcohom.lattice
import solvcohom.oracle
from solvcohom.scalars import GaussianRational

# (module, attribute, layer). A layer may be entered through several names.
SPAN_POINTS = [
    (solvcohom.cli, "main", "cli.main"),
    (solvcohom.cli, "load_instance", "instances.load"),
    (solvcohom.cli, "validate_instance", "instances.validate"),
    (solvcohom.cli, "build_representation", "instances.representation"),
    (solvcohom.cli, "build_weight_assignment", "weights.infer"),
    (solvcohom.cli, "build_invariant_complex", "weights.build"),
    (solvcohom.cli, "select_de_rham", "lattice.select"),
    (solvcohom.cli, "select_dolbeault", "lattice.select"),
    (solvcohom.lattice, "restrict_complex", "cecomplex.restrict"),
    (solvcohom.oracle, "restrict_complex", "cecomplex.restrict"),
    (solvcohom.cli, "cohomology", "cecomplex.cohomology"),
    (solvcohom.oracle, "cohomology", "cecomplex.cohomology"),
    (solvcohom.cecomplex, "rank_and_kernel", "linalg.rank_kernel"),
    (solvcohom.cli, "verify_quasi_iso", "oracle.verify"),
    (solvcohom.oracle, "sector_cohomology_full", "oracle.sector"),
]


class _Rebinder:
    """Installs wrappers over module attributes and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _rebind(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SpanTracer(_Rebinder):
    """In-memory spans: [layer, parent id, answer id, pass id, start, end]."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._answers = 0
        self.pass_id = 0

    def __enter__(self):
        for owner, attr, layer in SPAN_POINTS:
            self._rebind(owner, attr, self._wrap(layer, getattr(owner, attr)))
        return self

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                # A root span starts a new answer; its spans share its id.
                self._answers += 1
            record = [layer, stack[-1] if stack else -1, self._answers,
                      self.pass_id, perf_counter(), None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()

        return traced

    def layer_times(self, pass_id: int, factors) -> dict[str, dict[str, float]]:
        """Per layer: total time, self time and span count in one pass.

        Each span's duration is multiplied by factors[answer - 1], the
        speed scaling of the answer it belongs to.
        """
        duration = [(end - start) * factors[answer - 1]
                    for _, _, answer, _, start, end in self.spans]
        child_time = [0.0] * len(self.spans)
        for idx, (_, parent, _, p, _, _) in enumerate(self.spans):
            if p == pass_id and parent >= 0:
                child_time[parent] += duration[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, (name, _, _, p, _, _) in enumerate(self.spans):
            if p != pass_id:
                continue
            acc = out.setdefault(name, {"total": 0.0, "self": 0.0, "count": 0})
            acc["total"] += duration[idx]
            acc["self"] += duration[idx] - child_time[idx]
            acc["count"] += 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for idx, (name, parent, answer, p, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent, "answer": answer,
                    "pass": p, "start": start, "end": end,
                }) + "\n")


def _nnz(matrix) -> int:
    return sum(1 for row in matrix.rows for x in row if x.re or x.im)


SCALAR_OPS = {
    "__bool__": "scalars.zero_tests",
    "__mul__": "scalars.mults",
    "__add__": "scalars.adds",
    "__sub__": "scalars.adds",
    "__truediv__": "scalars.inverses",
}


class WorkCounter(_Rebinder):
    """Exact work counts for one untimed pass."""

    def __init__(self):
        super().__init__()
        self.counts: Counter = Counter()

    def __enter__(self):
        counts = self.counts

        def counted(key, method):
            def wrapper(*args):
                counts[key] += 1
                return method(*args)

            return wrapper

        for method, key in SCALAR_OPS.items():
            self._rebind(GaussianRational, method, counted(key, getattr(GaussianRational, method)))

        rank_and_kernel = solvcohom.cecomplex.rank_and_kernel

        def counted_rank_and_kernel(matrix, *args, **kwargs):
            counts["linalg.input_entries"] += matrix.nrows * matrix.ncols
            counts["linalg.input_nnz"] += _nnz(matrix)
            return rank_and_kernel(matrix, *args, **kwargs)

        self._rebind(solvcohom.cecomplex, "rank_and_kernel", counted_rank_and_kernel)

        build = solvcohom.cli.build_invariant_complex

        def counted_build(*args, **kwargs):
            ic = build(*args, **kwargs)
            counts["ic.cochains"] += sum(ic.complex.dims)
            counts["ic.nnz"] += sum(_nnz(d) for d in ic.complex.differentials)
            counts["ic.tags"] += len(ic.distinct_tags())
            return ic

        self._rebind(solvcohom.cli, "build_invariant_complex", counted_build)

        def counted_select(select):
            def wrapper(ic, lat):
                sel = select(ic, lat)
                counts["select.invariant"] += sum(ic.complex.dims)
                counts["select.kept"] += sum(sel.complex.dims)
                return sel

            return wrapper

        for attr in ("select_de_rham", "select_dolbeault"):
            self._rebind(solvcohom.cli, attr, counted_select(getattr(solvcohom.cli, attr)))
        return self
