"""Spans and counts recorded around calls into gravent, from outside the package.

Each public function is wrapped at the name its caller looks up (a module
global or a class attribute), so gravent's own code is unchanged. A span
records (id, name, start ns, end ns, parent id); spans stay in memory and
are written out when the traced process ends. A span opened on a worker
thread with nothing open on that thread takes the main thread's innermost
open span as its parent, which is the ``run_sweep`` call that started the
worker.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

#: Fields of one span record.
SPAN_FIELDS = 5


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")  # SPAN_FIELDS int64 per span
        self.counted = array("H")  # one name id per counted call
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid, clock, spans, ids, main = self._name_id(name), time.perf_counter_ns, self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, nid, start, end, parent))

        return traced

    def count(self, name: str, fn):
        """``fn`` wrapped so that each call is counted under ``name``, without a span."""
        nid, counted = self._name_id(name), self.counted

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counted.append(nid)
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner: object, attr: str, name: str) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr)))

    def install(self, *, cli: bool) -> None:
        """Wrap gravent's public functions at their callers' lookup names.

        ``cli=False`` leaves out the config, grid, pool and serialization
        layers, which a library caller of ``report`` never reaches.
        """
        from gravent import cli as cli_mod, config, dynamics, measures, model, potential, sweep

        if cli:
            for owner, attr, name in (
                (cli_mod, "parse_config", "config.parse_config"),
                (cli_mod, "run_sweep", "sweep.run_sweep"),
                (cli_mod, "rows_to_csv", "cli.rows_to_csv"),
                (cli_mod, "rows_to_json", "cli.rows_to_json"),
                (config.RunConfig, "sweep_spec", "config.sweep_spec"),
                (config, "SweepSpec", "sweep.SweepSpec"),
                (sweep.SweepSpec, "point", "sweep.point"),
                (sweep, "evaluate_point", "sweep.evaluate_point"),
                (sweep, "MassiveBody", "model.MassiveBody"),
                (sweep, "PairSystem", "model.PairSystem"),
                (sweep, "assess_validity", "model.assess_validity"),
                (sweep, "report", "measures.report"),
                (sweep, "entanglement_force", "potential.entanglement_force"),
            ):
                self.patch(owner, attr, name)
        for owner, attr, name in (
            (potential, "assess_validity", "model.assess_validity"),
            (potential, "zero_point_width", "model.zero_point_width"),
            (model, "zero_point_width", "model.zero_point_width"),
            (potential, "quantum_correction", "potential.quantum_correction"),
            (dynamics, "corrected_potential", "potential.corrected_potential"),
            (measures, "accumulated_phase", "dynamics.accumulated_phase"),
            (measures, "evolve_closed_form", "dynamics.evolve_closed_form"),
            (measures, "report_from_phases", "measures.report_from_phases"),
            (measures, "von_neumann_entropy", "measures.von_neumann_entropy"),
        ):
            self.patch(owner, attr, name)
        # Validated value objects: every dataclass whose __init__ runs a
        # __post_init__ check is counted once per construction.
        for cls in (model.PhysicalConstants, model.MassiveBody, model.PairSystem,
                    dynamics.TwoQubitState, dynamics.PotentialOperator, dynamics.PhaseSet,
                    measures.DensityMatrix, sweep.AxisSpec, sweep.SweepSpec):
            cls.__post_init__ = self.count("validated", cls.__post_init__)

    def write(self, path: str) -> None:
        """Spans as int64 rows of (id, name id, start ns, end ns, parent id)."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)

    def summary(self) -> dict:
        return {"names": self.names, "counted": np.bincount(
            np.frombuffer(self.counted, dtype=np.uint16), minlength=len(self.names)).tolist()}


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def layer_times(spans: np.ndarray, names: list[str]) -> dict[str, dict[str, int]]:
    """Per span name: calls, inclusive ns and self ns.

    Self time is a span's duration minus the part of it that its child
    spans cover; children on several threads may overlap, so the covered
    part is the union of their intervals.
    """
    rows = spans.reshape(-1, SPAN_FIELDS)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, _, start, end, parent in rows.tolist():
        if parent:
            children[parent].append((start, end))
    out = {name: {"calls": 0, "inclusive_ns": 0, "self_ns": 0} for name in names}
    for sid, nid, start, end, _ in rows.tolist():
        entry = out[names[nid]]
        entry["calls"] += 1
        entry["inclusive_ns"] += end - start
        entry["self_ns"] += end - start - _union_ns(children.get(sid, []))
    return out
