"""Parameter-sweep engine: grid construction, columnar evaluation in
fixed-size chunks with deterministic ordering, and the analytic time to
maximal entanglement.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import kernel
from .errors import FloatRangeError, InputDomainError, NoEntanglementError
from .model import REGIME_THRESHOLD_DEFAULT, PairSystem, PhysicalConstants
from .potential import FORCE_CLOSED_FORM_UNIT

# The scalar pipeline stays importable from this module for callers that wrap
# it by name (benchmarks/tracer.py does); the engine evaluates through
# kernel.evaluate.
from .measures import report  # noqa: F401
from .model import MassiveBody, assess_validity  # noqa: F401
from .potential import entanglement_force  # noqa: F401

__all__ = [
    "SWEEP_PARAMETERS",
    "AxisSpec",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "evaluate_point",
    "time_to_max_entanglement",
]

#: Sweepable parameters, in canonical grid order (row-major nesting).
SWEEP_PARAMETERS = kernel.PARAMETERS

MAX_GRID_POINTS_DEFAULT = 1_000_000

#: Grid points evaluated and written per kernel call.
CHUNK_POINTS = 1024


@dataclass(frozen=True, slots=True)
class AxisSpec:
    """One swept parameter: count values from start to stop, linear or log."""

    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InputDomainError(f"count must be >= 1, got {self.count!r}")
        if self.spacing not in ("linear", "log"):
            raise InputDomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise InputDomainError("axis endpoints must be finite")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise InputDomainError("log spacing requires positive endpoints")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.start])
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Grid description: axes for swept parameters, fixed values for the rest."""

    axes: dict[str, AxisSpec]
    fixed: dict[str, float]
    r1: float = 0.0
    r2: float = 0.0
    constants: PhysicalConstants = PhysicalConstants()
    regime_threshold: float = REGIME_THRESHOLD_DEFAULT
    symmetrize_force: bool = False
    max_points: int = MAX_GRID_POINTS_DEFAULT
    #: Each swept parameter's values, computed once.
    axis_values: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in self.axes:
            if name not in SWEEP_PARAMETERS:
                raise InputDomainError(f"unknown sweep parameter {name!r}")
        for name in self.fixed:
            if name not in SWEEP_PARAMETERS:
                raise InputDomainError(f"unknown fixed parameter {name!r}")
        missing = [
            name
            for name in SWEEP_PARAMETERS
            if name not in self.axes and name not in self.fixed
        ]
        if missing:
            raise InputDomainError(f"parameters neither swept nor fixed: {missing}")
        total = self.grid_size()
        if total > self.max_points:
            raise InputDomainError(
                f"grid has {total} points, above the cap of {self.max_points}"
            )
        values = {name: axis.values() for name, axis in self.axes.items()}
        object.__setattr__(self, "axis_values", values)

    def grid_size(self) -> int:
        size = 1
        for axis in self.axes.values():
            size *= axis.count
        return size

    def point(self, index: int) -> dict[str, float]:
        """Parameter values at flat grid index, canonical row-major order."""
        values = dict(self.fixed)
        remainder = index
        for name in reversed(SWEEP_PARAMETERS):
            if name in self.axis_values:
                axis_values = self.axis_values[name]
                remainder, pos = divmod(remainder, len(axis_values))
                values[name] = float(axis_values[pos])
        return values

    def inputs(self, indices: np.ndarray) -> kernel.Inputs:
        """The kernel's inputs at flat grid ``indices``, ordered as in ``point``:
        per parameter, its distinct values and each point's position in them."""
        inputs = {}
        remainder = indices
        for name in reversed(SWEEP_PARAMETERS):
            if name in self.axis_values:
                values = self.axis_values[name]
                remainder, pos = np.divmod(remainder, len(values))
            else:
                values = np.array([self.fixed[name]], dtype=np.float64)
                pos = np.zeros(len(indices), dtype=np.intp)
            inputs[name] = (values, pos)
        return inputs


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One grid point, flattened: inputs, validity, measures, forces, status."""

    index: int
    m1: float
    m2: float
    r1: float
    r2: float
    omega1: float
    omega2: float
    d: float
    tau: float
    ratio_x: float = math.nan
    in_regime: bool = False
    regime_threshold: float = math.nan
    delta_phi: float = math.nan
    purity_full: float = math.nan
    purity_reduced: float = math.nan
    epsilon: float = math.nan
    entropy_nats: float = math.nan
    entropy_bits: float = math.nan
    separable_by_measures: bool = False
    separable_by_two_pi_criterion: bool = False
    force_closed_form: float = math.nan
    force_closed_form_unit: str = FORCE_CLOSED_FORM_UNIT
    force_gradient: float = math.nan
    status: str = "ok"


ROW_FIELD_NAMES = tuple(f.name for f in fields(SweepRow))
#: Each row field's type name: "int", "float", "bool" or "str".
ROW_FIELD_TYPES = tuple(f.type for f in fields(SweepRow))
_ROW_DEFAULTS = {f.name: f.default for f in fields(SweepRow) if f.default is not MISSING}


def _row_columns(
    indices: np.ndarray,
    inputs: kernel.Inputs,
    batch: kernel.Batch,
    r1: float,
    r2: float,
    regime_threshold: float,
) -> list[list]:
    """One list per row field, in ROW_FIELD_NAMES order, for the points at
    ``indices``; a failed point keeps its inputs and gets the row defaults
    and its error as status."""
    n = len(indices)
    columns = {
        name: (values if pos is None else values[pos]).tolist() for name, (values, pos) in inputs.items()
    }
    columns.update((name, column.tolist()) for name, column in batch.values.items())
    columns.update(
        index=indices.tolist(),
        r1=[r1] * n,
        r2=[r2] * n,
        regime_threshold=[regime_threshold] * n,
        force_closed_form_unit=[FORCE_CLOSED_FORM_UNIT] * n,
        status=["ok"] * n,
    )
    for i in np.flatnonzero(batch.failed).tolist():
        for name, default in _ROW_DEFAULTS.items():
            columns[name][i] = default
        columns["status"][i] = batch.status(i)
    return [columns[name] for name in ROW_FIELD_NAMES]


def evaluate_point(
    index: int,
    params: dict[str, float],
    r1: float,
    r2: float,
    constants: PhysicalConstants,
    regime_threshold: float = REGIME_THRESHOLD_DEFAULT,
    symmetrize_force: bool = False,
) -> SweepRow:
    """Run the full pipeline at one parameter point; failures land in status.

    No warning is emitted: the row's in_regime column carries the regime.
    """
    inputs = kernel.single(**{name: params[name] for name in SWEEP_PARAMETERS})
    batch = kernel.evaluate(inputs, r1, r2, constants, regime_threshold, symmetrize_force)
    columns = _row_columns(np.array([index]), inputs, batch, r1, r2, regime_threshold)
    return SweepRow(*(column[0] for column in columns))


class SweepResult(Sequence):
    """The rows of a sweep, ordered by grid index.

    Rows are evaluated CHUNK_POINTS at a time when read, so no more than one
    chunk of them is held at once; reading the result twice evaluates it
    twice.
    """

    def __init__(self, spec: SweepSpec) -> None:
        self.spec = spec
        self._size = spec.grid_size()

    def __len__(self) -> int:
        return self._size

    def _columns(self, indices: np.ndarray) -> list[list]:
        spec = self.spec
        inputs = spec.inputs(indices)
        batch = kernel.evaluate(
            inputs, spec.r1, spec.r2, spec.constants, spec.regime_threshold, spec.symmetrize_force
        )
        return _row_columns(indices, inputs, batch, spec.r1, spec.r2, spec.regime_threshold)

    def chunks(self) -> Iterator[list[list]]:
        """Consecutive chunks of rows, each as one list per row field."""
        for start in range(0, self._size, CHUNK_POINTS):
            yield self._columns(np.arange(start, min(start + CHUNK_POINTS, self._size)))

    def __iter__(self) -> Iterator[SweepRow]:
        for columns in self.chunks():
            yield from (SweepRow(*values) for values in zip(*columns))

    def __getitem__(self, index):
        if isinstance(index, slice):
            indices = np.arange(self._size)[index]
            return [SweepRow(*values) for values in zip(*self._columns(indices))]
        position = range(self._size)[index]
        return SweepRow(*(column[0] for column in self._columns(np.array([position]))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SweepResult, list)):
            return NotImplemented
        return list(self) == list(other)


def row_chunks(rows: Iterable[SweepRow]) -> Iterator[list[list]]:
    """Rows as consecutive chunks, each as one list per row field."""
    if isinstance(rows, SweepResult):
        yield from rows.chunks()
        return
    rows = list(rows)
    if rows:
        yield [[getattr(row, name) for row in rows] for name in ROW_FIELD_NAMES]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """The whole grid as a sized result, rows ordered by grid index.

    Evaluation is vectorised and single-threaded: ``workers`` is validated
    and accepted for compatibility, and the result does not depend on it.
    Per-point failures are recorded in the row's status and never abort
    the sweep.
    """
    if workers < 1:
        raise InputDomainError(f"workers must be >= 1, got {workers!r}")
    return SweepResult(spec)


def time_to_max_entanglement(sys: PairSystem) -> float:
    """Smallest positive time at which the reduced entropy reaches ln(2).

    The entangling phase grows linearly in time, so the first maximum sits
    at tau* = (pi/2)/rate, where rate is the kernel's delta_phi at tau = 1 s;
    as hbar cancels, that is (pi/2)*hbar/|delta_v_g|. The system meets the
    checks report mode makes and raises what they raise. With hbar = 0, or
    a rate that underflows to 0, the correction vanishes and
    ``NoEntanglementError`` is raised; a tau* past the float64 range is a
    ``FloatRangeError``.
    """
    if sys.constants.hbar == 0.0:
        raise NoEntanglementError("quantum correction is zero; entanglement never accumulates")
    batch = kernel.evaluate_system(sys, 1.0)
    if batch.failed[0]:
        raise batch.error(0)
    rate = batch.values["delta_phi"].item()
    if rate == 0.0:
        raise NoEntanglementError("quantum correction is zero; entanglement never accumulates")
    tau_star = (math.pi / 2.0) / rate
    if tau_star == math.inf:
        raise FloatRangeError(f"tau* = (pi/2)/{rate!r} overflows")
    return tau_star
