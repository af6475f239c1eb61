"""Parameter-sweep engine: grid construction, columnar evaluation in
fixed-size chunks with deterministic ordering, and the analytic time to
maximal entanglement.
"""

from __future__ import annotations

import importlib
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import kernel
from .errors import InputDomainError
from .model import (
    REGIME_THRESHOLD_DEFAULT, PairSystem, PhysicalConstants, _bool, _count, _real, _require_type,
)

# The scalar pipeline stays reachable from this module for callers that wrap
# it by name (benchmarks/tracer.py does) until ROADMAP item 6 removes it; the
# engine evaluates through kernel.evaluate. report and entanglement_force load
# on first access (__getattr__ below), so a sweep loads no scalar module.
from .model import MassiveBody, assess_validity  # noqa: F401

_SCALAR = {"report": "measures", "entanglement_force": "potential"}


def __getattr__(name: str):
    try:
        module = _SCALAR[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


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

#: The most points a grid may hold.
MAX_GRID_POINTS = 1_000_000

#: Grid points evaluated and written per kernel call.
CHUNK_POINTS = 1024


@dataclass(frozen=True, slots=True)
class AxisSpec:
    """One swept parameter: count float64 values from start to stop, linear or
    log, whatever real number types the endpoints are; count is kept as its int.
    A linear axis whose span ``stop - start`` overflows float64 raises ``InputDomainError``."""

    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        _count("count", self.count)
        object.__setattr__(self, "count", operator.index(self.count))
        if self.spacing not in ("linear", "log"):
            raise InputDomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        start, stop = _real("start", self.start), _real("stop", self.stop)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise InputDomainError("axis endpoints must be finite")
        if self.spacing == "log" and (start <= 0 or stop <= 0):
            raise InputDomainError("log spacing requires positive endpoints")
        if self.spacing == "linear" and math.isinf(stop - start):
            raise InputDomainError(f"axis span {stop!r} - {start!r} overflows")

    def values(self) -> np.ndarray:
        """The axis's points: the first is ``start`` and, of two or more, the
        last is ``stop``, exactly."""
        space = np.geomspace if self.spacing == "log" else np.linspace
        start = float(self.start)
        values = space(start, float(self.stop), self.count)
        values[0] = start  # np.linspace gives 0.0 for a start of -0.0
        return values


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Grid description: axes for swept parameters, fixed values for the rest.
    Each fixed value, radius and regime threshold is kept as its float, which
    the kernel checks and the rows carry. Axes or fixed values that are not a
    mapping, an axis that is not an ``AxisSpec``, a fixed value, radius or
    regime threshold that is not a real number or is an int outside the
    float64 range, constants that are not ``PhysicalConstants``, a
    ``symmetrize_force`` that is not a bool, and a grid of more than
    MAX_GRID_POINTS points raise ``InputDomainError``."""

    axes: dict[str, AxisSpec]
    fixed: dict[str, float]
    r1: float = 0.0
    r2: float = 0.0
    constants: PhysicalConstants = PhysicalConstants()
    regime_threshold: float = REGIME_THRESHOLD_DEFAULT
    symmetrize_force: bool = False
    #: Each swept parameter's values, computed once.
    axis_values: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_type("axes", self.axes, Mapping)
        _require_type("fixed", self.fixed, Mapping)
        for name, axis in self.axes.items():
            if name not in SWEEP_PARAMETERS:
                raise InputDomainError(f"unknown sweep parameter {name!r}")
            _require_type(f"axis {name!r}", axis, AxisSpec)
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
        fixed = {name: _real(name, self.fixed[name]) for name in SWEEP_PARAMETERS
                 if name in self.fixed}
        object.__setattr__(self, "fixed", fixed)
        for name in ("r1", "r2", "regime_threshold"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        _require_type("constants", self.constants, PhysicalConstants)
        _bool("symmetrize_force", self.symmetrize_force)
        total = self.grid_size()
        if total > MAX_GRID_POINTS:
            raise InputDomainError(f"grid has {total} points, above the cap of {MAX_GRID_POINTS}")
        values = {name: axis.values() for name, axis in self.axes.items()}
        object.__setattr__(self, "axis_values", values)

    def grid_size(self) -> int:
        size = 1
        for axis in self.axes.values():
            size *= axis.count
        return size

    def point(self, index: int) -> dict[str, float]:
        """Parameter values at flat grid index, canonical row-major order. An
        index outside the grid raises ``IndexError``, as ``SweepResult`` does;
        a negative one counts from the end."""
        position = range(self.grid_size())[index]
        return {name: float(column[0]) for name, column in self.inputs(np.array([position])).items()}

    def inputs(self, indices: np.ndarray) -> kernel.Inputs:
        """The kernel's inputs at flat grid ``indices``, ordered as in ``point``:
        per parameter, a float64 column of its value at each point."""
        inputs = {}
        remainder = indices
        for name in reversed(SWEEP_PARAMETERS):
            if name in self.axis_values:
                values = self.axis_values[name]
                remainder, pos = np.divmod(remainder, len(values))
                inputs[name] = values[pos]
            else:
                inputs[name] = np.full(len(indices), self.fixed[name], dtype=np.float64)
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
    force_closed_form_unit: str = kernel.FORCE_CLOSED_FORM_UNIT
    force_gradient: float = math.nan
    status: str = "ok"


ROW_FIELD_NAMES = tuple(f.name for f in fields(SweepRow))
#: Each row field's type name: "int", "float", "bool" or "str".
ROW_FIELD_TYPES = tuple(f.type for f in fields(SweepRow))
_ROW_DEFAULTS = {f.name: f.default for f in fields(SweepRow) if f.default is not MISSING}
#: The row fields the kernel computes.
_KERNEL_FIELDS = tuple(
    name for name in _ROW_DEFAULTS
    if name not in ("regime_threshold", "force_closed_form_unit", "status")
)


#: The row fields without a default: the index and the inputs.
_REQUIRED_FIELDS = len(ROW_FIELD_NAMES) - len(_ROW_DEFAULTS)


def _rows(columns: list) -> Iterator[SweepRow]:
    """The rows of one chunk of columns, Python-typed; a failed row holds
    SweepRow's own defaults."""
    lists = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns]
    for values in zip(*lists):
        status = values[-1]
        if status == "ok":
            yield SweepRow(*values)
        else:
            yield SweepRow(*values[:_REQUIRED_FIELDS], status=status)


def evaluate_point(
    index: int,
    params: dict[str, float],
    r1: float,
    r2: float,
    constants: PhysicalConstants,
    regime_threshold: float = REGIME_THRESHOLD_DEFAULT,
    symmetrize_force: bool = False,
) -> SweepRow:
    """The row at one parameter point, as a one-point sweep gives it, at
    ``index``; failures land in status.

    No warning is emitted: the row's in_regime column carries the regime.
    A parameter that is not a real number raises ``InputDomainError``, as
    ``SweepSpec`` does, and so does an ``index`` that is not an integer >= 0.
    """
    _count("index", index, least=0)
    spec = SweepSpec(axes={}, fixed=dict(params), r1=r1, r2=r2, constants=constants,
                     regime_threshold=regime_threshold, symmetrize_force=symmetrize_force)
    (row,) = _rows(SweepResult(spec)._columns(np.array([index])))
    return row


class SweepResult(Sequence):
    """The rows of a sweep, ordered by grid index.

    Rows are evaluated CHUNK_POINTS at a time when iterated, so no more than
    one chunk of them is held at once; a slice ``result[a:b]`` is evaluated
    in one kernel call and held whole. Reading the result twice evaluates it
    twice. ``chunks`` gives each chunk as the writers take it, one column per
    row field: the index array, a float64 array per float field and a bool
    array per bool field, holding the row defaults nan and False where a
    point failed, and a list per str field, the status naming each failure.
    Iterating and indexing give Python-typed ``SweepRow`` objects.
    """

    def __init__(self, spec: SweepSpec) -> None:
        self.spec = spec
        self._size = spec.grid_size()

    def __len__(self) -> int:
        return self._size

    def _columns(self, indices: np.ndarray) -> list:
        """One column per row field, in ROW_FIELD_NAMES order, for the points
        at ``indices``. A failed point keeps its inputs and gets the row
        defaults and its error as status."""
        spec = self.spec
        inputs = spec.inputs(indices)
        batch = kernel.evaluate(
            inputs, spec.r1, spec.r2, spec.constants, spec.regime_threshold, spec.symmetrize_force
        )
        n, failed = len(indices), batch.failed
        columns = dict(inputs)
        columns.update(
            (name, np.where(failed, _ROW_DEFAULTS[name], batch.values[name])) for name in _KERNEL_FIELDS
        )
        status = ["ok"] * n
        for i in np.flatnonzero(failed).tolist():
            error = batch.error(i)
            status[i] = f"error: {type(error).__name__}: {error}"
        columns.update(
            index=indices,
            r1=np.full(n, spec.r1, dtype=np.float64),
            r2=np.full(n, spec.r2, dtype=np.float64),
            regime_threshold=np.where(failed, math.nan, spec.regime_threshold),
            force_closed_form_unit=[kernel.FORCE_CLOSED_FORM_UNIT] * n,
            status=status,
        )
        return [columns[name] for name in ROW_FIELD_NAMES]

    def chunks(self) -> Iterator[list]:
        """Consecutive chunks of rows, each as one column per row field."""
        for start in range(0, self._size, CHUNK_POINTS):
            yield self._columns(np.arange(start, min(start + CHUNK_POINTS, self._size)))

    def __iter__(self) -> Iterator[SweepRow]:
        for columns in self.chunks():
            yield from _rows(columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            indices = np.arange(self._size)[index]
            return list(_rows(self._columns(indices)))
        position = range(self._size)[index]
        (row,) = _rows(self._columns(np.array([position])))
        return row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SweepResult, list)):
            return NotImplemented
        return list(self) == list(other)


#: The column type of each row field type but "str", whose columns are lists.
_COLUMN_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}


def row_chunks(rows: Iterable[SweepRow]) -> Iterator[list]:
    """Rows as consecutive chunks, each as one column per row field, typed as
    ``SweepResult.chunks`` types them: a float field holds float64, whatever
    number a hand-built row gives it."""
    if isinstance(rows, SweepResult):
        yield from rows.chunks()
        return
    rows = list(rows)
    if rows:
        columns = ([getattr(row, name) for row in rows] for name in ROW_FIELD_NAMES)
        yield [
            column if kind == "str" else np.array(column, dtype=_COLUMN_DTYPES[kind])
            for kind, column in zip(ROW_FIELD_TYPES, columns)
        ]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """The whole grid as a sized result, rows ordered by grid index.

    Evaluation is vectorised and single-threaded: ``workers``, an integer
    >= 1, is validated and accepted for compatibility, and the result does
    not depend on it. Per-point failures are recorded in the row's status
    and never abort the sweep.
    """
    _count("workers", workers)
    return SweepResult(spec)


def time_to_max_entanglement(sys: PairSystem) -> float:
    """Smallest positive time at which the reduced entropy reaches ln(2).

    The entangling phase grows linearly in time, so the first maximum sits
    at tau* = (pi/2)/rate, where rate is the kernel's delta_phi per second;
    as hbar cancels, that is (pi/2)*hbar/|delta_v_g|. The kernel solves for
    it in one evaluation (``kernel.evaluate_system``, which
    ``delta_phi_to_tau`` shares), so tau-star fails as report mode fails at
    tau*. With hbar = 0, or a rate that underflows to 0, the correction
    vanishes and ``NoEntanglementError`` is raised; a tau* past the float64
    range is a ``FloatRangeError``.
    """
    *_, tau_star, _, _ = kernel.evaluate_system(sys, math.pi / 2.0, label="tau* = (pi/2)")
    return tau_star
