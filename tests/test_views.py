"""``quantum_correction``, ``entanglement_force`` and ``accumulated_phase``
evaluate the kernel's expressions; ``tests/oracles.py`` holds the scalar
forms they replaced. Over the float range, with hbar from 0 to 1e300 and
ratios past 1, the two give the same bits (-0.0 apart from 0.0; a nan is a
nan whatever its sign), the same error class and message, and the same
``RegimeWarning`` texts. No oracle reaches the kernel."""

import dataclasses
import inspect
import math
import sys
import warnings

from hypothesis import given, settings, strategies as st

import oracles
from gravent import accumulated_phase, entanglement_force, kernel, quantum_correction
from gravent.dynamics import initial_product_state
from gravent.errors import GraventError
from gravent.model import MassiveBody, PairSystem, PhysicalConstants

POSITIVE = st.one_of(
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
    st.floats(min_value=1e-20, max_value=1e20),
    st.sampled_from([5e-324, 1e-200, 1e-14, 1e-6, 1.0, 1e3, 1e5, 1e100, sys.float_info.max]),
)
TAU = st.one_of(
    st.floats(),
    st.floats(min_value=0.0, max_value=1e30),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e30]),
)
HBAR = st.sampled_from([1.054571817e-34, 0.0, 1e-300, 1e300])
#: The ratio x = (dr1 + dr2)/d to place d at, so that ratios by the regime
#: threshold and by 1 are met, which a d drawn alone seldom gives.
RATIO = st.one_of(
    st.none(),
    st.floats(min_value=1e-3, max_value=3.0),
    st.sampled_from([0.05, 0.1, 0.15, 0.5, 1.0, 1.5]),
)


def shown(value):
    """The bits of a float, of each float of a result object, or the error."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return tuple(shown(v) for v in dataclasses.astuple(value))
    return value


def outcome(function, *args):
    """What ``function(*args)`` returns or raises, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = shown(function(*args))
        except GraventError as error:
            result = (type(error), str(error))
    return result, [(type(w.message), str(w.message)) for w in caught]


def check_against_oracles(m1, m2, w1, w2, d, tau, hbar, symmetrize):
    system = PairSystem(MassiveBody(m1, 0.0, w1), MassiveBody(m2, 0.0, w2), d,
                        PhysicalConstants(hbar=hbar))
    for view, oracle, args in (
        (quantum_correction, oracles.quantum_correction, (system,)),
        (entanglement_force, oracles.entanglement_force, (system, symmetrize)),
        (accumulated_phase, oracles.accumulated_phase, (system, tau)),
    ):
        got, expected = outcome(view, *args), outcome(oracle, *args)
        assert got == expected, (view.__name__, args)


@settings(max_examples=300, deadline=None)
@given(m1=POSITIVE, m2=POSITIVE, w1=POSITIVE, w2=POSITIVE, d=POSITIVE, ratio=RATIO, tau=TAU,
       hbar=HBAR, symmetrize=st.booleans())
def test_views_match_the_oracles(m1, m2, w1, w2, d, ratio, tau, hbar, symmetrize):
    if ratio is not None and m1 * w1 > 0 and m2 * w2 > 0:
        at_ratio = (math.sqrt(hbar / (m1 * w1)) + math.sqrt(hbar / (m2 * w2))) / ratio
        if 0 < at_ratio < math.inf:
            d = at_ratio
    check_against_oracles(m1, m2, w1, w2, d, tau, hbar, symmetrize)


def test_no_oracle_calls_the_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle called the kernel")

    for name in ("evaluate", "evaluate_system", "evaluate_correction", "time_at_phase"):
        monkeypatch.setattr(kernel, name, forbidden)
    body = MassiveBody(1e-14, 0.0, 1e5)
    system = PairSystem(body, body, 1e-6)
    c, tau = system.constants, 0.2
    oracles.newtonian_potential(1e-14, 1e-14, 1e-6, c)
    oracles.exact_size_corrected_potential(system, 0.0, 0.0)
    oracles.quantum_correction(system)
    oracles.entanglement_force(system, True)
    phases = oracles.accumulated_phase(system, tau)
    op = oracles.operator_from_phases(phases, tau, c)
    oracles.evolve_numeric(initial_product_state(), op, tau, c, steps=2048)
    assert oracles.is_product_state(initial_product_state())
    ran = {"newtonian_potential", "exact_size_corrected_potential", "quantum_correction",
           "entanglement_force", "accumulated_phase", "operator_from_phases", "evolve_numeric",
           "is_product_state"}
    public = {name for name, f in inspect.getmembers(oracles, inspect.isfunction)
              if f.__module__ == oracles.__name__ and not name.startswith("_")}
    assert ran == public
