import copy
import dataclasses
import inspect
import math
import pickle
import re
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravent.dynamics import PhaseSet, report_from_phases
from gravent.errors import GraventError, InputDomainError
from gravent.model import MassiveBody, PairSystem, PhysicalConstants, zero_point_width
from gravent.potential import assess_validity
from gravent.sweep import SweepSpec, run_sweep

# sqrt(hbar/(m*omega)) at m=1e-14 kg, omega=1e5 rad/s, 50-digit arithmetic
ZPW_REF = 3.2474171536776731142e-13
# 2*ZPW_REF / 1e-6
RATIO_REF = 6.4948343073553462285e-7

# Positive values whose floats underflow to 0.0, which the checks reject.
UNDERFLOWING = [Fraction(1, 10**400), np.longdouble("1e-400")]


def reference_system(d=1e-6, constants=None):
    body = MassiveBody(mass=1e-14, radius=0.0, omega=1e5)
    return PairSystem(body, body, d, constants or PhysicalConstants())


class TestConstruction:
    def test_defaults_are_codata(self):
        c = PhysicalConstants()
        assert c.G == 6.67430e-11
        assert c.hbar == 1.054571817e-34

    def test_constants_overridable(self):
        c = PhysicalConstants(G=1.0, hbar=2.0)
        assert (c.G, c.hbar) == (1.0, 2.0)

    def test_classical_limit_hbar_zero_allowed(self):
        assert PhysicalConstants(hbar=0.0).hbar == 0.0

    @pytest.mark.parametrize("kwargs", [dict(G=0.0), dict(G=-1.0), dict(hbar=-1e-34),
                                        dict(G=math.inf), dict(hbar=math.nan),
                                        dict(hbar=10**400), dict(hbar="1"), dict(G=None)])
    def test_bad_constants_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(InputDomainError, match=f"^{name} "):
            PhysicalConstants(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(mass=0.0), dict(mass=-1.0),
                                        dict(radius=-1.0), dict(omega=0.0),
                                        dict(omega=math.inf), dict(radius=10**400),
                                        dict(mass="1"), dict(mass=None), dict(omega=1j)]
                             + [{name: v} for name in ("mass", "omega") for v in UNDERFLOWING])
    def test_bad_body_rejected(self, kwargs):
        base = dict(mass=1e-14, radius=0.0, omega=1e5)
        base.update(kwargs)
        (name,) = kwargs
        with pytest.raises(InputDomainError, match=f"^{name} "):
            MassiveBody(**base)

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan, pytest.param(10**400, id="int-past-float64"),
                                   "1e-6", None, *UNDERFLOWING])
    def test_bad_separation_rejected(self, d):
        body = MassiveBody(1e-14, 0.0, 1e5)
        with pytest.raises(InputDomainError, match="^separation_d "):
            PairSystem(body, body, d)

    @pytest.mark.parametrize("name", ["body1", "body2", "constants"])
    def test_part_of_the_wrong_type_rejected(self, name):
        body = MassiveBody(1e-14, 0.0, 1e5)
        parts = dict(body1=body, body2=body, separation_d=1e-6, constants=PhysicalConstants())
        parts[name] = None
        with pytest.raises(InputDomainError, match=f"^{name} "):
            PairSystem(**parts)


def status(build) -> str:
    """The error ``build`` raises, as a sweep row's status gives it, or the
    status of the row it returns."""
    try:
        return build().status
    except GraventError as error:
        return f"error: {type(error).__name__}: {error}"


SWEEP_POINT = dict(m1=1e-14, m2=1e-14, omega1=1e5, omega2=1e5, d=1e-6, tau=1.0)


@pytest.mark.parametrize("build, first", [
    (lambda: MassiveBody(math.nan, "1", 1.0), "mass must be finite, got nan"),
    (lambda: MassiveBody(-1.0, -1.0, math.nan), "omega must be finite, got nan"),
    (lambda: PhysicalConstants(G=-1.0, hbar=math.nan), "hbar must be finite, got nan"),
    (lambda: zero_point_width(-1.0, math.nan, PhysicalConstants()), "omega must be finite, got nan"),
    (lambda: PhaseSet(math.nan, 1.0, -1.0), "phi must be finite, got nan"),
    (lambda: run_sweep(SweepSpec(axes={}, fixed=dict(SWEEP_POINT, m1=-1.0, omega1=math.nan),
                                 r1=-1.0))[0], "omega must be finite, got nan"),
], ids=["body-type-after-mass", "body-signs-after-omega", "constants", "width", "phases", "sweep"])
def test_first_error_of_an_input_with_several_faults(build, first):
    """Each value's finiteness is checked before any sign, and a field's type
    only once the fields before it have passed."""
    assert status(build) == f"error: InputDomainError: {first}"


@pytest.mark.parametrize("value", [1, 10**20, Fraction(1, 3), Fraction(10**20), np.float32(0.5)],
                         ids=["int", "big-int", "Fraction", "big-Fraction", "float32"])
def test_phase_set_keeps_each_phase_as_a_float(value):
    """A real phase is stored as the float it converts to, so the density-matrix
    route measures it as it measures that float."""
    phases = PhaseSet(value, value, value)
    assert all(type(getattr(phases, name)) is float for name in ("phi", "phi_prime", "delta_phi"))
    as_float = float(value)
    assert report_from_phases(phases) == report_from_phases(PhaseSet(as_float, as_float, as_float))


BODY = dict(mass=1e-14, radius=1e-7, omega=1e5)


class FloatSubclass(float):
    pass


class BodySubclass(MassiveBody):
    __slots__ = ()


class ConstantsSubclass(PhysicalConstants):
    __slots__ = ()


def body(**changes):
    return MassiveBody(**dict(BODY, **changes))


def pair(**changes):
    parts = dict(body1=body(), body2=body(), separation_d=1e-6, constants=PhysicalConstants())
    return PairSystem(**dict(parts, **changes))


#: Each float field, the constructor that takes it, and the bound its
#: ordered checks apply.
FLOAT_FIELDS = [(body, "mass", "positive"), (body, "radius", "non-negative"),
                (body, "omega", "positive"), (pair, "separation_d", "positive")]
FLOAT_FIELD_IDS = [name for _, name, _ in FLOAT_FIELDS]


#: Single faults in a float field, each with what the ordered checks raise.
SINGLE_FAULTS = {
    "nan": (math.nan, "{name} must be finite, got nan"),
    "inf": (math.inf, "{name} must be finite, got inf"),
    "-inf": (-math.inf, "{name} must be finite, got -inf"),
    "0.0": (0.0, "{name} must be {bound}, got 0.0"),
    "-0.0": (-0.0, "{name} must be {bound}, got -0.0"),
    "negative": (-1.0, "{name} must be {bound}, got -1.0"),
    "bool": (True, "{name} must be a real number, got True"),
    "None": (None, "{name} must be a real number, got None"),
    "str": ("1", "{name} must be a real number, got '1'"),
    "int-past-float64": (10**400, "{name} is outside the float64 range"),
}


class TestValueObjects:
    """MassiveBody and PairSystem stay the immutable values they were: the
    same constructor, equality, copies and errors, and one check per
    construction."""

    def test_keyword_and_positional_construction(self):
        b = MassiveBody(**BODY)
        assert b == MassiveBody(1e-14, 1e-7, 1e5)
        assert (b.mass, b.radius, b.omega) == (1e-14, 1e-7, 1e5)
        sys = PairSystem(b, b, 1e-6)
        assert sys == PairSystem(body1=b, body2=b, separation_d=1e-6)
        assert sys.constants == PhysicalConstants()
        assert sys.constants is PairSystem(b, b, 2e-6).constants
        other = PhysicalConstants(G=1.0, hbar=2.0)
        assert PairSystem(b, b, 1e-6, other).constants is other
        assert PairSystem(b, b, 1e-6, constants=other) == PairSystem(b, b, 1e-6, other)

    def test_signatures(self):
        P = inspect.Parameter
        assert list(inspect.signature(MassiveBody).parameters.values()) == [
            P(name, P.POSITIONAL_OR_KEYWORD, annotation="float")
            for name in ("mass", "radius", "omega")
        ]
        assert list(inspect.signature(PairSystem).parameters.values()) == [
            P("body1", P.POSITIONAL_OR_KEYWORD, annotation="MassiveBody"),
            P("body2", P.POSITIONAL_OR_KEYWORD, annotation="MassiveBody"),
            P("separation_d", P.POSITIONAL_OR_KEYWORD, annotation="float"),
            P("constants", P.POSITIONAL_OR_KEYWORD, default=PhysicalConstants(),
              annotation="PhysicalConstants"),
        ]
        for cls in (MassiveBody, PairSystem):
            assert typing.get_type_hints(cls.__init__)["return"] is type(None)
            assert [f.name for f in dataclasses.fields(cls)] == list(
                inspect.signature(cls).parameters)

    @pytest.mark.parametrize("make, other", [
        (body, lambda: body(omega=2e5)), (pair, lambda: pair(separation_d=2e-6)),
    ], ids=["MassiveBody", "PairSystem"])
    def test_equality_hash_and_copies(self, make, other):
        value = make()
        assert value == make() and hash(value) == hash(make())
        assert value != other() and value is not make()
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)),
                       dataclasses.replace(value)):
            assert copied == value and hash(copied) == hash(value)
            assert type(copied) is type(value)
        assert dataclasses.replace(value, **{
            f.name: getattr(other(), f.name) for f in dataclasses.fields(value)}) == other()

    @pytest.mark.parametrize("make", [body, pair], ids=["MassiveBody", "PairSystem"])
    def test_fields_are_frozen(self, make):
        value = make()
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, 1.0)
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1.0

    def test_post_init_runs_once_per_construction(self, monkeypatch):
        calls = []
        for cls in (MassiveBody, PairSystem):
            check = cls.__post_init__

            def counting(self, check=check):
                calls.append(type(self).__name__)
                return check(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        b = MassiveBody(**BODY)
        MassiveBody(1e-14, 1e-7, 1e5)
        assert calls == ["MassiveBody"] * 2
        calls.clear()
        sys = PairSystem(b, b, 1e-6)
        PairSystem(body1=b, body2=b, separation_d=1e-6, constants=PhysicalConstants())
        sys.swapped()
        dataclasses.replace(sys, separation_d=2e-6)
        assert calls == ["PairSystem"] * 4
        calls.clear()
        dataclasses.replace(b, mass=2e-14)
        assert calls == ["MassiveBody"]

    @pytest.mark.parametrize("make, name, bound", FLOAT_FIELDS, ids=FLOAT_FIELD_IDS)
    @pytest.mark.parametrize("value", [3, np.float64(2.5), Fraction(1, 3), FloatSubclass(4.0),
                                       5e-324, 1.7976931348623157e308],
                             ids=["int", "float64", "Fraction", "float-subclass", "subnormal", "max"])
    def test_real_numbers_are_stored_as_given(self, make, name, bound, value):
        assert getattr(make(**{name: value}), name) is value

    @pytest.mark.parametrize("name", ["body1", "body2", "constants"])
    def test_part_subclasses_are_stored_as_given(self, name):
        part = ConstantsSubclass() if name == "constants" else BodySubclass(**BODY)
        assert getattr(pair(**{name: part}), name) is part

    @pytest.mark.parametrize("make, name, bound", FLOAT_FIELDS, ids=FLOAT_FIELD_IDS)
    @pytest.mark.parametrize("value, message", list(SINGLE_FAULTS.values()), ids=list(SINGLE_FAULTS))
    def test_single_fault_raises_what_the_ordered_checks_raise(self, make, name, bound, value,
                                                               message):
        if bound == "non-negative" and value == 0.0:  # a radius may be 0.0 or -0.0
            assert getattr(make(**{name: value}), name) is value
            return
        message = message.format(name=name, bound=bound)
        with pytest.raises(InputDomainError, match=f"^{re.escape(message)}$"):
            make(**{name: value})

    @pytest.mark.parametrize("name, value", [
        *((name, value) for name in ("body1", "body2") for value in ("x", 1.0, PhysicalConstants())),
        *(("constants", value) for value in ("x", 1.0, MassiveBody(**BODY))),
    ])
    def test_part_of_a_wrong_type_raises_its_type_error(self, name, value):
        expected = "PhysicalConstants" if name == "constants" else "MassiveBody"
        message = f"{name} must be of type {expected}, got {value!r}"
        with pytest.raises(InputDomainError, match=f"^{re.escape(message)}$"):
            pair(**{name: value})


class TestZeroPointWidth:
    def test_reference_value(self):
        c = PhysicalConstants()
        assert zero_point_width(1e-14, 1e5, c) == pytest.approx(ZPW_REF, rel=1e-12)

    def test_unit_collapse(self):
        # mass numerically equal to hbar at unit frequency: the ratio is 1
        c = PhysicalConstants()
        assert zero_point_width(c.hbar, 1.0, c) == 1.0

    def test_quadrupled_mass_halves_width(self):
        c = PhysicalConstants()
        assert zero_point_width(4e-14, 1e5, c) == zero_point_width(1e-14, 1e5, c) / 2

    @pytest.mark.parametrize("m,omega", [(0.0, 1e5), (-1.0, 1e5), (1e-14, 0.0),
                                         (1e-14, -2.0), (math.nan, 1e5),
                                         *[(v, 1.0) for v in UNDERFLOWING]])
    def test_domain_errors(self, m, omega):
        with pytest.raises(InputDomainError):
            zero_point_width(m, omega, PhysicalConstants())

    @pytest.mark.parametrize("c", [None, "x", 0.0])
    def test_constants_of_another_type(self, c):
        message = f"c must be of type PhysicalConstants, got {c!r}"
        with pytest.raises(InputDomainError, match=f"^{re.escape(message)}$"):
            zero_point_width(1e-14, 1e5, c)


class TestAssessValidity:
    def test_reference_ratio(self):
        check = assess_validity(reference_system())
        assert check.ratio_x == pytest.approx(RATIO_REF, rel=1e-12)
        assert check.in_regime

    def test_large_separation_limit(self):
        check = assess_validity(reference_system(d=1e30))
        assert check.ratio_x < 1e-30
        assert check.in_regime

    def test_out_of_regime_flag(self):
        # d = 4*zpw makes the ratio exactly 0.5
        check = assess_validity(reference_system(d=4 * ZPW_REF), threshold=0.1)
        assert check.ratio_x == pytest.approx(0.5, rel=1e-12)
        assert not check.in_regime

    def test_flag_matches_threshold_definition(self):
        sys = reference_system()
        for threshold in (1e-8, 1e-6, 1.0):
            check = assess_validity(sys, threshold)
            assert check.in_regime == (check.ratio_x < threshold)

    def test_bad_threshold(self):
        with pytest.raises(InputDomainError):
            assess_validity(reference_system(), threshold=0.0)

    def test_scaling_in_d_exact_for_binary_factors(self):
        base = assess_validity(reference_system(d=1e-6)).ratio_x
        for k in (2.0, 4.0, 0.5, 1024.0):
            scaled = assess_validity(reference_system(d=1e-6 * k)).ratio_x
            assert scaled == base / k

    @given(k=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    @settings(max_examples=50)
    def test_scaling_in_d(self, k):
        base = assess_validity(reference_system(d=1e-6)).ratio_x
        scaled = assess_validity(reference_system(d=1e-6 * k)).ratio_x
        assert scaled == pytest.approx(base / k, rel=1e-12)

    @given(factor=st.floats(min_value=1.0001, max_value=1e4))
    @settings(max_examples=50)
    def test_strictly_decreasing_in_mass_and_omega(self, factor):
        c = PhysicalConstants()
        b = MassiveBody(1e-14, 0.0, 1e5)
        base = assess_validity(PairSystem(b, b, 1e-6, c)).ratio_x
        heavier = MassiveBody(1e-14 * factor, 0.0, 1e5)
        stiffer = MassiveBody(1e-14, 0.0, 1e5 * factor)
        assert assess_validity(PairSystem(heavier, b, 1e-6, c)).ratio_x < base
        assert assess_validity(PairSystem(b, heavier, 1e-6, c)).ratio_x < base
        assert assess_validity(PairSystem(stiffer, b, 1e-6, c)).ratio_x < base
        assert assess_validity(PairSystem(b, stiffer, 1e-6, c)).ratio_x < base

    def test_swapped_system_same_ratio(self):
        b1 = MassiveBody(1e-14, 0.0, 1e5)
        b2 = MassiveBody(3e-13, 0.0, 4e6)
        sys = PairSystem(b1, b2, 1e-6)
        assert assess_validity(sys).ratio_x == assess_validity(sys.swapped()).ratio_x
