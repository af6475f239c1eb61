"""The per-scenario entanglement report: ``report(system, tau)`` and the
``EntanglementReport`` it returns.

``report`` takes every measure from the 2x2 amplitude matrix's determinant
through the kernel, exact to a few ulp wherever epsilon is a normal float,
and its phase from the kernel, whose scalar reference is
``tests/oracles.py``; the cos(delta_phi) closed forms of the canonical
family live in the test suite as independent oracles.

The density-matrix route (``report_from_phases``: rho, its partial trace,
Tr(rho1^2) and the eigenvalues), kept as the scalar reference for the
measures, lives in ``gravent.dynamics`` next to the state it measures.
``import gravent.measures`` loads ``gravent``, ``errors``, ``model``,
``kernel`` and this module alone, and builds four dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .model import PairSystem, _on_first_use, _slot_setters

__all__ = ["EntanglementReport", "report"]

# Five names of ``dynamics`` that benchmarks/tracer.py wraps here by name,
# until ROADMAP item 6 moves its targets; they load on first access, so
# ``report()`` runs without ``dynamics``.
__getattr__ = _on_first_use(globals(), dict.fromkeys((
    "DensityMatrix", "accumulated_phase", "evolve_closed_form", "report_from_phases",
    "von_neumann_entropy",
), "dynamics"))


@dataclass(frozen=True, slots=True)
class EntanglementReport:
    """Scenario-level entanglement diagnostics.

    ``separable_by_measures`` is the verdict of the measures themselves:
    linear entropy below ``SEPARABLE_EPSILON_TOL`` (1e-12), which for the
    canonical family means |sin(delta_phi)| < sqrt(2)*1e-6, a phase within
    about 1.4e-6 rad of a multiple of pi. ``separable_by_two_pi_criterion``
    applies the weaker phase criterion that only counts multiples of 2*pi
    as unentangled. The two disagree at odd multiples of pi, where the
    state re-factorizes; both are reported so the discrepancy stays
    visible.
    """

    delta_phi: float
    purity_full: float
    purity_reduced: float
    epsilon: float
    entropy_nats: float
    entropy_bits: float
    separable_by_measures: bool
    separable_by_two_pi_criterion: bool

    @property
    def verdicts_disagree(self) -> bool:
        return self.separable_by_measures and not self.separable_by_two_pi_criterion


#: Each field's slot setter, in field order: ``report`` builds its return
#: without the frozen ``__init__`` and sets the slots itself.
(
    _set_delta_phi, _set_purity_full, _set_purity_reduced, _set_epsilon, _set_entropy_nats,
    _set_entropy_bits, _set_separable_by_measures, _set_separable_by_two_pi_criterion,
) = _slot_setters(EntanglementReport)


def report(sys: PairSystem, tau: float) -> EntanglementReport:
    """Full pipeline for one system and interaction time.

    Accumulates the entangling phase, evolves the canonical state in closed
    form and takes every measure from its 2x2 amplitude matrix A: the
    linear entropy 2|det A|^2, the reduced spectrum from it, and the full
    purity from the norm. Rows come from the kernel's array path; report()
    runs the same body on plain floats (``kernel.evaluate_system``): it
    takes the system's values and tau as positional floats and returns its
    outputs as one tuple, which report() unpacks into the fields. So it
    gives the values of a sweep row at the same point, bit for bit. The
    first failed check raises what the scalar pipeline raises, after
    ``RegimeWarning`` if the ratio, reached before it, is past the default
    regime threshold; the body warns as soon as it has the ratio. A ``tau``
    that is not a real number raises ``InputDomainError``.

    The evolution runs in the same-direction gauge (common branch phase
    subtracted): every measure is invariant under a global phase, and the
    signed relative phase -delta_phi is well conditioned where the raw
    branch phases can exceed float64 angular resolution by many orders.
    """
    (_, _, _, _, _, delta_phi, purity_full, purity_reduced, epsilon, entropy_nats, entropy_bits,
     separable_by_measures, separable_by_two_pi_criterion, _, _, _) = kernel.evaluate_system(
        sys, tau, stacklevel=2)
    rep = object.__new__(EntanglementReport)
    _set_delta_phi(rep, delta_phi)
    _set_purity_full(rep, purity_full)
    _set_purity_reduced(rep, purity_reduced)
    _set_epsilon(rep, epsilon)
    _set_entropy_nats(rep, entropy_nats)
    _set_entropy_bits(rep, entropy_bits)
    _set_separable_by_measures(rep, separable_by_measures)
    _set_separable_by_two_pi_criterion(rep, separable_by_two_pi_criterion)
    return rep
