"""Computable bounds on distillable entanglement and entanglement cost.

The asymptotic measures are not directly computable, but they are pinned
between quantities that are: the hashing bound from below, and
log-negativity, numeric relative-entropy distance, and the Rains bound
from above.  This module evaluates those bounds, provides the Werner-state
and twirling constructors used to probe them, and aggregates everything
into a single consistency-checked report.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .closed_form import log_negativity
from .errors import ValidationError
from .states import (
    _CERTIFIED,
    _PAIR_SIDE_LIMIT,
    DensityOperator,
    _choice,
    _count,
    _real,
    _shown,
    _state,
    is_ppt,
    partial_trace,
    von_neumann_entropy,
)
from .variational import (
    PPT_DIM_LIMIT,
    RAINS_DIM_LIMIT,
    SolverConfig,
    rains_bound,
    relative_entropy_of_entanglement,
    witness_violation,
)

__all__ = [
    "BoundsReport",
    "bounds_report",
    "conditional_entropy",
    "hashing_lower_bound",
    "is_ppt",
    "uu_twirl_two_qubit",
    "werner_state",
]

SANDWICH_SLACK = 1e-3

# the upper bounds a report may skip, in report order: each one's dimension
# limit and its measure, whose name is looked up when the report runs
_SKIPPABLE = {
    "ree": (PPT_DIM_LIMIT,
            lambda rho, cfg: relative_entropy_of_entanglement(rho, config=cfg)),
    "rains": (RAINS_DIM_LIMIT, lambda rho, cfg: rains_bound(rho, config=cfg)),
}


@dataclass(frozen=True)
class BoundsReport:
    """Aggregated lower and upper bounds on distillable entanglement.

    Attributes
    ----------
    lower : dict
        Lower bounds in bits, keyed by bound name.
    upper : dict
        Upper bounds in bits, keyed by bound name.
    ppt : bool
        Whether the state has a positive partial transpose.
    notes : dict
        Status string per entry; entries marked ``"exact"`` or
        ``"converged"`` are certified.
    """

    lower: dict[str, float] = field(default_factory=dict)
    upper: dict[str, float] = field(default_factory=dict)
    ppt: bool = False
    notes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name, low in self.lower.items():
            for uname, up in self.upper.items():
                if not self.notes.get(uname, "").startswith(_CERTIFIED):
                    continue
                if low > up + SANDWICH_SLACK:
                    raise ValidationError(
                        "bounds-order", residual=low - up, limit=SANDWICH_SLACK,
                        detail=f"lower[{name}] exceeds certified upper[{uname}]")
        if self.ppt:
            if self.lower.get("hashing", 0.0) > 0.0:
                raise ValidationError(
                    "ppt-hashing",
                    detail="PPT states admit no positive hashing bound")
            if self.upper.get("distillable") != 0.0:
                raise ValidationError(
                    "ppt-distillable",
                    detail="PPT reports must pin distillable entanglement to 0")


def conditional_entropy(rho) -> float:
    """Conditional entropy S(A|B) of a bipartite state, in bits.

    Parameters
    ----------
    rho : DensityOperator
        Bipartite state on A tensor B.

    Returns
    -------
    float
        ``S(rho_AB) - S(rho_B)``; negative values signal entanglement
        usable for distillation.
    """
    rho = _state(rho, "conditional_entropy", parties=2)
    return von_neumann_entropy(rho) - von_neumann_entropy(partial_trace(rho, 1))


def hashing_lower_bound(rho) -> float:
    """Hashing lower bound on distillable entanglement, in bits.

    Takes the better of the two one-way directions, floored at zero:
    ``max(S(rho_A), S(rho_B)) - S(rho_AB)`` when positive.

    Parameters
    ----------
    rho : DensityOperator
        Bipartite state.

    Returns
    -------
    float
        Nonnegative bound; 0 whenever both conditional entropies are
        nonnegative.
    """
    rho = _state(rho, "hashing_lower_bound", parties=2)
    s_ab = von_neumann_entropy(rho)
    s_a = von_neumann_entropy(partial_trace(rho, 0))
    s_b = von_neumann_entropy(partial_trace(rho, 1))
    return max(s_a - s_ab, s_b - s_ab, 0.0)


def werner_state(d: int, p: float) -> DensityOperator:
    """Werner state ``p*sigma_a + (1-p)*sigma_s`` on two d-level systems.

    ``sigma_a`` and ``sigma_s`` are the normalized projectors onto the
    antisymmetric and symmetric subspaces; the family is exactly the set
    of states invariant under all U (x) U rotations.

    Parameters
    ----------
    d : int
        Local dimension, 2 to 32 (total dimension at most
        ``states.STATE_DIM_LIMIT``).
    p : float
        Antisymmetric weight in [0, 1].

    Returns
    -------
    DensityOperator
        The Werner state with dims ``(d, d)``.
    """
    d = _count(d, "local dimension", "werner-dimension", low=2, high=_PAIR_SIDE_LIMIT)
    p = _real(p, "antisymmetric weight", "werner-weight", low=0.0, high=1.0)
    flip = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    eye = np.eye(d * d)
    sigma_a = (eye - flip) / (d * d - d)
    sigma_s = (eye + flip) / (d * d + d)
    return DensityOperator(p * sigma_a + (1.0 - p) * sigma_s, (d, d))


def uu_twirl_two_qubit(rho) -> DensityOperator:
    """Project a two-qubit state onto the U (x) U invariant Werner family.

    Averaging over random bi-local rotations U (x) U keeps exactly the
    component commuting with all of them, which is determined by the
    singlet fidelity alone.

    Parameters
    ----------
    rho : DensityOperator
        Two-qubit state.

    Returns
    -------
    DensityOperator
        Werner-family state with the same singlet fidelity as the input.
    """
    rho = _state(rho, "uu_twirl_two_qubit", dims=(2, 2), invariant="twirl-dims")
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    fidelity = float(np.real(singlet @ rho.matrix @ singlet))
    return werner_state(2, min(max(fidelity, 0.0), 1.0))


def bounds_report(rho, config: SolverConfig | None = None,
                  skip: tuple[str, ...] = ()) -> BoundsReport:
    """Evaluate all computable bounds on a state and cross-check them.

    Parameters
    ----------
    rho : DensityOperator
        Bipartite state of total dimension at most 25 (``rains_bound``'s
        limit), or 36 when ``"rains"`` is skipped (that of the REE), or
        any when both are; it is checked before any entry runs.
    config : SolverConfig, optional
        Shared solver settings for the numeric upper bounds.
    skip : tuple of str, optional
        Bound names to omit; ``"rains"`` and ``"ree"`` are recognized.

    Returns
    -------
    BoundsReport
        Lower and upper bounds with per-entry status notes; when the
        state is PPT the report additionally pins distillable
        entanglement to exactly 0.
    """
    if isinstance(skip, str) or not isinstance(skip, Iterable):
        raise ValidationError(
            "skip-names", detail=f"skip must be a sequence of bound names, got {_shown(skip)}")
    skip = {_choice(name, _SKIPPABLE, "skip-names", "bound name") for name in skip}
    kept = [name for name in _SKIPPABLE if name not in skip]
    # refused at the least limit of the entries it will run, before any of them runs
    limit = min((_SKIPPABLE[name][0] for name in kept), default=math.inf)
    rho = _state(rho, "bounds_report", parties=2, limit=limit)
    # the witness exists exactly when is_ppt fails, so flag and note agree
    witness, violation = witness_violation(rho)
    ppt = witness is None
    lower = {"hashing": 0.0 if ppt else hashing_lower_bound(rho)}
    notes = {"hashing": "exact",
             "witness": "exact; no violation found" if ppt
             else "exact; violation %.6g" % violation}
    upper = {"log_negativity": log_negativity(rho)}
    notes["log_negativity"] = "exact"
    for name in kept:
        result = _SKIPPABLE[name][1](rho, config)
        upper[name], notes[name] = result.value, result.status
    if ppt:
        upper["distillable"] = 0.0
        notes["distillable"] = "exact; PPT states yield no distillable entanglement"
    return BoundsReport(lower=lower, upper=upper, ppt=ppt, notes=notes)
