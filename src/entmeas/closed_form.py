"""Closed-form entanglement measures for low-dimensional states.

Concurrence and entanglement of formation for two qubits, negativity and
logarithmic negativity from the partial transpose, and the tangle family
with the monogamy check for three qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import UnsupportedCaseError, ValidationError
from .states import (
    PPT_TOL,
    PureState,
    _bipartition,
    _count,
    _is_integer,
    _real,
    _state,
    partial_trace,
    partial_transpose,
)

CLAMP_TOL = 1e-10
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYY = np.kron(_SY, _SY)


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with ``0 log 0 = 0``; residue within
    1e-10 outside [0, 1] is clamped."""
    p = min(max(_real(p, "p", "probability", -CLAMP_TOL, 1.0 + CLAMP_TOL), 0.0), 1.0)
    total = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            total -= q * np.log2(q)
    return float(total)


def concurrence(rho) -> float:
    """Concurrence of a two-qubit state.

    Computed from the descending square roots ``l1 >= l2 >= l3 >= l4`` of
    the eigenvalues of ``rho (sy x sy) rho* (sy x sy)`` as
    ``max(0, l1 - l2 - l3 - l4)``; negative eigenvalues, which only
    roundoff produces, are set to zero.

    Parameters
    ----------
    rho : DensityOperator or PureState
        State with dims (2, 2).

    Returns
    -------
    float
        Value in [0, 1].
    """
    rho = _state(rho, "concurrence", dims=(2, 2))
    tilde = _SYY @ rho.matrix.conj() @ _SYY
    # sqrt(rho) tilde sqrt(rho) is Hermitian and similar to rho @ tilde;
    # the Hermitian eigensolver keeps full precision on this spectrum
    evals, evecs = np.linalg.eigh(rho.matrix)
    root = (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.conj().T
    eigs = np.maximum(np.linalg.eigvalsh(root @ tilde @ root), 0.0)
    # roundoff noise at relative scale eps would blow up to ~1e-8 under sqrt
    if eigs[-1] > 0.0:
        eigs[eigs < 64.0 * np.finfo(float).eps * eigs[-1]] = 0.0
    roots = np.sort(np.sqrt(eigs))[::-1]
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def eof_two_qubit(rho) -> float:
    """Entanglement of formation of a two-qubit state, in bits.

    Equals ``h((1 + sqrt(1 - C^2)) / 2)`` with ``C`` the concurrence and
    ``h`` the binary entropy.

    Parameters
    ----------
    rho : DensityOperator or PureState
        State with dims (2, 2).

    Returns
    -------
    float
        Value in [0, 1]; 1 exactly for maximally entangled inputs.
    """
    c = concurrence(rho)
    c = min(c, 1.0)
    return binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def negativity(rho, transposed: Iterable[int] | int | None = None) -> float:
    """Negativity across a bipartite cut: the sum of the absolute negative
    eigenvalues of the partial transpose, ``(|| rho^T_B ||_1 - 1) / 2``.

    Parameters
    ----------
    rho : DensityOperator or PureState
    transposed : int or iterable of int, optional
        Subsystems forming the transposed side of the cut, a proper subset
        of them; defaults to the last subsystem.

    Returns
    -------
    float
        Nonnegative; 0 on PPT input (``states.is_ppt``).
    """
    rho = _state(rho, "negativity")
    n = len(rho.dims)
    transposed = _bipartition(n - 1 if transposed is None else transposed, n, "transposed")
    eigs = np.linalg.eigvalsh(partial_transpose(rho, transposed))
    if eigs[0] >= -PPT_TOL:
        return 0.0
    return float(-np.sum(eigs[eigs < 0.0]))


def log_negativity(rho, transposed: Iterable[int] | int | None = None) -> float:
    """Logarithmic negativity ``log2(1 + 2 N)`` in bits.

    Parameters
    ----------
    rho : DensityOperator or PureState
    transposed : int or iterable of int, optional
        Subsystems forming the transposed side; defaults to the last.

    Returns
    -------
    float
        Nonnegative; additive across tensor products of cuts.
    """
    return float(np.log2(1.0 + 2.0 * negativity(rho, transposed)))


def tangle(state, qubit: int = 0) -> float:
    """Tangle across a cut whose first side is a single qubit.

    For pure states this is ``4 det(rho_qubit)`` with ``rho_qubit`` the
    reduced state of the chosen qubit.  For mixed two-qubit states it is
    the squared concurrence.  Mixed states on 2 x n with n > 2 have no
    supported closed form and raise UnsupportedCaseError.

    Parameters
    ----------
    state : PureState or DensityOperator
    qubit : int
        Index of the subsystem forming the single-qubit side (pure states
        only; ignored for two-qubit mixed states).

    Returns
    -------
    float
        Value in [0, 1].
    """
    if isinstance(state, PureState):
        dims = state.dims
        if not (_is_integer(qubit) and 0 <= qubit < len(dims)) or dims[qubit] != 2:
            raise ValidationError("dims", detail="the chosen side must be a single qubit")
        red = partial_trace(state.to_density(), qubit)
        det = float(np.real(np.linalg.det(red.matrix)))
        return float(min(1.0, max(0.0, 4.0 * det)))
    rho = _state(state, "tangle")
    if rho.dims == (2, 2):
        return concurrence(rho) ** 2
    raise UnsupportedCaseError(
        "tangle of a mixed state is only supported on dims (2, 2)")


def residual_tangle(psi: PureState, pivot: int = 0) -> float:
    """Three-qubit residual tangle ``tau(p:rest) - sum_j tau(p, j)``.

    The value is independent of the pivot qubit ``p`` (within 1e-9).

    Parameters
    ----------
    psi : PureState
        Three-qubit pure state.
    pivot : int
        Pivot qubit index.

    Returns
    -------
    float
        Nonnegative.
    """
    _state(psi, "residual_tangle", pure=True, dims=(2, 2, 2))
    pivot = _count(pivot, "pivot", "subsystem-index", high=2)
    one_to_rest = tangle(psi, qubit=pivot)
    rho = psi.to_density()
    # concurrence is swap-symmetric, so the pair order inside keep is irrelevant
    pair_sum = sum(tangle(partial_trace(rho, (pivot, other)))
                   for other in range(3) if other != pivot)
    value = one_to_rest - pair_sum
    return max(0.0, value)


@dataclass(frozen=True)
class TangleReport:
    """Tangle summary of a multiqubit pure state.

    Attributes
    ----------
    pairwise : dict
        ``(i, j) -> tau`` for every unordered pair, from the reduced
        two-qubit states.
    one_to_rest : dict
        ``i -> tau`` across the cut qubit ``i`` versus the rest.
    residual : float or None
        Residual tangle (three qubits only).
    ckw_satisfied : bool
        Monogamy: for every pivot ``p``,
        ``sum_j tau(p, j) <= tau(p:rest) + 1e-9``.
    """

    pairwise: dict
    one_to_rest: dict
    residual: float | None
    ckw_satisfied: bool


def ckw_check(psi: PureState) -> TangleReport:
    """Monogamy-of-entanglement report for a pure multiqubit state.

    Parameters
    ----------
    psi : PureState
        Pure state of 3 or more qubits.

    Returns
    -------
    TangleReport
    """
    dims = _state(psi, "ckw_check", pure=True).dims
    n = len(dims)
    if n < 3 or any(d != 2 for d in dims):
        raise ValidationError("dims", detail="the monogamy check requires >= 3 qubits")
    rho = psi.to_density()
    pairwise = {}
    for i in range(n):
        for j in range(i + 1, n):
            pairwise[(i, j)] = tangle(partial_trace(rho, (i, j)))
    one_to_rest = {i: tangle(psi, qubit=i) for i in range(n)}
    pair_sums = [sum(pairwise[(min(i, j), max(i, j))] for j in range(n) if j != i)
                 for i in range(n)]
    satisfied = all(pair_sums[i] <= one_to_rest[i] + 1e-9 for i in range(n))
    # the residual tangle about pivot 0, as residual_tangle computes it
    residual = max(0.0, one_to_rest[0] - pair_sums[0]) if n == 3 else None
    return TangleReport(pairwise, one_to_rest, residual, satisfied)
