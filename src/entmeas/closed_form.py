"""Closed-form entanglement measures for low-dimensional states.

Concurrence and entanglement of formation for two qubits, negativity and
logarithmic negativity from the partial transpose, the tangle family
with the monogamy check for three qubits, and the closed forms of the
variational measures on bipartite pure states, in their Schmidt
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import UnsupportedCaseError, ValidationError
from .locc import _schmidt_svd
from .states import (
    PPT_TOL,
    PureState,
    _bipartition,
    _count,
    _is_integer,
    _ppt_spectrum,
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
    return _negativity(*_cut_spectrum(rho, transposed))


def _cut_spectrum(rho, transposed) -> tuple[bool, np.ndarray]:
    """``_ppt_spectrum`` of a state transposed on ``transposed``, the last
    subsystem by default."""
    rho = _state(rho, "negativity")
    n = len(rho.dims)
    transposed = _bipartition(n - 1 if transposed is None else transposed, n, "transposed")
    return _ppt_spectrum(partial_transpose(rho, transposed))


def _negativity(ppt: bool, eigs: np.ndarray) -> float:
    """The negativity of a partial-transpose spectrum as ``_ppt_spectrum``
    returns it."""
    return 0.0 if ppt else float(-np.sum(eigs[eigs < 0.0]))


def _log_negativity(ppt: bool, eigs: np.ndarray) -> float:
    """The log-negativity of a partial-transpose spectrum as
    ``_ppt_spectrum`` returns it."""
    return float(np.log2(1.0 + 2.0 * _negativity(ppt, eigs)))


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
    return _log_negativity(*_cut_spectrum(rho, transposed))


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


@dataclass(frozen=True, eq=False)
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


def _schmidt_form(psi: PureState) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(s, products, entangled)`` of a bipartite pure state ``psi = sum_i
    s_i |u_i v_i>``: its Schmidt coefficients s, descending and not pruned
    (dropping each ``s_i^2 < 1e-12``, as ``locc.schmidt`` does, would move
    ``(sum_i s_i)^2`` by up to about ``2e-6 sum_i s_i``), the product
    vectors ``products[:, i, j] = |u_i v_j>``, and whether psi is entangled
    by the PPT rule of ``is_ppt``: ``(psi psi^H)^Gamma`` has least
    eigenvalue ``-s_1 s_2``."""
    _, (u, s, vh) = _schmidt_svd(psi)
    products = np.einsum("ai,jb->abij", u, vh).reshape(psi.dim, s.size, s.size)
    return s, products, s.size > 1 and s[0] * s[1] > PPT_TOL


def _pure_relative_entropy(s: np.ndarray, products: np.ndarray) -> tuple[float, np.ndarray]:
    """``E(psi) = -sum_i l_i log2 l_i``, ``l = s^2``, and the separable state
    ``sigma* = sum_i l_i |u_i v_i><u_i v_i|`` with ``S(psi || sigma*) =
    E(psi)``, from ``_schmidt_form``.  Both the REE and the Rains bound of
    psi are E: ``E = Rains <= E_R^PPT <= E_R^SEP = E`` (Vedral & Plenio, PRA
    57, 1619 (1998); Rains, IEEE Trans. Inf. Theory 47, 2921 (2001))."""
    probs = s ** 2
    diagonal = np.diagonal(products, axis1=1, axis2=2)
    sigma = (diagonal * probs) @ diagonal.conj().T
    kept = probs[probs > 0.0]
    return max(0.0, float(-kept @ np.log2(kept))), sigma


def _pure_robustness(s: np.ndarray, products: np.ndarray) -> tuple[float, np.ndarray]:
    """The robustness ``t = sum_{i != j} s_i s_j = (sum_i s_i)^2 - 1`` of an
    entangled pure state and its noise ``sigma = (1/t) sum_{i != j} s_i s_j
    |u_i v_j><u_i v_j|``, a separable state, from ``_schmidt_form``; the
    proof is in ``variational.robustness``."""
    weights = np.outer(s, s)
    np.fill_diagonal(weights, 0.0)
    t = float(weights.sum())
    flat = products.reshape(products.shape[0], -1)
    return t, (flat * weights.reshape(-1)) @ flat.conj().T / t
