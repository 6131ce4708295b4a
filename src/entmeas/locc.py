"""Pure-state entanglement transformations under local operations.

Schmidt decompositions, majorization tests, optimal conversion
probabilities, catalyst search, and an explicit two-qubit conversion
protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .states import (KrausSet, PureState, SPECTRUM_CUTOFF, _bipartition, _count,
                     _entropy_of_spectrum, _numbers, _real, _state)

COEFF_SUM_TOL = 1e-9
RECONSTRUCT_TOL = 1e-9
MAJORIZATION_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt data of a bipartite pure state.

    Attributes
    ----------
    coefficients : ndarray
        Descending squared Schmidt coefficients (probabilities) summing to
        one within 1e-9; entries below 1e-12 are pruned.
    basis_a, basis_b : ndarray
        Orthonormal local Schmidt vectors, one column per coefficient.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Rebuild the state vector from the decomposition."""
        amps = np.sqrt(self.coefficients)
        return np.einsum("k,ik,jk->ij", amps, self.basis_a, self.basis_b).reshape(-1)


def _schmidt_svd(psi: PureState, side_a: tuple[int, ...] = (0,)):
    """The amplitudes of ``psi`` as a ``(d_a, d_b)`` matrix M across
    ``side_a`` (one side of a proper cut) and the rest, and the SVD ``(u, s,
    vh)`` of M: ``psi = sum_i s_i |u_i>|v_i>`` with ``u_i = u[:, i]`` and
    ``v_i = vh[i]``, s descending and not pruned."""
    dims = psi.dims
    side_b = tuple(k for k in range(len(dims)) if k not in side_a)
    tensor = psi.vector.reshape(dims).transpose(side_a + side_b)
    mat = tensor.reshape(math.prod(dims[k] for k in side_a), -1)
    return mat, np.linalg.svd(mat, full_matrices=False)


def schmidt(psi: PureState, side_a: Sequence[int] | int | None = None) -> SchmidtDecomposition:
    """Schmidt decomposition across a bipartition.

    Parameters
    ----------
    psi : PureState
    side_a : int or iterable of int, optional
        Subsystems forming the first side of the cut; defaults to the
        first subsystem versus the rest.

    Returns
    -------
    SchmidtDecomposition
        Coefficients descending, pruned below 1e-12; the reconstruction
        fidelity with the input is at least ``1 - 1e-9``.
    """
    n = len(_state(psi, "schmidt", pure=True).dims)
    side_a = _bipartition((0,) if side_a is None else side_a, n, "side_a")
    mat, (u, s, vh) = _schmidt_svd(psi, side_a)
    coeffs = s ** 2
    kept = coeffs > SPECTRUM_CUTOFF
    coeffs = coeffs[kept]
    total = float(np.sum(coeffs))
    if abs(total - 1.0) > COEFF_SUM_TOL:
        raise ValidationError("schmidt-normalization", abs(total - 1.0), COEFF_SUM_TOL)
    dec = SchmidtDecomposition(coeffs, u[:, kept], vh[kept, :].T)
    overlap = abs(np.vdot(mat.reshape(-1), dec.reconstruct())) ** 2
    if overlap < 1.0 - RECONSTRUCT_TOL:
        raise ValidationError("schmidt-reconstruction", 1.0 - overlap, RECONSTRUCT_TOL)
    return dec


def entropy_of_entanglement(psi: PureState, side_a: Sequence[int] | int | None = None) -> float:
    """Entanglement entropy of a pure state across a bipartition, in bits."""
    coeffs = schmidt(psi, side_a).coefficients
    return max(0.0, _entropy_of_spectrum(coeffs))


def _clean_coefficients(values, name: str) -> np.ndarray:
    arr = _numbers(values, name, float, "coefficients").reshape(-1)
    if arr.size == 0 or not np.all(arr >= -MAJORIZATION_SLACK):
        raise ValidationError("coefficients",
                              detail=f"{name} must be a nonempty nonnegative vector")
    total = float(np.sum(arr))
    if not abs(total - 1.0) <= COEFF_SUM_TOL:
        raise ValidationError("coefficients", abs(total - 1.0), COEFF_SUM_TOL,
                              detail=f"{name} must sum to 1")
    arr = np.where(arr < SPECTRUM_CUTOFF, 0.0, arr)
    return np.sort(arr)[::-1]


def _coefficient_pair(source, target) -> tuple[np.ndarray, np.ndarray]:
    """Both Schmidt vectors by ``_clean_coefficients``, zero-padded to one length."""
    src = _clean_coefficients(source, "source")
    tgt = _clean_coefficients(target, "target")
    n = max(src.size, tgt.size)
    return np.pad(src, (0, n - src.size)), np.pad(tgt, (0, n - tgt.size))


def _majorized(src: np.ndarray, tgt: np.ndarray) -> bool:
    """Nielsen's majorization test on vectors as ``_coefficient_pair`` gives them."""
    return bool(np.all(np.cumsum(src) <= np.cumsum(tgt) + MAJORIZATION_SLACK))


def majorization_convertible(source, target) -> bool:
    """Decide deterministic LOCC convertibility of Schmidt vectors.

    ``source -> target`` is possible exactly when the source coefficients
    are majorized by the target coefficients: every partial sum of the
    descending source vector is no larger than the corresponding partial
    sum of the target (slack 1e-12 per comparison).

    Parameters
    ----------
    source, target : array_like
        Probability vectors (descending order not required).

    Returns
    -------
    bool
    """
    return _majorized(*_coefficient_pair(source, target))


@dataclass(frozen=True)
class ConversionVerdict:
    """Outcome of a pure-state conversion query.

    Attributes
    ----------
    deterministic : bool
        True exactly when the conversion probability is 1.
    probability : float
        Optimal success probability in [0, 1].
    limiting_index : int
        0-based index ``l`` whose tail-sum ratio attains the minimum
        (smallest such index on ties).
    """

    deterministic: bool
    probability: float
    limiting_index: int


def optimal_conversion_probability(source, target) -> ConversionVerdict:
    """Optimal single-copy conversion probability between Schmidt vectors.

    The probability is ``min_l (sum_{i >= l} src_i) / (sum_{i >= l} tgt_i)``
    over descending coefficient vectors, capped at 1.

    Parameters
    ----------
    source, target : array_like
        Probability vectors.

    Returns
    -------
    ConversionVerdict
    """
    src, tgt = _coefficient_pair(source, target)
    best_p, best_l = 1.0, 0
    src_tail, tgt_tail = 1.0, 1.0
    for l in range(src.size):
        if l > 0:
            src_tail = float(np.sum(src[l:]))
            tgt_tail = float(np.sum(tgt[l:]))
        if tgt_tail <= 0.0:
            if src_tail > 0.0:
                continue
            break
        ratio = 0.0 if src_tail <= 0.0 else min(1.0, src_tail / tgt_tail)
        if ratio < best_p - 1e-15:
            best_p, best_l = ratio, l
    deterministic = _majorized(src, tgt)
    if deterministic:
        best_p, best_l = 1.0, 0
    return ConversionVerdict(deterministic, best_p, best_l)


def _catalyst_grid(rank: int, resolution: int):
    """Descending rational catalysts of rank 2 or 3 on the 1/resolution grid,
    lexicographically."""
    if rank == 2:
        for k in range((resolution + 1) // 2, resolution + 1):
            yield np.array([k, resolution - k], dtype=float) / resolution
        return
    for k1 in range((resolution + 2) // 3, resolution + 1):
        for k2 in range((resolution - k1 + 1) // 2, min(k1, resolution - k1) + 1):
            k3 = resolution - k1 - k2
            if 0 <= k3 <= k2:
                yield np.array([k1, k2, k3], dtype=float) / resolution


def catalysis_search(source, target, catalyst_rank: int = 2,
                     resolution: int = 200) -> np.ndarray | None:
    """Search a coefficient grid for an entanglement catalyst.

    A catalyst ``c`` makes ``source (x) c -> target (x) c`` deterministic
    even though ``source -> target`` alone is not.  Candidates are scanned
    in ascending lexicographic order over the grid of multiples of
    ``1/resolution``; the first verified catalyst is returned, making the
    result deterministic.

    Parameters
    ----------
    source, target : array_like
        Schmidt coefficient vectors; the direct conversion must not
        already be deterministic.
    catalyst_rank : {2, 3}
        Number of catalyst coefficients.
    resolution : int
        Grid density (default 200).

    Returns
    -------
    ndarray or None
        Verified catalyst coefficients, or None when the grid holds no
        catalyst (a best-effort outcome, not a proof of impossibility).
    """
    src, tgt = _coefficient_pair(source, target)
    if _majorized(src, tgt):
        raise ValidationError(
            "catalysis-precondition",
            detail="the conversion is already deterministic without a catalyst")
    catalyst_rank = _count(catalyst_rank, "catalyst rank", "catalyst-rank", 2, 3)
    resolution = _count(resolution, "grid resolution", "resolution", low=catalyst_rank)
    for cand in _catalyst_grid(catalyst_rank, resolution):
        cand = cand[cand > 0.0]
        if _majorized(*_coefficient_pair(np.outer(src, cand).reshape(-1),
                                         np.outer(tgt, cand).reshape(-1))):
            return cand
    return None


def two_qubit_conversion_kraus(alpha: float, beta: float) -> KrausSet:
    """LOCC protocol converting a Bell pair into ``a|00> + b|11>``.

    Returns the two-outcome Kraus set of the local filter on one half of
    a maximally entangled two-qubit state; both outcomes occur with
    probability 1/2 and each is locally correctable to the target, so the
    conversion is deterministic.

    Parameters
    ----------
    alpha, beta : float
        Nonnegative target Schmidt amplitudes with
        ``alpha**2 + beta**2 = 1`` (tolerance 1e-9).

    Returns
    -------
    KrausSet
        Two operators on the two-qubit space, trace preserving.
    """
    alpha = _real(alpha, "alpha", "amplitudes", low=0.0)
    beta = _real(beta, "beta", "amplitudes", low=0.0)
    resid = abs(alpha ** 2 + beta ** 2 - 1.0)
    if not resid <= COEFF_SUM_TOL:
        raise ValidationError("amplitudes", resid, COEFF_SUM_TOL,
                              detail="amplitudes must satisfy alpha^2 + beta^2 = 1")
    filt0 = np.diag([alpha, beta]).astype(complex)
    filt1 = np.array([[0.0, alpha], [beta, 0.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    a0 = np.kron(filt0, np.eye(2))
    a1 = np.kron(filt1, sx)
    return KrausSet([a0, a1], trace_preserving=True)
