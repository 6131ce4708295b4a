"""Entanglement measures defined through optimization.

This module hosts the measures that have no closed form on general inputs:
the relative entropy of entanglement and the Rains bound (one barrier
method, each certified by an SDP), the robustness and base-norm family
(semidefinite programs), the best separable approximation, a numerical
convex-roof entanglement of formation, the geometric measure,
partial-transpose witness extraction, and squashed-entanglement evaluation
on supplied extensions.

Separable-set constraints are realized over PPT operators throughout.  For
dimensions (2, 2) and (2, 3) the two sets coincide, so the results are exact;
for larger systems the PPT set is an outer relaxation and distance-like
quantities are lower bounds to their separable-set counterparts.  Result
payloads record which regime applies.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from .closed_form import binary_entropy
from .errors import ValidationError
from .sdp import SdpProblem, SdpSolution, dual_bound, sdp_solve
from .states import (
    DensityOperator,
    MeasureResult,
    PureState,
    _as_density,
    _hermitian,
    conditional_mutual_information,
    partial_trace,
    partial_transpose,
    von_neumann_entropy,
)

__all__ = [
    "ConeSpec",
    "SolverConfig",
    "BaseNormResult",
    "BsaResult",
    "minimize_over_ppt_states",
    "relative_entropy_of_entanglement",
    "werner_regularized_ree",
    "robustness",
    "base_norm",
    "best_separable_approximation",
    "eof_convex_roof",
    "geometric_measure",
    "rains_bound",
    "witness_violation",
    "squashed_eval",
]

CONE_KINDS = ("PPT-operators", "separable-outer", "all-PSD", "negated-PSD")

# dimensions at which the PPT set equals the separable set
_EXACT_PPT_DIMS = {(2, 2), (2, 3)}
_PPT_TOL = 1e-12
_LMO_MAX_ITERATIONS = 60
_LN2 = math.log(2.0)

REE_DIM_LIMIT = 36
BSA_DIM_LIMIT = 36
ROOF_DIM_LIMIT = 16
RAINS_DIM_LIMIT = 16
GEOMETRIC_DIM_LIMIT = 64


@dataclasses.dataclass(frozen=True)
class ConeSpec:
    """A cone of Hermitian operators used by the base-norm family.

    Attributes
    ----------
    kind : str
        One of ``"PPT-operators"`` (operators with positive partial
        transpose), ``"separable-outer"`` (PPT *and* positive, the tractable
        outer relaxation of the separable cone), ``"all-PSD"``, and
        ``"negated-PSD"`` (negatives of positive operators).
    normalization : float
        Trace constant of normalized members; positive for the first three
        kinds, negative for ``"negated-PSD"``.
    """

    kind: str
    normalization: float = 1.0

    def __post_init__(self):
        if self.kind not in CONE_KINDS:
            raise ValidationError(
                "cone-kind", detail=f"unknown cone kind {self.kind!r}")
        alpha = float(self.normalization)
        if self.kind == "negated-PSD":
            if not alpha < 0.0:
                raise ValidationError(
                    "cone-normalization",
                    detail="negated-PSD members have negative trace")
        elif not alpha > 0.0:
            raise ValidationError(
                "cone-normalization",
                detail=f"{self.kind} members have positive trace")


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    Attributes
    ----------
    max_iterations : int
        Outer iteration cap; Newton steps for the REE and the Rains bound.
    gap_tolerance : float
        Certified-gap target for solvers that produce certificates.
    restarts : int
        Number of random restarts for multi-start searches; REE and Rains ignore it.
    seed : int
        Seed for all randomized initializations.
    """

    max_iterations: int = 200
    gap_tolerance: float = 1e-6
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValidationError(
                "solver-config", detail="iteration and restart counts must be >= 1")
        if not self.gap_tolerance > 0.0:
            raise ValidationError(
                "solver-config", detail="gap tolerance must be positive")


_DEFAULT_CONFIG = SolverConfig()


def _bipartite(state, context: str, limit: int | None = None):
    rho = _as_density(state, context, bipartite=True)
    if limit is not None and rho.dim > limit:
        raise ValidationError(
            "dimension-limit", detail=f"{context} supports total dimension <= {limit}")
    return rho.matrix, rho.dims


_BASIS_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _basis_with_pt(dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal Hermitian basis of n x n and its partial transposes."""
    if dims in _BASIS_CACHE:
        return _BASIS_CACHE[dims]
    n = dims[0] * dims[1]
    mats = []
    for k in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0
        mats.append(e)
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = e[l, k] = 1.0 / math.sqrt(2.0)
            mats.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = -1.0j / math.sqrt(2.0)
            e[l, k] = 1.0j / math.sqrt(2.0)
            mats.append(e)
    basis = np.array(mats)
    basis_pt = np.array([partial_transpose(e, 1, dims) for e in basis])
    _BASIS_CACHE[dims] = (basis, basis_pt)
    return basis, basis_pt


def _add_operator_equation(prob: SdpProblem, terms: dict, rhs,
                           dims: tuple[int, int]) -> None:
    """Add the n^2 rows of the operator equation ``sum_j s_j T_j(X_j) = R``.

    ``terms`` maps a block index j to ``(s_j, transposed)``; ``T_j`` is the
    partial transpose on B when ``transposed`` and the identity otherwise.
    ``rhs`` is the Hermitian operator R, or None for zero.  One row is added
    per element of the orthonormal basis of ``_basis_with_pt``.
    """
    basis, basis_pt = _basis_with_pt(dims)
    for a in range(basis.shape[0]):
        row = {j: sign * (basis_pt[a] if transposed else basis[a])
               for j, (sign, transposed) in terms.items()}
        value = 0.0 if rhs is None else float(np.real(np.vdot(rhs, basis[a])))
        prob.add_equality(row, value)


def _clean_state(mat: np.ndarray) -> np.ndarray:
    """Project a near-state onto the density matrices (clip and renormalize)."""
    mat = (mat + mat.conj().T) / 2.0
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        n = mat.shape[0]
        return np.eye(n, dtype=complex) / n
    return (v * (w / total)) @ v.conj().T


def minimize_over_ppt_states(objective: np.ndarray, dims: tuple[int, int]):
    """Minimize ``tr(G sigma)`` over PPT states on a bipartite split.

    The interior-point solve is capped at 60 iterations.

    Parameters
    ----------
    objective : ndarray
        Hermitian matrix G (finite, Hermitian within 1e-10).
    dims : tuple of int
        Bipartite dimensions ``(d_a, d_b)``.

    Returns
    -------
    bound : float
        Rigorous lower bound on the true minimum, extracted from the dual
        iterate (valid even when the solver stops early).
    minimizer : ndarray
        Density matrix approximating the optimizer.
    """
    n = dims[0] * dims[1]
    g = _hermitian(objective, "objective", n)
    w, vecs = np.linalg.eigh(g)
    vertex = np.outer(vecs[:, 0], vecs[:, 0].conj())
    # the unrestricted minimum lower-bounds the PPT minimum; when its
    # eigenvector is itself PPT the two coincide and no SDP is needed
    if float(np.linalg.eigvalsh(partial_transpose(vertex, 1, dims))[0]) >= -_PPT_TOL:
        return float(w[0]), vertex

    prob = SdpProblem((n, n))
    prob.set_objective(0, g)
    _add_operator_equation(prob, {0: (1.0, True), 1: (-1.0, False)}, None, dims)
    prob.add_equality({0: np.eye(n)}, 1.0)
    sol = sdp_solve(prob, max_iterations=_LMO_MAX_ITERATIONS)
    return dual_bound(prob, sol.y), _clean_state(sol.blocks[0])


def _minimize_over_rains_set(objective: np.ndarray, dims: tuple[int, int]) -> float:
    """Rigorous lower bound on ``min tr(G sigma)`` over ``||sigma^Gamma||_1 <= 1``.

    Blocks sigma, P, N and a slack s, with ``sigma^Gamma = P - N`` and
    ``tr P + tr N + s = 1``; each has trace at most 1.
    """
    n = dims[0] * dims[1]
    eye = np.eye(n)
    prob = SdpProblem((n, n, n, 1))
    prob.set_objective(0, objective)
    _add_operator_equation(prob, {0: (1.0, True), 1: (-1.0, False), 2: (1.0, False)},
                           None, dims)
    prob.add_equality({1: eye, 2: eye, 3: np.ones((1, 1))}, 1.0)
    return dual_bound(prob, sdp_solve(prob).y)


# Barrier method (Boyd & Vandenberghe, Convex Optimization, ch. 11): growing t
# by 8 took 59-69 Newton steps on 2x2 states, by 32 31-42, by 64 hit the cap.
_T_GROWTH = 32.0
_CENTERED = 1e-9  # Newton decrement lambda^2 / 2 that ends a centering,
_RESOLVED = 1e-12  # or this share of t f + barrier, below which the line
# search sees only rounding: without it a 4x4 state ran to the step cap


def _log_differences(w: np.ndarray) -> np.ndarray:
    """First divided differences ``log[w_i, w_k]`` of the natural logarithm."""
    x, y = w[:, None], w[None, :]
    diff = x - y
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(diff) < 0.5 * y, np.log1p(diff / y),
                         np.log(x) - np.log(y)) / diff
    return np.where(diff == 0.0, 2.0 / (x + y), ratio)


def _log_second_differences(w: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Second divided differences ``log[w_i, w_k, w_j]``, indexed ``[i, k, j]``.

    Arguments within 1e-8 relative take the limits ``(f[x, y] - f[x, x]) /
    (y - x)`` and ``f''(x) / 2``, as at the fully degenerate start ``I/n``.
    """
    wi, wk, wj = w[:, None, None], w[None, :, None], w[None, None, :]
    near = 1e-8 * np.maximum(np.maximum(wi, wk), wj)
    with np.errstate(divide="ignore", invalid="ignore"):
        apart = (d1[:, :, None] - d1[None, :, :]) / (wi - wj)
        paired = (d1[:, :, None] - 1.0 / wi) / (wk - wi)
    return np.where(np.abs(wi - wj) <= near,
                    np.where(np.abs(wi - wk) <= near, -0.5 / wi ** 2, paired), apart)


def _evaluate(rho: np.ndarray, terms, x: np.ndarray):
    """The terms' eigendecompositions at ``x``, ``f = -tr(rho log M_0)`` and
    the barrier ``-sum_j log det M_j``; None off the interior."""
    eigs = [np.linalg.eigh(offset + (x @ flat).reshape(offset.shape))
            for offset, flat in terms]
    if not all(w[0] > 0.0 for w, _ in eigs):
        return None
    w, v = eigs[0]
    weights = np.real(np.sum(v.conj() * (rho @ v), axis=0))
    barrier = -sum(float(np.sum(np.log(wj))) for wj, _ in eigs)
    return eigs, -float(weights @ np.log(w)), barrier


def _newton_system(rho: np.ndarray, terms, eigs, t: float):
    """Gradient and Hessian of ``t f + barrier``, and each term's stack
    rotated into its eigenbasis (``V^H B_a V``).

    The barrier Hessian is the Gram matrix of ``M^-1/2 B_a M^-1/2``; that of
    f is ``-(T + T^T)``, ``T_ab = sum_ikj F_ikj rho_ji B_a,ik B_b,kj``, with
    F the second divided differences of log (Daleckii-Krein).
    """
    grad, hess, rotated = 0.0, 0.0, []
    for j, ((_, flat), (w, v)) in enumerate(zip(terms, eigs)):
        m = w.size
        rot = flat @ np.kron(v.conj(), v)
        rotated.append(rot)
        inv = 1.0 / w
        scaled = rot * np.sqrt(np.outer(inv, inv)).ravel()
        grad = grad - rot[:, ::m + 1].real @ inv
        hess = hess + (scaled @ scaled.conj().T).real
        if j == 0:
            d1 = _log_differences(w)
            rho_t = v.conj().T @ rho @ v
            kernel = np.zeros((m, m, m, m), dtype=complex)
            kernel[:, range(m), range(m), :] = (
                _log_second_differences(w, d1) * rho_t.T[:, None, :])
            tmat = rot @ kernel.reshape(m * m, m * m) @ rot.T
            grad = grad - t * (rot @ (d1 * rho_t.T).ravel()).real
            hess = hess - t * (tmat + tmat.T).real
    return grad, hess, rotated


def _barrier_newton(rho: np.ndarray, dims: tuple[int, int], terms, x: np.ndarray,
                    nu: float, cfg: SolverConfig, linear_minimum, equality=None):
    """Minimize ``S(rho || M_0(x))`` by a barrier method, then certify it.

    The terms ``(offset, flat)`` give the matrices
    ``M_j(x) = offset + (x @ flat).reshape(m, m)`` with barrier
    ``-log det M_j`` (parameter ``nu`` in all); ``equality @ x`` stays fixed.
    Damped Newton steps center ``t f + barrier``, ``f = -tr(rho log M_0)``;
    t grows from 1 until ``nu / (t ln 2)`` is half the gap tolerance, unless
    the steps reach ``cfg.max_iterations`` first.  With
    ``L = linear_minimum(G)`` below ``min tr(G sigma)`` on the feasible set,
    ``S + L - <G, sigma>`` at the gradient G of f bounds the minimum below.

    Returns sigma and a MeasureResult whose payload holds the certified
    ``"lower_bound"`` and S at the point kept after each centering
    (``"objective_trace"``).  A PPT input, feasible for every caller, is its
    own minimizer with S = 0.
    """
    if float(np.linalg.eigvalsh(partial_transpose(rho, 1, dims))[0]) >= -_PPT_TOL:
        return rho.copy(), MeasureResult(0.0, "converged", witness_payload={
            "lower_bound": 0.0, "objective_trace": [0.0]})
    eigs, f, barrier = _evaluate(rho, terms, x)
    # half the tolerance: the bound needs exact centering, and the SDP has its error
    t, t_end = 1.0, 2.0 * nu / (_LN2 * cfg.gap_tolerance)
    steps, best, trace = 0, (math.inf, x), []
    while True:
        while steps < cfg.max_iterations:
            grad, hess, rotated = _newton_system(rho, terms, eigs, t)
            try:
                factor = scipy.linalg.cho_factor(hess)
            except np.linalg.LinAlgError:
                break
            dx = -scipy.linalg.cho_solve(factor, grad)
            if equality is not None:
                toward = scipy.linalg.cho_solve(factor, equality)
                dx -= toward * (equality @ dx) / (equality @ toward)
            decrement = -float(grad @ dx)
            merit = t * f + barrier
            if decrement / 2.0 <= max(_CENTERED, _RESOLVED * abs(merit)):
                break
            steps += 1
            # cap the step at 0.99 of the way to the boundary, then backtrack (Armijo)
            step = 1.0
            for rot, (w, _) in zip(rotated, eigs):
                root = 1.0 / np.sqrt(w)
                low = float(np.linalg.eigvalsh(
                    (dx @ rot).reshape(w.size, w.size) * np.outer(root, root))[0])
                step = min(step, -0.99 / low) if low < 0.0 else step
            while step >= 1e-10:
                trial = _evaluate(rho, terms, x + step * dx)
                if trial and t * trial[1] + trial[2] <= merit - 0.25 * step * decrement:
                    break
                step /= 2.0
            else:
                break  # no decrease left at this t
            x = x + step * dx
            eigs, f, barrier = trial
        if f <= best[0]:
            best = (f, x)
        trace.append(best[0])
        if t >= t_end or steps >= cfg.max_iterations:
            break
        t = min(t * _T_GROWTH, t_end)

    [(w, v)], f, _ = _evaluate(rho, terms[:1], best[1])
    sigma = (v * w) @ v.conj().T
    rho_t = v.conj().T @ rho @ v
    grad = -(v @ (_log_differences(w) * rho_t) @ v.conj().T)
    grad = (grad + grad.conj().T) / 2.0
    entropy = von_neumann_entropy(rho)
    value = max(0.0, f / _LN2 - entropy)
    lower = (f + linear_minimum(grad)
             - float(np.real(np.vdot(sigma, grad)))) / _LN2 - entropy
    gap = max(0.0, value - lower)
    return sigma, MeasureResult(
        value, "converged" if gap <= cfg.gap_tolerance else "best_effort", gap=gap,
        iterations=steps, witness_payload={
            "lower_bound": lower,
            "objective_trace": [kept / _LN2 - entropy for kept in trace]})


def relative_entropy_of_entanglement(state, target_set: str = "PPT",
                                     config: SolverConfig | None = None) -> MeasureResult:
    """Relative entropy distance from the PPT-state spectrahedron, in bits.

    Minimizes ``S(rho || sigma)`` over PPT states by a path-following
    barrier method on ``-log det sigma - log det sigma^Gamma`` with
    ``tr sigma = 1``, then one linear minimization over PPT states (an SDP)
    at the gradient certifies it: the value exceeds the true PPT-set minimum
    by at most ``gap``.

    Parameters
    ----------
    state : DensityOperator or PureState
        Bipartite input with total dimension <= 36.
    target_set : str
        ``"PPT"`` or ``"separable-outer"``; both optimize over PPT states.
        The payload records whether this is exact for the separable set
        (dimensions (2, 2) and (2, 3)) or a lower bound.
    config : SolverConfig, optional
        ``max_iterations`` caps the Newton steps; ``restarts`` and ``seed``
        are not used.

    Returns
    -------
    MeasureResult
        ``status == "converged"`` when the certified gap reached the
        configured tolerance, otherwise ``"best_effort"``; ``iterations``
        counts Newton steps.  ``witness_payload["closest_state"]`` holds the
        best PPT state found (a PPT input is its own, with value 0).
    """
    if target_set not in ("PPT", "separable-outer"):
        raise ValidationError(
            "target-set", detail=f"unknown target set {target_set!r}")
    rho, dims = _bipartite(state, "relative_entropy_of_entanglement", REE_DIM_LIMIT)
    cfg = config or _DEFAULT_CONFIG
    n = rho.shape[0]
    basis, basis_pt = _basis_with_pt(dims)
    flat, flat_pt = basis.reshape(n * n, n * n), basis_pt.reshape(n * n, n * n)
    zero = np.zeros((n, n), dtype=complex)
    trace_row = np.real(np.einsum("aii->a", basis))
    sigma, result = _barrier_newton(
        rho, dims, [(zero, flat), (zero, flat_pt)], trace_row / n, 2 * n, cfg,
        lambda grad: minimize_over_ppt_states(grad, dims)[0], equality=trace_row)
    result.witness_payload.update(
        closest_state=sigma, target_set=target_set,
        separable_set="exact" if tuple(sorted(dims)) in _EXACT_PPT_DIMS
        else "ppt-lower-bound")
    return result


def werner_regularized_ree(d: int, p: float) -> float:
    """Regularized relative entropy of entanglement of a Werner state, in bits.

    Parameters
    ----------
    d : int
        Local dimension, at least 2.
    p : float
        Weight of the antisymmetric projector, in the entangled range
        (1/2, 1].

    Returns
    -------
    float
        ``1 - H(p)`` up to the breakpoint ``(d+2)/(2d)``, then
        ``log2((d+2)/d) + (1-p) log2((d-2)/(d+2))``; the two branches agree
        at the breakpoint.
    """
    if int(d) != d or d < 2:
        raise ValidationError("werner-domain", detail="d must be an integer >= 2")
    d = int(d)
    if not 0.5 < p <= 1.0:
        raise ValidationError("werner-domain", detail="p must lie in (1/2, 1]")
    breakpoint_p = (d + 2.0) / (2.0 * d)
    if p <= breakpoint_p:
        return 1.0 - binary_entropy(p)
    return math.log2((d + 2.0) / d) + (1.0 - p) * math.log2((d - 2.0) / (d + 2.0))


def _solver_result_guard(sol: SdpSolution, context: str) -> str:
    if sol.status == "optimal":
        return "converged"
    if sol.status == "max-iterations":
        return "best_effort"
    raise ValidationError(
        "solver-status", detail=f"{context} SDP reported {sol.status}")


def robustness(state, noise: str = "global",
               config: SolverConfig | None = None) -> MeasureResult:
    """Minimal noise weight washing out entanglement, SDP-certified.

    Computes the least ``t >= 0`` such that ``(rho + t sigma) / (1 + t)``
    is a PPT state, with ``sigma`` ranging over all states (``"global"``)
    or over PPT states (``"separable"``, the tractable stand-in for
    separable noise).

    Parameters
    ----------
    state : DensityOperator or PureState
    noise : str
        ``"global"`` or ``"separable"``.
    config : SolverConfig, optional

    Returns
    -------
    MeasureResult
        Value ``t`` with the solver's certified gap;
        ``witness_payload["noise_state"]`` holds the optimal noise when
        ``t > 0``.
    """
    if noise not in ("global", "separable"):
        raise ValidationError("noise-kind", detail=f"unknown noise model {noise!r}")
    rho, dims = _bipartite(state, "robustness")
    cfg = config or _DEFAULT_CONFIG
    n = rho.shape[0]

    # block 0 is the unnormalized noise t*sigma, the last block the PPT
    # mixture (rho + t*sigma)^{T_B}; separable noise adds sigma^{T_B} >= 0
    prob = SdpProblem((n,) * (2 if noise == "global" else 3))
    prob.set_objective(0, np.eye(n))
    if noise == "separable":
        _add_operator_equation(prob, {0: (1.0, True), 1: (-1.0, False)}, None, dims)
    last = len(prob.block_dims) - 1
    _add_operator_equation(prob, {0: (1.0, True), last: (-1.0, False)},
                           -partial_transpose(rho, 1, dims), dims)
    sol = sdp_solve(prob, max_iterations=min(cfg.max_iterations, 100))
    status = _solver_result_guard(sol, "robustness")

    t = max(0.0, float(sol.value))
    payload = {
        "noise_state": _clean_state(sol.blocks[0]) if t > 1e-10 else None,
        "relaxation": "exact" if tuple(sorted(dims)) in _EXACT_PPT_DIMS
        else "ppt-outer",
        "noise": noise,
    }
    return MeasureResult(t, status, gap=float(sol.gap),
                         iterations=sol.iterations, witness_payload=payload)


@dataclasses.dataclass(frozen=True)
class BaseNormResult:
    """Base-norm value and witnessing decomposition ``h = a*omega - b*delta``.

    Attributes
    ----------
    r_value : float
        Minimal ``b`` (the robustness-style quantity R_{X,Y}).
    norm_value : float
        Minimal ``a + b`` (the base norm itself).
    a, b : float
        Weights of the decomposition attaining minimal ``b``.
    omega, delta : ndarray or None
        Normalized cone members of that decomposition; ``None`` when the
        corresponding weight vanishes.
    gap : float
        Certified duality gap of the underlying solves.
    """

    r_value: float
    norm_value: float
    a: float
    omega: np.ndarray | None
    b: float
    delta: np.ndarray | None
    gap: float


# per cone kind: PSD block count, sign of the member expression, and whether
# the member is the partial transpose of its first block; a second block
# holds the partial transpose of the first, keeping both positive
_CONE_BLOCKS = {
    "all-PSD": (1, 1.0, False),
    "negated-PSD": (1, -1.0, False),
    "PPT-operators": (1, 1.0, True),
    "separable-outer": (2, 1.0, False),
}


def base_norm(h, cone_x: ConeSpec, cone_y: ConeSpec,
              dims: tuple[int, int] | None = None) -> BaseNormResult:
    """Base norm of a Hermitian operator over a pair of cones.

    Decomposes ``h = a*omega - b*delta`` with ``omega`` a normalized member
    of the first cone and ``delta`` of the second, minimizing ``b`` (the
    robustness-type value) and, in a second solve, ``a + b`` (the norm).
    With both cones set to PPT-operators the minimal ``b`` equals the
    negativity of ``h``.

    Parameters
    ----------
    h : DensityOperator, PureState, or ndarray
        Hermitian operator; raw arrays require ``dims``.
    cone_x, cone_y : ConeSpec
    dims : tuple of int, optional
        Bipartite dimensions when ``h`` is a raw array.

    Returns
    -------
    BaseNormResult
    """
    if isinstance(h, (DensityOperator, PureState)):
        mat, dims = _bipartite(h, "base_norm")
    elif dims is None:
        raise ValidationError(
            "dims-required", detail="raw operators need explicit dims")
    else:
        dims = (int(dims[0]), int(dims[1]))
        mat = _hermitian(h, "operator", dims[0] * dims[1])
    n = mat.shape[0]
    eye = np.eye(n)

    nx, sign_x, pt_x = _CONE_BLOCKS[cone_x.kind]
    ny, sign_y, pt_y = _CONE_BLOCKS[cone_y.kind]
    y_off = nx

    def build(objective_blocks):
        prob = SdpProblem((n,) * (nx + ny))
        for idx, c in objective_blocks.items():
            prob.set_objective(idx, c)
        _add_operator_equation(
            prob, {0: (sign_x, pt_x), y_off: (-sign_y, pt_y)}, mat, dims)
        if nx == 2:
            _add_operator_equation(prob, {0: (1.0, True), 1: (-1.0, False)}, None, dims)
        if ny == 2:
            _add_operator_equation(
                prob, {y_off: (1.0, True), y_off + 1: (-1.0, False)}, None, dims)
        return prob

    cx = (sign_x / cone_x.normalization) * eye
    cy = (sign_y / cone_y.normalization) * eye

    prob_r = build({y_off: cy})
    sol_r = sdp_solve(prob_r)
    _solver_result_guard(sol_r, "base_norm")

    prob_n = build({0: cx, y_off: cy})
    sol_n = sdp_solve(prob_n)
    _solver_result_guard(sol_n, "base_norm")

    a_mat, b_mat = sol_r.blocks[0], sol_r.blocks[y_off]
    a_mat = sign_x * (partial_transpose(a_mat, 1, dims) if pt_x else a_mat)
    b_mat = sign_y * (partial_transpose(b_mat, 1, dims) if pt_y else b_mat)
    a_val = float(np.real(np.trace(a_mat))) / cone_x.normalization
    b_val = max(0.0, float(sol_r.value))
    omega = (a_mat + a_mat.conj().T) / (2.0 * a_val) if a_val > 1e-12 else None
    delta = (b_mat + b_mat.conj().T) / (2.0 * b_val) if b_val > 1e-12 else None
    return BaseNormResult(
        r_value=b_val, norm_value=max(0.0, float(sol_n.value)),
        a=max(0.0, a_val), omega=omega, b=b_val, delta=delta,
        gap=max(float(sol_r.gap), float(sol_n.gap)))


@dataclasses.dataclass(frozen=True)
class BsaResult:
    """Best PPT approximation ``rho = separable_part + remainder``.

    Attributes
    ----------
    weight : float
        Trace removed, ``tr(rho - A)`` for the maximal PPT part ``A``.
    separable_part : ndarray
        The maximal positive PPT operator dominated by ``rho``.
    remainder : ndarray
        ``rho - separable_part``; positive with trace ``weight``.
    gap : float
        Certified duality gap of the solve.
    status : str
    iterations : int
        Interior-point iterations of the solve.
    """

    weight: float
    separable_part: np.ndarray
    remainder: np.ndarray
    gap: float
    status: str
    iterations: int


def best_separable_approximation(state,
                                 config: SolverConfig | None = None) -> BsaResult:
    """Split a state into a maximal PPT part plus an entangled remainder.

    Maximizes ``tr(A)`` over ``A >= 0`` with positive partial transpose and
    ``rho - A >= 0``; for dimensions (2, 2) and (2, 3) the removed weight is
    the true best-separable-approximation weight.

    Parameters
    ----------
    state : DensityOperator or PureState
        Bipartite input with total dimension <= 36.
    config : SolverConfig, optional

    Returns
    -------
    BsaResult
    """
    rho, dims = _bipartite(state, "best_separable_approximation", BSA_DIM_LIMIT)
    cfg = config or _DEFAULT_CONFIG
    n = rho.shape[0]

    prob = SdpProblem((n, n, n))
    prob.set_objective(0, -np.eye(n))
    _add_operator_equation(prob, {0: (1.0, True), 1: (-1.0, False)}, None, dims)
    _add_operator_equation(prob, {0: (1.0, False), 2: (1.0, False)}, rho, dims)
    sol = sdp_solve(prob, max_iterations=min(cfg.max_iterations, 100))
    status = _solver_result_guard(sol, "best_separable_approximation")

    part = (sol.blocks[0] + sol.blocks[0].conj().T) / 2.0
    weight = min(1.0, max(0.0, 1.0 - float(np.real(np.trace(part)))))
    return BsaResult(weight=weight, separable_part=part, remainder=rho - part,
                     gap=float(sol.gap), status=status, iterations=sol.iterations)


def _roof_objective(tmat: np.ndarray, cvecs: np.ndarray,
                    dims: tuple[int, int]):
    """Average entanglement of the ensemble induced by an isometry, with grad."""
    da, db = dims
    phi = tmat @ cvecs
    mats = phi.reshape(-1, da, db)
    red = mats @ mats.conj().transpose(0, 2, 1)
    probs = np.maximum(np.real(np.trace(red, axis1=1, axis2=2)), 1e-300)
    w, u = np.linalg.eigh(red)
    w_clip = np.maximum(w, 1e-300)
    ent = -np.sum(np.where(w > 1e-18, w * np.log2(w_clip), 0.0))
    value = float(ent + np.sum(probs * np.log2(probs)))

    scale = np.log(probs)[:, None] - np.log(np.maximum(w, 1e-18))
    wmats = (u * scale[:, None, :]) @ u.conj().transpose(0, 2, 1) / _LN2
    lifted = np.einsum("kab,kbj->kaj", wmats, mats).reshape(phi.shape[0], -1)
    grad = lifted @ cvecs.conj().T
    return value, grad


def eof_convex_roof(state, m: int | None = None,
                    config: SolverConfig | None = None) -> MeasureResult:
    """Numerical convex-roof entanglement of formation, in bits.

    Minimizes the average entanglement of size-``m`` pure-state
    decompositions, parameterized by isometric mixing of the eigenensemble,
    with Riemannian gradient descent on the isometry manifold.  The result
    is an upper bound on the true convex roof.

    Parameters
    ----------
    state : DensityOperator or PureState
        Bipartite input with total dimension <= 16.
    m : int, optional
        Decomposition size; defaults to ``rank(rho) ** 2``.
    config : SolverConfig, optional

    Returns
    -------
    MeasureResult
        ``status == "best_effort"``; payload records the decomposition size
        and the winning restart.
    """
    rho, dims = _bipartite(state, "eof_convex_roof", ROOF_DIM_LIMIT)
    cfg = config or _DEFAULT_CONFIG
    eigs, vecs = np.linalg.eigh(rho)
    keep = eigs > 1e-12
    rank = int(keep.sum())
    cvecs = (vecs[:, keep] * np.sqrt(eigs[keep])).T
    if m is None:
        m = rank * rank
    if m < rank:
        raise ValidationError(
            "decomposition-size", detail=f"m={m} is below rank {rank}")

    rng = np.random.default_rng(cfg.seed)
    restarts = min(cfg.restarts, 64)
    best_value = math.inf
    best_restart = 0
    total_iters = 0

    for restart in range(restarts):
        if restart == 0:
            tmat = np.eye(m, rank, dtype=complex)
        else:
            raw = rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank))
            tmat, _ = np.linalg.qr(raw)
        value, grad = _roof_objective(tmat, cvecs, dims)
        step = 1.0
        for _ in range(cfg.max_iterations):
            total_iters += 1
            sym = (tmat.conj().T @ grad + grad.conj().T @ tmat) / 2.0
            riem = grad - tmat @ sym
            gnorm = float(np.linalg.norm(riem))
            if gnorm < 1e-10:
                break
            improved = False
            while step > 1e-14:
                cand, _ = np.linalg.qr(tmat - step * riem)
                cand_value, cand_grad = _roof_objective(cand, cvecs, dims)
                if cand_value < value - 1e-14 * step * gnorm ** 2:
                    tmat, value, grad = cand, cand_value, cand_grad
                    step = min(step * 2.0, 1.0)
                    improved = True
                    break
                step /= 2.0
            if not improved:
                break
        if value < best_value - 1e-12:
            best_value = value
            best_restart = restart

    payload = {"decomposition_size": m, "restarts": restarts,
               "best_restart": best_restart}
    return MeasureResult(max(0.0, best_value), "best_effort", gap=0.0,
                         iterations=total_iters, witness_payload=payload)


def geometric_measure(psi: PureState,
                      config: SolverConfig | None = None) -> MeasureResult:
    """Geometric measure of a pure multipartite state, in bits.

    Alternating maximization of the overlap with product states: each
    party's optimal local vector is the normalized conjugate contraction of
    the state against the other parties' vectors.  The best overlap found
    is a lower bound on the true maximum, so the reported value is an upper
    bound on the measure.

    Parameters
    ----------
    psi : PureState
        Total dimension <= 64.
    config : SolverConfig, optional

    Returns
    -------
    MeasureResult
        ``-log2`` of the best squared overlap; payload records restart
        statistics and the optimizing product vectors.
    """
    if not isinstance(psi, PureState):
        raise ValidationError(
            "state-type", detail="geometric_measure expects a PureState")
    dims = tuple(psi.dims)
    total = int(np.prod(dims))
    if total > GEOMETRIC_DIM_LIMIT:
        raise ValidationError(
            "dimension-limit",
            detail=f"geometric_measure supports total dimension <= {GEOMETRIC_DIM_LIMIT}")
    tensor = psi.vector.reshape(dims)
    nparties = len(dims)
    cfg = config or _DEFAULT_CONFIG
    rng = np.random.default_rng(cfg.seed)

    if nparties == 1:
        return MeasureResult(0.0, "best_effort", gap=0.0, iterations=0,
                             witness_payload={"max_overlap_sq": 1.0,
                                              "restarts": 0, "best_restart": 0,
                                              "product_vectors": [psi.vector.copy()]})

    def overlap_vec(vectors, skip):
        """Contract conj(tensor) with every party vector except ``skip``."""
        work = tensor.conj()
        for p in range(nparties - 1, -1, -1):
            if p == skip:
                continue
            work = np.tensordot(work, vectors[p], axes=([p], [0]))
        return work

    best_sq = 0.0
    best_vectors = None
    best_restart = 0
    sweeps_total = 0
    for restart in range(cfg.restarts):
        if restart == 0:
            vectors = []
            for p in range(nparties):
                flat = np.moveaxis(tensor, p, 0).reshape(dims[p], -1)
                _, _, vh = np.linalg.svd(flat, full_matrices=False)
                u = flat @ vh[0].conj()
                vectors.append(u / np.linalg.norm(u))
        else:
            vectors = []
            for p in range(nparties):
                v = rng.normal(size=dims[p]) + 1j * rng.normal(size=dims[p])
                vectors.append(v / np.linalg.norm(v))
        prev = 0.0
        for _ in range(cfg.max_iterations):
            sweeps_total += 1
            for p in range(nparties):
                w = overlap_vec(vectors, p)
                norm = np.linalg.norm(w)
                if norm < 1e-300:
                    break
                vectors[p] = w.conj() / norm
            amp = np.tensordot(overlap_vec(vectors, 0), vectors[0], axes=([0], [0]))
            sq = float(np.abs(amp)) ** 2
            if sq - prev < 1e-12:
                prev = sq
                break
            prev = sq
        if prev > best_sq + 1e-12:
            best_sq = prev
            best_vectors = [v.copy() for v in vectors]
            best_restart = restart

    value = max(0.0, -math.log2(best_sq)) if best_sq > 0 else math.inf
    payload = {"max_overlap_sq": best_sq, "restarts": cfg.restarts,
               "best_restart": best_restart, "product_vectors": best_vectors}
    return MeasureResult(value, "best_effort", gap=0.0,
                         iterations=sweeps_total, witness_payload=payload)


def rains_bound(state, config: SolverConfig | None = None) -> MeasureResult:
    """Rains bound ``min S(rho || sigma)`` over ``sigma >= 0, ||sigma^Gamma||_1 <= 1``.

    A convex problem (Rains, IEEE Trans. Inf. Theory 47, 2921 (2001)),
    solved like the relative entropy of entanglement with
    ``sigma = (P - N)^Gamma`` and the barrier
    ``-log det sigma - log det P - log det N - log(1 - tr P - tr N)``, and
    certified by one linear minimization over the same set (an SDP).

    Parameters
    ----------
    state : DensityOperator or PureState
        Bipartite input with total dimension <= 16.
    config : SolverConfig, optional
        ``max_iterations`` caps the Newton steps; ``restarts`` and ``seed``
        are not used.

    Returns
    -------
    MeasureResult
        ``"converged"`` when the certified gap reached the configured
        tolerance, otherwise ``"best_effort"``; ``iterations`` counts Newton
        steps.  ``witness_payload["minimizing_state"]`` holds sigma (a PPT
        input is its own, with value 0).
    """
    rho, dims = _bipartite(state, "rains_bound", RAINS_DIM_LIMIT)
    cfg = config or _DEFAULT_CONFIG
    n = rho.shape[0]
    basis, basis_pt = _basis_with_pt(dims)
    flat, flat_pt = basis.reshape(n * n, n * n), basis_pt.reshape(n * n, n * n)
    zero = np.zeros((n, n), dtype=complex)
    trace_row = np.real(np.einsum("aii->a", basis))
    # x = (P, N) in the basis; terms sigma, P, N and 1 - tr P - tr N
    terms = [(zero, np.vstack([flat_pt, -flat_pt])),
             (zero, np.vstack([flat, np.zeros_like(flat)])),
             (zero, np.vstack([np.zeros_like(flat), flat])),
             (np.ones((1, 1), dtype=complex),
              -np.concatenate([trace_row, trace_row]).astype(complex)[:, None])]
    start = np.concatenate([0.45 * trace_row, 0.05 * trace_row]) / n
    sigma, result = _barrier_newton(rho, dims, terms, start, 3 * n + 1, cfg,
                                    lambda grad: _minimize_over_rains_set(grad, dims))
    result.witness_payload["minimizing_state"] = sigma
    return result


def witness_violation(state, verify: bool = False):
    """Partial-transpose witness and its violation for a bipartite state.

    Builds ``W = (|eta><eta|)^{T_B}`` from the most negative eigenvector of
    the partially transposed state; the violation ``max(0, -tr(W rho))``
    equals the magnitude of that eigenvalue.

    Parameters
    ----------
    state : DensityOperator or PureState
    verify : bool
        When true, certify ``tr(W sigma) >= -1e-8`` over PPT states by an
        SDP before returning.

    Returns
    -------
    (witness, violation) : (ndarray or None, float)
        ``(None, 0.0)`` for PPT inputs.
    """
    rho, dims = _bipartite(state, "witness_violation")
    pt_rho = partial_transpose(rho, 1, dims)
    w, v = np.linalg.eigh(pt_rho)
    if float(w[0]) >= -_PPT_TOL:
        return None, 0.0
    eta = v[:, 0]
    witness = partial_transpose(np.outer(eta, eta.conj()), 1, dims)
    witness = (witness + witness.conj().T) / 2.0
    violation = max(0.0, -float(np.real(np.vdot(rho, witness))))
    if verify:
        bound, _ = minimize_over_ppt_states(witness, dims)
        if bound < -1e-8:
            raise ValidationError("witness-positivity", residual=-bound,
                                  limit=1e-8,
                                  detail="witness fails nonnegativity on PPT states")
    return witness, violation


def squashed_eval(rho_abe: DensityOperator,
                  target: DensityOperator | None = None) -> MeasureResult:
    """Half the conditional mutual information of a supplied extension.

    Evaluates ``I(A;B|E) / 2`` for a tripartite extension, an upper bound
    on the squashed entanglement of the A:B reduction (the full measure
    infimizes over all extensions, which is out of scope).

    Parameters
    ----------
    rho_abe : DensityOperator
        State on exactly three subsystems A, B, E.
    target : DensityOperator, optional
        Expected A:B reduction; mismatch beyond 1e-8 raises.

    Returns
    -------
    MeasureResult
        ``status == "best_effort"``.
    """
    rho = _as_density(rho_abe, "squashed_eval")
    if len(rho.dims) != 3:
        raise ValidationError(
            "tripartite", detail="squashed_eval needs exactly 3 subsystems")
    if target is not None:
        target_rho = _as_density(target, "squashed_eval target")
        reduced = partial_trace(rho, (0, 1))
        residual = float(np.linalg.norm(reduced.matrix - target_rho.matrix))
        if residual > 1e-8:
            raise ValidationError("extension-mismatch", residual=residual,
                                  limit=1e-8)
    value = 0.5 * conditional_mutual_information(rho)
    payload = {"note": "upper bound from the supplied extension only"}
    return MeasureResult(max(0.0, value), "best_effort", gap=0.0,
                         iterations=0, witness_payload=payload)
