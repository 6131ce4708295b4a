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

from .closed_form import binary_entropy
from .errors import ValidationError
from .sdp import (
    MAX_BLOCK_DIM,
    SdpProblem,
    SdpSolution,
    _BlockOperator,
    _SchurWorkspace,
    _cholesky,
    _eigen_blocks,
    _max_step,
    dual_bound,
    sdp_solve,
)
from .states import (
    DensityOperator,
    MeasureResult,
    PureState,
    _check_dims,
    _choice,
    _count,
    _hermitian,
    _is_finite_real,
    _shape,
    _shown,
    _state,
    conditional_mutual_information,
    is_ppt,
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


# dimensions at which the PPT set equals the separable set
_EXACT_PPT_DIMS = {(2, 2), (2, 3)}
_LN2 = math.log(2.0)

# the PPT-constrained SDPs (the LMO, REE, BSA, robustness and base norms)
# have blocks of the state's side
PPT_DIM_LIMIT = MAX_BLOCK_DIM
ROOF_DIM_LIMIT = 16
RAINS_DIM_LIMIT = 25
GEOMETRIC_DIM_LIMIT = 64


# per cone kind, the (sign s, parties) blocks s T(M) whose positivity puts M
# in the cone, T the partial transpose of the parties (the identity for ())
_CONE_BLOCKS = {
    "PPT-operators": ((1.0, (1,)),),
    "separable-outer": ((1.0, ()), (1.0, (1,))),
    "all-PSD": ((1.0, ()),),
    "negated-PSD": ((-1.0, ()),),
}
CONE_KINDS = tuple(_CONE_BLOCKS)


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
        _choice(self.kind, CONE_KINDS, "cone-kind", "cone kind")
        alpha = self.normalization
        if not _is_finite_real(alpha):
            raise ValidationError(
                "cone-normalization",
                detail=f"normalization must be a finite real number, got {_shown(alpha)}")
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
        Certified-gap target for solvers that produce certificates; finite
        and positive.
    restarts : int
        Number of random restarts for multi-start searches; REE and Rains ignore it.
    seed : int
        Nonnegative seed for all randomized initializations.

    The counts and the seed must be integers (Python or numpy, not bools);
    anything else raises ``ValidationError`` rather than being truncated.
    """

    max_iterations: int = 200
    gap_tolerance: float = 1e-6
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        _count(self.max_iterations, "max_iterations", "solver-config", low=1)
        _count(self.restarts, "restarts", "solver-config", low=1)
        _count(self.seed, "seed", "solver-config")
        gap = self.gap_tolerance
        if not (_is_finite_real(gap) and gap > 0.0):
            raise ValidationError(
                "solver-config", detail="gap tolerance must be a finite positive number")


_DEFAULT_CONFIG = SolverConfig()


def _term(sign: float, parties: tuple, mat: np.ndarray, dims) -> np.ndarray:
    """``s T(M)`` for one ``(sign, parties)`` term of an operator equation."""
    return sign * (partial_transpose(mat, parties, dims) if parties else mat)


def _equation_problem(n: int, dims, equations) -> SdpProblem:
    """Side-n blocks tied by homogeneous operator equations, each the
    ``terms`` of ``SdpProblem.add_operator_equation``."""
    prob = SdpProblem((n,) * (1 + max(j for terms in equations for j in terms)))
    for terms in equations:
        prob.add_operator_equation(terms, None, dims)
    return prob


# sigma^Gamma = Y: blocks sigma and Y, the PPT states when tr sigma = 1
_PPT_SET = [{0: (1.0, (1,)), 1: (-1.0, ())}]
# sigma^Gamma = P - N: blocks sigma, P and N, the Rains set ||sigma^Gamma||_1
# <= 1 when tr P + tr N = 1; the face loses no sigma, since adding c I to both
# Jordan parts of sigma^Gamma fills any trace below 1
_RAINS_SET = [{0: (1.0, (1,)), 1: (-1.0, ()), 2: (1.0, ())}]


def _coordinates(equations) -> list:
    """The free coordinates of homogeneous operator equations, each with one
    ``(-1, ())`` slack block ``X_k = sum_j s_j T_j(X_j)``.

    Every other block j is a free variable: a table entry, in block order,
    mapping its own block to ``(1, ())`` (first) and each slack it enters to
    its term there, the ``terms`` of ``SdpProblem.add_operator_equation``.
    """
    slacks = [next(k for k, term in terms.items() if term == (-1.0, ())) for terms in equations]
    free = sorted({j for terms in equations for j in terms} - set(slacks))
    return [{j: (1.0, ()), **{k: terms[j] for k, terms in zip(slacks, equations) if j in terms}}
            for j in free]


def _linear_minimum(objective: np.ndarray, dims, equations, trace) -> tuple:
    """Certified ``min <G, X_0>`` over blocks tied by ``equations`` with
    ``sum_{j in trace} tr X_j = 1``.

    Every block must have trace at most 1 on the feasible set, so that
    ``dual_bound`` is a rigorous lower bound however the solve ends.
    Returns that bound and the solution.
    """
    n = objective.shape[0]
    prob = _equation_problem(n, dims, equations)
    prob.set_objective(0, objective)
    prob.add_equality({j: np.eye(n) for j in trace}, 1.0)
    sol = sdp_solve(prob)
    return dual_bound(prob, sol.y), sol


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

    Parameters
    ----------
    objective : ndarray
        Hermitian matrix G (finite, Hermitian within 1e-10), total
        dimension <= 36.
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
    g = _hermitian(objective, "objective")
    dims = _shape(_check_dims(dims, g.shape[0]), "minimize_over_ppt_states", 2,
                  limit=PPT_DIM_LIMIT)
    w, vecs = np.linalg.eigh(g)
    vertex = np.outer(vecs[:, 0], vecs[:, 0].conj())
    # the unrestricted minimum lower-bounds the PPT minimum; when its
    # eigenvector is itself PPT the two coincide and no SDP is needed
    if is_ppt(vertex, 1, dims):
        return float(w[0]), vertex

    bound, sol = _linear_minimum(g, dims, _PPT_SET, (0,))
    return bound, _clean_state(sol.blocks[0])


# Barrier method (Boyd & Vandenberghe, Convex Optimization, ch. 11), t grown by
# this factor after each predictor step.  Newton steps with the predictor, over
# 46 Ginibre states from default_rng(2024) (2x2 to 4x4 at ranks 1, 2, n/2 and n)
# and over one traced round of the ree-bounds benchmark (2x2 states):
#   growth               32    128    256    512   1000   (32, no predictor)
#   46 states, REE     1707   1514   1567   1557   1788   2108
#   46 states, Rains   1961   1701   1715   1643   1869   2217
#   ree-bounds round    295    316    297    284    211    430
# 1000 is fastest at 2x2 but costs rank-2 states at 3x3 to 4x4 up to 85 steps;
# 512 keeps both sweeps below 1600 and 1800 steps and the round below 300.
_T_GROWTH = 512.0
_CENTERED = 1e-9  # Newton decrement lambda^2 / 2 that ends a centering,
_RESOLVED = 1e-12  # or this share of t f + barrier, below which the line
# search sees only rounding: without it a 4x4 state ran to the step cap


def _log_gradient(rho: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple:
    """The gradient ``G = -V (d1 o rho~) V^H`` of ``f = -tr(rho log M)`` at
    ``M = V diag(w) V^H``, with ``d1 = log[w_i, w_k]`` and ``rho~ = V^H rho V``.

    ``log1p`` of the ratio gives the quotient where ``|w_i - w_k| < w_k / 2``,
    as a difference of logs would cancel there; equal arguments take the
    limit ``1 / w_i``.
    """
    diff = w[:, None] - w
    quotient = np.log1p(diff / w)
    logs = np.log(w)
    np.subtract(logs[:, None], logs, out=quotient, where=np.abs(diff) >= 0.5 * w)
    d1 = np.empty_like(diff)
    d1[:] = 1.0 / w
    np.divide(quotient, diff, out=d1, where=diff != 0.0)
    vh = v.conj().T
    rho_t = vh @ rho @ v
    return -(v @ (d1 * rho_t) @ vh), d1, rho_t


def _log_second_differences(w: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Second divided differences ``log[w_i, w_k, w_j]``, indexed ``[i, k, j]``.

    Arguments within 1e-8 relative take the limits ``(f[x, y] - f[x, x]) /
    (y - x)`` and ``f''(x) / 2``, as at the fully degenerate start ``I/n``.
    """
    gap = w[:, None] - w
    dist = np.abs(gap)
    near = 1e-8 * np.maximum(np.maximum.outer(w, w)[:, :, None], w)
    paired = np.divide(1.0 / w[:, None] - d1, gap, out=np.zeros_like(gap), where=gap != 0.0)
    out = np.where(dist[:, :, None] <= near, (-0.5 / w ** 2)[:, None, None], paired[:, :, None])
    np.divide(d1[:, :, None] - d1, gap[:, None, :], out=out, where=dist[:, None, :] > near)
    return out


def _evaluate(rho: np.ndarray, mats):
    """The blocks' eigendecompositions, ``f = -tr(rho log M_0)`` and the
    barrier ``-sum_j log det M_j``; None off the interior."""
    eigs = _eigen_blocks(mats)
    if eigs is None:
        return None
    w, v = eigs[0]
    weights = np.real(np.sum(v.conj() * (rho @ v), axis=0))
    barrier = -sum(float(np.sum(np.log(wj))) for wj, _ in eigs)
    return eigs, -float(weights @ np.log(w)), barrier


def _newton_system(rho: np.ndarray, ops, eigs, t: float, work=None):
    """Gradient and Hessian of ``t f + barrier`` in the coordinates x.

    Block j's barrier has gradient ``-A_j(M_j^-1)`` and Hessian
    ``tr(M_j^-1 A_a M_j^-1 A_b)``, the Schur matrix at ``X = S^-1 = M_j^-1``,
    built in the accumulator of ``work`` (a ``_SchurWorkspace`` of ``ops``,
    valid until its next use).  f has gradient ``A_0(G)``, G of
    ``_log_gradient``, and Hessian ``-(T + T^T)`` on the rows that touch
    block 0 (``ops[0].rows``, read and added at ``ops[0].target`` like the
    Schur build's), zero elsewhere: ``T_ab = sum_ikj F_ikj rho~_ji B_a,ik
    B_b,kj``, with F the second divided differences of log (Daleckii-Krein)
    and ``B_a = V^H A_a V``, A_a those rows.  A_a is Hermitian, so ``rot_a
    = (A_a V)^T conj(V) = conj(B_a)``.  Each row of block 0, a free block of
    ``_coordinates``, is one basis element with at most two entries, so it
    is one pair row of ``ops[0]``, and its slots ``(p_s, q_s, v_s)`` give
    ``rot_a = sum_s v_s V[q_s]^T conj(V[p_s])``: one batched product of
    rank-2 factors, with no dense copy of the rows.
    ``C_a,kj = sum_i B_a,ik F_ikj rho~_ji`` is one batched product over k,
    and ``Re T_ab = <Y_a, Re B_b + Im B_b>``, ``2 Y = Re C - Im C + (Re C +
    Im C)^T``, is one real product.
    """
    invs = [(v / w) @ v.conj().T for w, v in eigs]
    hess = (work or _SchurWorkspace(ops)).assemble(invs, invs)
    w, v = eigs[0]
    n = w.size
    g, d1, rho_t = _log_gradient(rho, w, v)
    op = ops[0]
    p, q = np.divmod(op.slot_cols, n)
    rot = ((v[q] * op.slot_vals[:, :, None]).transpose(1, 2, 0)
           @ v.conj()[p].transpose(1, 0, 2))
    weights = _log_second_differences(w, d1) * rho_t.T[:, None, :]
    c = (rot.transpose(1, 0, 2) @ weights.transpose(1, 0, 2)).transpose(1, 0, 2)
    y = c.real - c.imag + (c.real + c.imag).transpose(0, 2, 1)
    tmat = y.reshape(-1, n * n) @ (rot.real - rot.imag).reshape(-1, n * n).T
    hess[op.target] -= t / 2.0 * (tmat + tmat.T)
    grad = op.apply(t * g - invs[0])
    return grad - sum(op.apply(inv) for op, inv in zip(ops[1:], invs[1:])), hess


def _projected(solve, rhs: np.ndarray, equality: np.ndarray) -> np.ndarray:
    """``H^-1 rhs`` by the factor ``solve`` of H, less the multiple of
    ``H^-1 e`` that keeps the trace row ``e.x = 1``: a direction of the
    Newton system with that equality."""
    d, toward = solve(np.column_stack((rhs, equality))).T
    return d - toward * (equality @ d) / (equality @ toward)


def _tangent(rho: np.ndarray, ops, eigs, solve, equality: np.ndarray) -> np.ndarray:
    """The tangent ``dx/dt = -H^-1 grad f`` of the central path at a centered
    point (Boyd & Vandenberghe, Convex Optimization, sec. 11.3), H the
    Hessian of ``t f + barrier`` there, factored by ``solve``, and
    ``grad f = A_0(G)``."""
    return _projected(solve, -ops[0].apply(_log_gradient(rho, *eigs[0])[0]), equality)


def _barrier_newton(rho: np.ndarray, dims: tuple[int, int], equations, trace,
                    cfg: SolverConfig):
    """Minimize ``S(rho || X_0)`` over the blocks tied by ``equations`` with
    ``sum_{j in trace} tr X_j = 1`` (the sets of ``_linear_minimum``) by a
    barrier method, then certify it.

    Each variable of ``_coordinates(equations)``, read in dual form, gives
    the blocks ``M_j(x) = sum_i x_i A_ij`` with barrier ``-log det M_j``
    (parameter nu, the sum of the block sizes).  The trace row holds
    throughout, from every variable at the multiple of I that meets it.
    Damped Newton steps center ``t f + barrier``, ``f = -tr(rho log M_0)``;
    t grows by ``_T_GROWTH`` from 1 until ``nu / (t ln 2)`` is half the gap
    tolerance, unless the steps reach ``cfg.max_iterations`` first.  Before
    t grows, a centering that ended on the Newton decrement takes one
    predictor step along the central path's tangent (``_tangent``, from
    the factor of its last Newton system) over the growth of t, at most
    0.9 of the way to the boundary, and keeps it when the point is
    interior; a centering that ended otherwise has no factor at its point,
    and the next one starts where it stopped.  With the certified
    ``L = _linear_minimum(G, ...)`` below ``min tr(G sigma)`` on the set,
    ``S + L - <G, sigma>`` at the gradient G of f bounds the minimum below,
    however well the point is centered.

    Returns sigma and a MeasureResult whose payload holds the certified
    ``"lower_bound"`` and S at the point kept after each centering
    (``"objective_trace"``).  A PPT input, feasible for every caller, is its
    own minimizer with S = 0.
    """
    if is_ppt(rho, 1, dims):
        return rho.copy(), MeasureResult(0.0, "converged", witness_payload={
            "lower_bound": 0.0, "objective_trace": [0.0]})
    n = rho.shape[0]
    coordinates = _coordinates(equations)
    prob = _equation_problem(n, dims, coordinates)
    ops = [_BlockOperator(prob, j) for j in range(len(prob.block_dims))]
    work = _SchurWorkspace(ops)
    equality = sum(ops[j].apply(np.eye(n)) for j in trace)
    # every variable at I on its own block, then scaled onto the trace row
    x = sum(ops[next(iter(terms))].apply(np.eye(n)) for terms in coordinates)
    x = x / (equality @ x)
    mats = [op.adjoint(x) for op in ops]
    eigs, f, barrier = _evaluate(rho, mats)
    # half the tolerance: the bound needs exact centering, and the SDP has its error
    t, t_end = 1.0, 2.0 * sum(op.n for op in ops) / (_LN2 * cfg.gap_tolerance)
    steps, best, kept = 0, (math.inf, x), []
    while True:
        centered = None  # the factor at x, when the decrement ends the centering
        while steps < cfg.max_iterations:
            grad, hess = _newton_system(rho, ops, eigs, t, work)
            solve = _cholesky(hess)
            if solve is None:
                break
            dx = _projected(solve, -grad, equality)
            decrement = -float(grad @ dx)
            merit = t * f + barrier
            if decrement / 2.0 <= max(_CENTERED, _RESOLVED * abs(merit)):
                centered = solve
                break
            steps += 1
            # cap the step at 0.99 of the way to the boundary, then backtrack (Armijo)
            dirs = [op.adjoint(dx) for op in ops]
            step = min(1.0, 0.99 * min(_max_step(eig, d) for d, eig in zip(dirs, eigs)))
            while step >= 1e-10:
                trial_mats = [mat + step * d for mat, d in zip(mats, dirs)]
                trial = _evaluate(rho, trial_mats)
                if trial and t * trial[1] + trial[2] <= merit - 0.25 * step * decrement:
                    break
                step /= 2.0
            else:
                break  # no decrease left at this t
            x, mats = x + step * dx, trial_mats
            eigs, f, barrier = trial
        if f <= best[0]:
            best = (f, x)
        kept.append(best[0])
        if t >= t_end or steps >= cfg.max_iterations:
            break
        t_next = min(t * _T_GROWTH, t_end)
        if centered is not None:
            dx = (t_next - t) * _tangent(rho, ops, eigs, centered, equality)
            dirs = [op.adjoint(dx) for op in ops]
            step = min(1.0, 0.9 * min(_max_step(eig, d) for d, eig in zip(dirs, eigs)))
            trial_mats = [mat + step * d for mat, d in zip(mats, dirs)]
            trial = _evaluate(rho, trial_mats)
            if trial:
                x, mats = x + step * dx, trial_mats
                eigs, f, barrier = trial
        t = t_next
    del work  # free the Newton buffers before the certificate's SDP
    [(w, v)], f, _ = _evaluate(rho, [ops[0].adjoint(best[1])])
    sigma = (v * w) @ v.conj().T
    grad = _log_gradient(rho, w, v)[0]
    grad = (grad + grad.conj().T) / 2.0
    entropy = von_neumann_entropy(rho)
    value = max(0.0, f / _LN2 - entropy)
    lower = (f + _linear_minimum(grad, dims, equations, trace)[0]
             - float(np.real(np.vdot(sigma, grad)))) / _LN2 - entropy
    gap = max(0.0, value - lower)
    return sigma, MeasureResult(
        value, "converged" if gap <= cfg.gap_tolerance else "best_effort", gap=gap,
        iterations=steps, witness_payload={
            "lower_bound": lower,
            "objective_trace": [s / _LN2 - entropy for s in kept]})


def relative_entropy_of_entanglement(state,
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
    config : SolverConfig, optional
        ``max_iterations`` caps the Newton steps; ``restarts`` and ``seed``
        are not used.

    Returns
    -------
    MeasureResult
        ``status == "converged"`` when the certified gap reached the
        configured tolerance, otherwise ``"best_effort"``; ``iterations``
        counts Newton steps.  ``witness_payload["closest_state"]`` holds the
        best PPT state found (a PPT input is its own, with value 0), and
        ``witness_payload["separable_set"]`` whether the value is exact for
        the separable set (dimensions (2, 2) and (2, 3)) or a lower bound.
    """
    rho = _state(state, "relative_entropy_of_entanglement", parties=2, limit=PPT_DIM_LIMIT)
    cfg = config or _DEFAULT_CONFIG
    sigma, result = _barrier_newton(rho.matrix, rho.dims, _PPT_SET, (0,), cfg)
    result.witness_payload.update(
        closest_state=sigma,
        separable_set="exact" if tuple(sorted(rho.dims)) in _EXACT_PPT_DIMS
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
    d = _count(d, "d", "werner-domain", low=2)
    if not (_is_finite_real(p) and 0.5 < p <= 1.0):
        raise ValidationError("werner-domain", detail="p must be a real number in (1/2, 1]")
    # int quotients: a d past the float range would overflow as a float
    breakpoint_p = (d + 2) / (2 * d)
    if p <= breakpoint_p:
        return 1.0 - binary_entropy(p)
    return math.log2((d + 2) / d) + (1.0 - p) * math.log2((d - 2) / (d + 2))


def _solver_result_guard(sol: SdpSolution, context: str, gap_tolerance: float) -> str:
    if sol.status not in ("optimal", "max-iterations"):
        raise ValidationError("solver-status", detail=f"{context} SDP reported {sol.status}")
    return "converged" if sol.status == "optimal" and sol.gap <= gap_tolerance else "best_effort"


_NOISE_CONES = {"global": ConeSpec("all-PSD"), "separable": ConeSpec("separable-outer")}


def _base_norm_sdp(h: np.ndarray, dims: tuple[int, int], cone_x: ConeSpec,
                   cone_y: ConeSpec, scale: float = 1.0,
                   max_iterations: int = 100) -> SdpSolution:
    """Least ``scale * b`` over ``h = X - N``, X in ``cone_x``, N = b delta
    with delta a normalized member of ``cone_y``, in coordinate form (the
    primal/dual pair of Vandenberghe & Boyd, SIAM Rev. 38, 49 (1996)): the
    multipliers are the coordinates of ``N = -sum_i y_i E_i`` in the basis
    of ``SdpProblem.add_operator_equation``, and the dual slacks are the
    cone blocks of N, then of ``h + N``.  One equation ``sum_j s_j T_j(X_j) = scale I /
    alpha_y`` ties the primal blocks, whose objectives are ``s_j T_j(h)`` on
    those of ``h + N``, so ``-dual_value`` is the least ``scale * b``.
    """
    n = dims[0] * dims[1]
    y_blocks, x_blocks = _CONE_BLOCKS[cone_y.kind], _CONE_BLOCKS[cone_x.kind]
    prob = SdpProblem((n,) * (len(y_blocks) + len(x_blocks)))
    for j, (sign, parties) in enumerate(x_blocks, len(y_blocks)):
        prob.set_objective(j, _term(sign, parties, h, dims))
    prob.add_operator_equation(dict(enumerate(y_blocks + x_blocks)),
                               (scale / cone_y.normalization) * np.eye(n), dims)
    return sdp_solve(prob, max_iterations=max_iterations)


def robustness(state, noise: str = "global",
               config: SolverConfig | None = None) -> MeasureResult:
    """Minimal noise weight washing out entanglement, SDP-certified.

    Computes the least ``t >= 0`` such that ``(rho + t sigma) / (1 + t)``
    is a PPT state, with ``sigma`` ranging over all states (``"global"``)
    or over PPT states (``"separable"``, the tractable stand-in for
    separable noise).

    One ``_base_norm_sdp`` over PPT operators and the noise cone gives
    it, with dual slacks ``N = t sigma``, ``N^Gamma`` (separable noise
    only) and ``(rho + N)^Gamma``; ``rho + N >= 0`` holds already.  Both
    sides are strictly feasible for every state: ``N = c I`` with
    ``c > max(0, -lambda_min(rho^Gamma))``, and ``X = (I/2, I/4, I/4)``
    (``(I/2, I/2)`` for global noise), since ``I^Gamma = I``.  The
    reported ``t`` is the dual objective, the one the returned noise
    reaches.

    Parameters
    ----------
    state : DensityOperator or PureState
        Bipartite input with total dimension <= 36.
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
    noise = _choice(noise, _NOISE_CONES, "noise-kind", "noise model")
    rho = _state(state, "robustness", parties=2, limit=PPT_DIM_LIMIT)
    cfg = config or _DEFAULT_CONFIG
    sol = _base_norm_sdp(rho.matrix, rho.dims, ConeSpec("PPT-operators"), _NOISE_CONES[noise],
                         max_iterations=min(cfg.max_iterations, 100))
    status = _solver_result_guard(sol, "robustness", cfg.gap_tolerance)

    t = max(0.0, -float(sol.dual_value))
    payload = {
        "noise_state": _clean_state(sol.dual_blocks[0]) if t > 1e-10 else None,
        "relaxation": "exact" if tuple(sorted(rho.dims)) in _EXACT_PPT_DIMS
        else "ppt-outer",
        "noise": noise,
    }
    return MeasureResult(t, status, gap=float(sol.gap),
                         iterations=sol.iterations, witness_payload=payload)


@dataclasses.dataclass(frozen=True, eq=False)
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
        Certified gap of ``r_value`` and of ``norm_value``, the larger.
    """

    r_value: float
    norm_value: float
    a: float
    omega: np.ndarray | None
    b: float
    delta: np.ndarray | None
    gap: float


def base_norm(h, cone_x: ConeSpec, cone_y: ConeSpec,
              dims: tuple[int, int] | None = None) -> BaseNormResult:
    """Base norm of a Hermitian operator over a pair of cones.

    Decomposes ``h = a*omega - b*delta`` with ``omega`` a normalized member
    of the first cone and ``delta`` of the second, minimizing ``b`` (the
    robustness-type value) and ``a + b`` (the norm).  With both cones set
    to PPT-operators the minimal ``b`` equals the negativity of ``h``.

    Every decomposition has ``a + b = tr h / alpha_x + k b``, with
    ``k = 1 + alpha_y / alpha_x``: for ``k >= 0`` one solve gives both
    values, and only ``k < 0`` takes a second, for the least ``k b``.

    Parameters
    ----------
    h : DensityOperator, PureState, or ndarray
        Hermitian operator, total dimension <= 36; raw arrays need ``dims``.
    cone_x, cone_y : ConeSpec
    dims : tuple of int, optional
        Bipartite dimensions when ``h`` is a raw array.

    Returns
    -------
    BaseNormResult
    """
    if isinstance(h, (DensityOperator, PureState)):
        h = _state(h, "base_norm", parties=2, limit=PPT_DIM_LIMIT)
        mat, dims = h.matrix, h.dims
    elif dims is None:
        raise ValidationError(
            "dims-required", detail="raw operators need explicit dims")
    else:
        mat = _hermitian(h, "operator")
        dims = _shape(_check_dims(dims, mat.shape[0]), "base_norm", 2, limit=PPT_DIM_LIMIT)
    alpha_x, alpha_y = cone_x.normalization, cone_y.normalization
    tol = _DEFAULT_CONFIG.gap_tolerance
    sol = _base_norm_sdp(mat, dims, cone_x, cone_y)
    _solver_result_guard(sol, "base_norm", tol)
    b_val = max(0.0, -float(sol.dual_value))
    trace_part = float(np.real(np.trace(mat))) / alpha_x
    k = 1.0 + alpha_y / alpha_x
    if k >= 0.0:
        norm_value, gap = trace_part + k * b_val, max(1.0, k) * float(sol.gap)
    else:
        sol_n = _base_norm_sdp(mat, dims, cone_x, cone_y, scale=k)
        _solver_result_guard(sol_n, "base_norm", tol)
        norm_value = trace_part - float(sol_n.dual_value)
        gap = max(float(sol.gap), float(sol_n.gap))

    n_mat = _term(*_CONE_BLOCKS[cone_y.kind][0], sol.dual_blocks[0], dims)
    x_mat = mat + n_mat
    a_val = float(np.real(np.trace(x_mat))) / alpha_x
    omega = (x_mat + x_mat.conj().T) / (2.0 * a_val) if a_val > 1e-12 else None
    delta = (n_mat + n_mat.conj().T) / (2.0 * b_val) if b_val > 1e-12 else None
    return BaseNormResult(
        r_value=b_val, norm_value=max(0.0, norm_value),
        a=max(0.0, a_val), omega=omega, b=b_val, delta=delta, gap=gap)


@dataclasses.dataclass(frozen=True, eq=False)
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

    One ``_base_norm_sdp`` over separable-outer and negated-PSD(-1) gives
    it, with dual slacks ``rho - A = -N``, ``A`` and ``A^Gamma``.  When rho
    is singular, ``0 <= A <= rho`` has no interior and the solve may end
    ``best_effort``.

    Parameters
    ----------
    state : DensityOperator or PureState
        Bipartite input with total dimension <= 36.
    config : SolverConfig, optional

    Returns
    -------
    BsaResult
    """
    rho = _state(state, "best_separable_approximation", parties=2, limit=PPT_DIM_LIMIT)
    cfg = config or _DEFAULT_CONFIG
    sol = _base_norm_sdp(rho.matrix, rho.dims, ConeSpec("separable-outer"),
                         ConeSpec("negated-PSD", -1.0),
                         max_iterations=min(cfg.max_iterations, 100))
    status = _solver_result_guard(sol, "best_separable_approximation", cfg.gap_tolerance)

    part = (sol.dual_blocks[1] + sol.dual_blocks[1].conj().T) / 2.0
    weight = min(1.0, max(0.0, 1.0 - float(np.real(np.trace(part)))))
    return BsaResult(weight=weight, separable_part=part, remainder=rho.matrix - part,
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
        Decomposition size, from ``rank(rho)`` to ``ROOF_DIM_LIMIT ** 2 =
        256``; defaults to ``rank(rho) ** 2``, which is enough for an
        optimal decomposition and never exceeds the cap.
    config : SolverConfig, optional

    Returns
    -------
    MeasureResult
        ``status == "best_effort"``; payload records the decomposition size
        and the winning restart.
    """
    rho = _state(state, "eof_convex_roof", parties=2, limit=ROOF_DIM_LIMIT)
    cfg = config or _DEFAULT_CONFIG
    eigs, vecs = np.linalg.eigh(rho.matrix)
    keep = eigs > 1e-12
    rank = int(keep.sum())
    cvecs = (vecs[:, keep] * np.sqrt(eigs[keep])).T
    m = rank * rank if m is None else m
    m = _count(m, "m", "decomposition-size", low=rank, high=ROOF_DIM_LIMIT ** 2)

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
        value, grad = _roof_objective(tmat, cvecs, rho.dims)
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
                cand_value, cand_grad = _roof_objective(cand, cvecs, rho.dims)
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
    dims = _state(psi, "geometric_measure", pure=True, limit=GEOMETRIC_DIM_LIMIT).dims
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
    solved like the relative entropy of entanglement over sigma and N with
    ``P = sigma^Gamma + N`` on ``tr P + tr N = 1`` (which reaches every
    sigma of the set) and the barrier
    ``-log det sigma - log det P - log det N``, and certified by one linear
    minimization over the same set (an SDP).

    Parameters
    ----------
    state : DensityOperator or PureState
        Bipartite input with total dimension <= 25.
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
    rho = _state(state, "rains_bound", parties=2, limit=RAINS_DIM_LIMIT)
    cfg = config or _DEFAULT_CONFIG
    sigma, result = _barrier_newton(rho.matrix, rho.dims, _RAINS_SET, (1, 2), cfg)
    result.witness_payload["minimizing_state"] = sigma
    return result


def witness_violation(state):
    """Partial-transpose witness and its violation for a bipartite state.

    Builds ``W = (|eta><eta|)^{T_B}`` from the most negative eigenvector of
    the partially transposed state; the violation ``max(0, -tr(W rho))``
    equals the magnitude of that eigenvalue.  ``tr(W sigma) =
    <eta|sigma^{T_B}|eta> >= 0`` for every PPT sigma, so W needs no
    certificate.

    Parameters
    ----------
    state : DensityOperator or PureState

    Returns
    -------
    (witness, violation) : (ndarray or None, float)
        ``(None, 0.0)`` exactly for PPT inputs (``states.is_ppt``).
    """
    rho = _state(state, "witness_violation", parties=2)
    if is_ppt(rho, 1):
        return None, 0.0
    eta = np.linalg.eigh(partial_transpose(rho, 1))[1][:, 0]
    witness = partial_transpose(np.outer(eta, eta.conj()), 1, rho.dims)
    witness = (witness + witness.conj().T) / 2.0
    violation = max(0.0, -float(np.real(np.vdot(rho.matrix, witness))))
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
    target : DensityOperator or PureState, optional
        Expected A:B reduction.  A target whose dims differ from the
        reduction's, or whose matrix differs by more than 1e-8, is refused
        as ``extension-mismatch``.

    Returns
    -------
    MeasureResult
        ``status == "best_effort"``.
    """
    rho = _state(rho_abe, "squashed_eval", parties=3)
    if target is not None:
        reduced = partial_trace(rho, (0, 1))
        target_rho = _state(target, "squashed_eval target", dims=reduced.dims,
                            invariant="extension-mismatch")
        residual = float(np.linalg.norm(reduced.matrix - target_rho.matrix))
        if residual > 1e-8:
            raise ValidationError("extension-mismatch", residual=residual,
                                  limit=1e-8)
    value = 0.5 * conditional_mutual_information(rho)
    payload = {"note": "upper bound from the supplied extension only"}
    return MeasureResult(max(0.0, value), "best_effort", gap=0.0,
                         iterations=0, witness_payload=payload)
