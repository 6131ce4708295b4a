"""Dense primal-dual interior-point solver for small semidefinite programs.

Solves problems in the standard equality form

    minimize    sum_j <C_j, X_j>
    subject to  sum_j <A_ij, X_j> = b_i   for each constraint i,
                X_j >= 0 (positive semidefinite),

over complex Hermitian blocks, where ``<A, B> = Re tr(A B)``.  The solver
follows the HKM search direction with a Mehrotra predictor-corrector step
and is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ValidationError

MAX_TOTAL_DIM = 400
_HERM_TOL = 1e-10
_DIVERGE = 1e9
_CERT_TOL = 1e-6


def _hermitize(matrix, size: int, what: str) -> np.ndarray:
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (size, size):
        raise ValidationError("shape", detail=f"{what} must be {size}x{size}, got {mat.shape}")
    resid = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
    if resid > _HERM_TOL:
        raise ValidationError("hermiticity", resid, _HERM_TOL, detail=what)
    return (mat + mat.conj().T) / 2.0


class SdpProblem:
    """Builder for a block-structured semidefinite program.

    Parameters
    ----------
    block_dims : sequence of int
        Side lengths of the PSD blocks; the total must not exceed 400.
    """

    def __init__(self, block_dims):
        self.block_dims = tuple(int(n) for n in block_dims)
        if not self.block_dims or any(n < 1 for n in self.block_dims):
            raise ValidationError("block-dims", detail="block dimensions must be positive")
        if sum(self.block_dims) > MAX_TOTAL_DIM:
            raise ValidationError(
                "block-dims", float(sum(self.block_dims)), float(MAX_TOTAL_DIM),
                detail="total dimension exceeds the supported limit")
        self._objective = [np.zeros((n, n), dtype=complex) for n in self.block_dims]
        self._rows = []
        self._rhs = []

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    def set_objective(self, block: int, matrix) -> None:
        """Set the Hermitian objective coefficient of one block."""
        n = self.block_dims[block]
        self._objective[block] = _hermitize(matrix, n, f"objective block {block}")

    def add_equality(self, terms: dict, rhs: float) -> None:
        """Add a constraint ``sum_j <terms[j], X_j> = rhs``.

        Parameters
        ----------
        terms : dict
            Maps block index -> Hermitian coefficient matrix.
        rhs : float
        """
        row = {}
        for block, matrix in terms.items():
            n = self.block_dims[int(block)]
            row[int(block)] = _hermitize(matrix, n, f"constraint block {block}")
        if not row:
            raise ValidationError("constraint", detail="a constraint needs at least one term")
        self._rows.append(row)
        self._rhs.append(float(rhs))


@dataclass(frozen=True)
class SdpSolution:
    """Solver outcome.

    Attributes
    ----------
    status : str
        ``"optimal"``, ``"infeasible"``, ``"unbounded"``, or
        ``"max-iterations"``.
    value, dual_value : float
        Primal and dual objectives (NaN unless meaningful).
    gap : float
        Certified duality gap at termination.
    iterations : int
    blocks : tuple of ndarray
        Primal solution blocks.
    y : ndarray
        Dual multipliers of the equality constraints.
    dual_blocks : tuple of ndarray
        Dual slack blocks.
    """

    status: str
    value: float
    dual_value: float
    gap: float
    iterations: int
    blocks: tuple
    y: np.ndarray
    dual_blocks: tuple


def _stack_constraints(problem: SdpProblem):
    dims = problem.block_dims
    m = problem.num_constraints
    stacked = [np.zeros((m, n, n), dtype=complex) for n in dims]
    for i, row in enumerate(problem._rows):
        for j, mat in row.items():
            stacked[j][i] = mat
    return stacked, np.asarray(problem._rhs, dtype=float)


def _linear_consistency(stacked, b) -> bool:
    """True when the equality system has some Hermitian solution at all."""
    columns = [a.reshape(a.shape[0], -1) for a in stacked]
    design = np.hstack([np.concatenate([c.real, c.imag], axis=1) for c in columns])
    if design.size == 0:
        return bool(np.allclose(b, 0.0, atol=1e-9))
    _, residual, *_ = np.linalg.lstsq(design, b, rcond=None)
    if residual.size:
        return float(residual[0]) <= (1e-8 * (1.0 + float(np.linalg.norm(b)))) ** 2
    sol = np.linalg.lstsq(design, b, rcond=None)[0]
    return float(np.linalg.norm(design @ sol - b)) <= 1e-8 * (1.0 + float(np.linalg.norm(b)))


def _chol(mat: np.ndarray) -> np.ndarray:
    jitter = 0.0
    eye = np.eye(mat.shape[0])
    for _ in range(6):
        try:
            return scipy.linalg.cholesky(mat + jitter * eye, lower=True,
                                         check_finite=False)
        except np.linalg.LinAlgError:
            jitter = max(1e-14, 10.0 * jitter) * max(1.0, float(np.trace(mat).real))
    raise np.linalg.LinAlgError("block lost positive definiteness")


def _max_step(chol_l: np.ndarray, direction: np.ndarray) -> float:
    """Largest a with M + a*D >= 0, given the Cholesky factor of M."""
    half = scipy.linalg.solve_triangular(chol_l, direction, lower=True,
                                         check_finite=False)
    w = scipy.linalg.solve_triangular(chol_l, half.conj().T, lower=True,
                                      check_finite=False).conj().T
    w = (w + w.conj().T) / 2.0
    lo = float(np.linalg.eigvalsh(w)[0])
    if lo >= -1e-14:
        return 10.0
    return -1.0 / lo


def _trace_inner(aflat: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return np.real(aflat @ mat.T.reshape(-1))


def sdp_solve(problem: SdpProblem, max_iterations: int = 100,
              gap_tolerance: float = 1e-9,
              feasibility_tolerance: float = 5e-9) -> SdpSolution:
    """Solve a semidefinite program to high accuracy.

    Parameters
    ----------
    problem : SdpProblem
    max_iterations : int
        Iteration cap (default 100).
    gap_tolerance : float
        Relative duality-gap target (default 1e-9).
    feasibility_tolerance : float
        Relative primal/dual residual target (default 5e-9).

    Returns
    -------
    SdpSolution
        ``status == "optimal"`` carries a certified duality gap no larger
        than 1e-7; ``"infeasible"``, ``"unbounded"``, and
        ``"max-iterations"`` flag the respective failure modes.
    """
    dims = problem.block_dims
    nblocks = len(dims)
    stacked, b = _stack_constraints(problem)
    cmats = [c.copy() for c in problem._objective]
    m = b.size
    if m == 0:
        raise ValidationError("constraint", detail="at least one constraint is required")
    aflat = [a.reshape(m, -1) for a in stacked]

    def fail(status, iterations):
        return SdpSolution(status, float("nan"), float("nan"), float("inf"),
                           iterations, tuple(x.copy() for x in xs), y.copy(),
                           tuple(s.copy() for s in ss))

    norm_b = float(np.linalg.norm(b))
    norm_c = max(float(np.linalg.norm(c)) for c in cmats)
    xs = [np.eye(n, dtype=complex) * max(1.0, norm_b) for n in dims]
    ss = [np.eye(n, dtype=complex) * max(1.0, norm_c) for n in dims]
    y = np.zeros(m)
    total_n = sum(dims)

    if not _linear_consistency(stacked, b):
        return fail("infeasible", 0)

    # best iterate seen so far, by worst-of-three merit; lets the solver
    # return a certified answer even when the last steps stall in noise
    best = None
    stall = 0

    def finalize(iterations):
        if best is not None and best["merit"] <= 1e-7:
            return SdpSolution("optimal", best["pobj"], best["dobj"],
                               best["gap"], iterations, best["xs"], best["y"],
                               best["ss"])
        pobj = sum(float(np.real(np.vdot(x, c))) for c, x in zip(cmats, xs))
        dobj = float(b @ y)
        gap = max(abs(pobj - dobj),
                  sum(float(np.real(np.vdot(x, s))) for x, s in zip(xs, ss)))
        return SdpSolution("max-iterations", pobj, dobj, gap, iterations,
                           tuple(x.copy() for x in xs), y.copy(),
                           tuple(s.copy() for s in ss))

    tau = 0.98
    for it in range(1, max_iterations + 1):
        pobj = sum(float(np.real(np.vdot(x, c))) for c, x in zip(cmats, xs))
        dobj = float(b @ y)
        adj_y = [np.einsum("i,ikl->kl", y, a) for a in stacked]
        rp = b - np.sum([_trace_inner(af, x) for af, x in zip(aflat, xs)], axis=0)
        rds = [c - ay - s for c, ay, s in zip(cmats, adj_y, ss)]
        gap_abs = sum(float(np.real(np.vdot(x, s))) for x, s in zip(xs, ss))
        err_p = float(np.linalg.norm(rp)) / (1.0 + norm_b)
        err_d = max(float(np.linalg.norm(rd)) for rd in rds) / (1.0 + norm_c)
        rel_gap = gap_abs / (1.0 + abs(pobj) + abs(dobj))

        merit = max(err_p, err_d, rel_gap)
        if best is None or merit < best["merit"]:
            best = {"merit": merit, "pobj": pobj, "dobj": dobj,
                    "gap": max(gap_abs, abs(pobj - dobj)),
                    "xs": tuple(x.copy() for x in xs), "y": y.copy(),
                    "ss": tuple(s.copy() for s in ss)}
            stall = 0
        else:
            stall += 1

        if err_p <= feasibility_tolerance and err_d <= feasibility_tolerance \
                and rel_gap <= gap_tolerance:
            gap = max(gap_abs, abs(pobj - dobj))
            return SdpSolution("optimal", pobj, dobj, gap, it - 1,
                               tuple(xs), y.copy(), tuple(ss))
        # ten iterations without merit progress means the iterates are
        # wandering at the numerical floor of this instance
        if stall >= 10:
            return finalize(it - 1)

        # a wildly diverging dual objective signals primal infeasibility,
        # a diverging primal objective signals unboundedness
        if dobj > _DIVERGE * (1.0 + norm_c) and err_d < _CERT_TOL:
            scale = float(np.linalg.norm(y))
            lam = max(float(np.linalg.eigvalsh(ay)[-1]) for ay in adj_y)
            if b @ (y / scale) > 1e-12 and lam / scale < _CERT_TOL:
                return fail("infeasible", it)
        if pobj < -_DIVERGE * (1.0 + norm_b) and err_p < _CERT_TOL:
            return fail("unbounded", it)

        mu = gap_abs / total_n
        try:
            chol_x = [_chol(x) for x in xs]
            chol_s = [_chol(s) for s in ss]
        except np.linalg.LinAlgError:
            return finalize(it - 1)
        sinvs = [scipy.linalg.cho_solve((ls, True), np.eye(n), check_finite=False)
                 for ls, n in zip(chol_s, dims)]
        sinvs = [(si + si.conj().T) / 2.0 for si in sinvs]

        # Schur complement M_ik = Re tr(A_i X A_k S^-1), built blockwise
        schur = np.zeros((m, m))
        g1 = np.zeros(m)
        g2 = np.zeros(m)
        t3 = np.zeros(m)
        xasinv = []
        for j in range(nblocks):
            t = xs[j] @ stacked[j] @ sinvs[j]
            xasinv.append(t)
            schur += np.real(aflat[j] @ t.transpose(0, 2, 1).reshape(m, -1).T)
            g1 += _trace_inner(aflat[j], sinvs[j])
            g2 += _trace_inner(aflat[j], xs[j])
            t3 += _trace_inner(aflat[j], xs[j] @ rds[j] @ sinvs[j])
        schur = (schur + schur.T) / 2.0

        def solve_schur(rhs):
            try:
                factor = scipy.linalg.cho_factor(
                    schur + 1e-13 * np.eye(m) * max(1.0, schur.diagonal().max()),
                    check_finite=False)
                return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            except np.linalg.LinAlgError:
                return np.linalg.lstsq(schur, rhs, rcond=None)[0]

        def directions(sigma_mu, corr):
            rhs = rp - sigma_mu * g1 + g2 + t3
            if corr is not None:
                rhs = rhs + corr
            dy = solve_schur(rhs)
            dss = [rd - np.einsum("i,ikl->kl", dy, a) for rd, a in zip(rds, stacked)]
            dxs = []
            for j in range(nblocks):
                dx = sigma_mu * sinvs[j] - xs[j] - xs[j] @ dss[j] @ sinvs[j]
                if corr is not None:
                    dx = dx - corr_mats[j]
                dxs.append((dx + dx.conj().T) / 2.0)
            return dy, dxs, dss

        dy_a, dxs_a, dss_a = directions(0.0, None)
        ap = min(1.0, tau * min(_max_step(chol_x[j], dxs_a[j]) for j in range(nblocks)))
        ad = min(1.0, tau * min(_max_step(chol_s[j], dss_a[j]) for j in range(nblocks)))
        gap_aff = sum(
            float(np.real(np.vdot(xs[j] + ap * dxs_a[j], ss[j] + ad * dss_a[j])))
            for j in range(nblocks))
        sigma = min(1.0, max(0.0, (gap_aff / gap_abs)) ** 3) if gap_abs > 0 else 0.1

        corr_mats = [dxs_a[j] @ dss_a[j] @ sinvs[j] for j in range(nblocks)]
        corr = np.zeros(m)
        for j in range(nblocks):
            corr += _trace_inner(aflat[j], corr_mats[j])
        dy, dxs, dss = directions(sigma * mu, corr)

        ap = min(1.0, tau * min(_max_step(chol_x[j], dxs[j]) for j in range(nblocks)))
        ad = min(1.0, tau * min(_max_step(chol_s[j], dss[j]) for j in range(nblocks)))
        for j in range(nblocks):
            xs[j] = xs[j] + ap * dxs[j]
            ss[j] = ss[j] + ad * dss[j]
        y = y + ad * dy

    return finalize(max_iterations)
