"""Primal-dual interior-point solver for small semidefinite programs.

Solves problems in the standard equality form

    minimize    sum_j <C_j, X_j>
    subject to  sum_j <A_ij, X_j> = b_i   for each constraint i,
                X_j >= 0 (positive semidefinite),

over complex Hermitian blocks, where ``<A, B> = Re tr(A B)``.  The solver
follows the HKM search direction with a Mehrotra predictor-corrector step
and is fully deterministic.

Each block's constraints are held as one sparse ``(m, n^2)`` matrix, built
once per solve.  The Schur matrix ``M_ik = Re tr(A_i X A_k S^-1)`` is
assembled from it as ``Re(A (S^-T kron X) A^H)``, in O(nnz n^2) rather than
the O(m^2 n^2) of a dense build (the structure-exploiting build of
Fujisawa, Kojima & Nakata, Math. Prog. 79 (1997)); it is factored once per
iteration for both the predictor and the corrector.  Before iterating, a
Cholesky factor of the Gram matrix ``Re(A A^H)`` tests the rows for full
rank, which makes the equalities consistent for any right-hand side; only
rank-deficient rows go on to a least-squares consistency test.  A returned
``"optimal"`` is rechecked against the problem data by ``_verify``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ValidationError
from .states import _hermitian

MAX_TOTAL_DIM = 400
_GAP_TOL = 1e-9
_FEAS_TOL = 5e-9
_DIVERGE = 1e9
_CERT_TOL = 1e-6
_BEST_TOL = 1e-7
_RANK_RCOND = 1e-12


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
        self._objective[block] = _hermitian(matrix, f"objective block {block}", n)

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
            row[int(block)] = _hermitian(matrix, f"constraint block {block}", n)
        if not row:
            raise ValidationError("constraint", detail="a constraint needs at least one term")
        self._rows.append(row)
        self._rhs.append(float(rhs))


@dataclasses.dataclass(frozen=True)
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


def _block_rows(problem: SdpProblem, block: int):
    """Indices of the constraints with a term on ``block``, and those terms."""
    n = problem.block_dims[block]
    index = [i for i, row in enumerate(problem._rows) if block in row]
    stack = np.array([problem._rows[i][block] for i in index], dtype=complex)
    return np.array(index, dtype=int), stack.reshape(len(index), n, n)


class _BlockOperator:
    """The constraints of one block as a sparse ``(m, n*n)`` matrix ``A``.

    Row i holds the row-major flattened coefficient of constraint i on the
    block, so that ``<A_i, Z> = Re (A vec(Z^T))_i``.  Built once per solve,
    with its conjugate and transpose, which the iterations reuse.
    """

    def __init__(self, problem: SdpProblem, block: int):
        n = problem.block_dims[block]
        m = problem.num_constraints
        index, stack = _block_rows(problem, block)
        rows, cols = np.nonzero(stack.reshape(index.size, n * n))
        vals = stack.reshape(index.size, n * n)[rows, cols]
        rows = index[rows]
        self.n = n
        self.mat = scipy.sparse.csr_matrix(
            (vals, cols, np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])),
            shape=(m, n * n))
        self._conj = self.mat.conj()
        self._adj = self.mat.T.tocsr()

    def apply(self, z: np.ndarray) -> np.ndarray:
        """The vector ``Re tr(A_i Z)`` over all rows."""
        return np.real(self.mat @ z.T.reshape(-1))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """The matrix ``sum_i y_i A_i``."""
        return (self._adj @ y).reshape(self.n, self.n)

    def schur(self, x: np.ndarray, sinv: np.ndarray) -> np.ndarray:
        """The Schur matrix ``M_ik = Re tr(A_i X A_k S^-1)`` of this block.

        For Hermitian ``A_k`` it equals ``Re(A (S^-T kron X) A^H)``; the two
        sparse products cost O(nnz n^2) instead of the O(m^2 n^2) of a
        dense build.
        """
        n = self.n
        kron = (sinv.T[:, None, :, None] * x[None, :, None, :]).reshape(n * n, n * n)
        half = self.mat @ kron
        return np.real(self._conj @ half.T).T

    def gram(self) -> np.ndarray:
        """The real Gram matrix ``Re(A A^H)`` of the rows."""
        return np.real((self.mat @ self._adj.conj()).toarray())


def _full_row_rank(ops) -> bool:
    """True when the constraint rows are linearly independent.

    Full row rank makes ``A(X) = b`` consistent for every right-hand side.
    The test is a Cholesky factor of the Gram matrix ``Re(A A^H)`` with a
    reciprocal condition estimate well above round-off.
    """
    gram = sum(op.gram() for op in ops)
    try:
        factor = scipy.linalg.cholesky(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    rcond, info = scipy.linalg.lapack.dpocon(
        factor, float(np.abs(gram).sum(axis=0).max()), uplo="L")
    return info == 0 and rcond > _RANK_RCOND


def _linear_consistency(ops, b) -> bool:
    """True when the equality system has some Hermitian solution at all."""
    columns = [op.mat.toarray() for op in ops]
    design = np.hstack([np.concatenate([c.real, c.imag], axis=1) for c in columns])
    if design.size == 0:
        return bool(np.allclose(b, 0.0, atol=1e-9))
    _, residual, *_ = np.linalg.lstsq(design, b, rcond=None)
    if residual.size:
        return float(residual[0]) <= (1e-8 * (1.0 + float(np.linalg.norm(b)))) ** 2
    sol = np.linalg.lstsq(design, b, rcond=None)[0]
    return float(np.linalg.norm(design @ sol - b)) <= 1e-8 * (1.0 + float(np.linalg.norm(b)))


def _verify(problem: SdpProblem, sol: SdpSolution,
            feasibility_tolerance: float = _FEAS_TOL,
            gap_tolerance: float = _GAP_TOL) -> bool:
    """Recheck a solution against the problem data alone.

    Recomputes from the stored constraint rows, not from the solver's
    operators, the relative primal and dual residuals, the smallest
    eigenvalue of every primal and dual block, the relative duality gap and
    the two reported objectives, and applies the solver's acceptance test.
    """
    b = np.asarray(problem._rhs, dtype=float)
    xs, ss, y = sol.blocks, sol.dual_blocks, sol.y
    primal = np.zeros(b.size)
    adjoints = []
    for j, n in enumerate(problem.block_dims):
        index, stack = _block_rows(problem, j)
        primal[index] += np.real(stack.reshape(index.size, -1) @ xs[j].T.reshape(-1))
        adjoints.append(np.tensordot(y[index], stack, axes=1))
    cmats = problem._objective
    norm_b = float(np.linalg.norm(b))
    norm_c = max(float(np.linalg.norm(c)) for c in cmats)
    err_p = float(np.linalg.norm(b - primal)) / (1.0 + norm_b)
    err_d = max(float(np.linalg.norm(c - ay - s))
                for c, ay, s in zip(cmats, adjoints, ss)) / (1.0 + norm_c)
    pobj = sum(float(np.real(np.vdot(c, x))) for c, x in zip(cmats, xs))
    dobj = float(b @ y)
    scale = 1.0 + abs(pobj) + abs(dobj)
    rel_gap = sum(float(np.real(np.vdot(x, s))) for x, s in zip(xs, ss)) / scale
    cone = all(
        float(w[0]) >= -feasibility_tolerance * max(1.0, float(w[-1]))
        for w in (np.linalg.eigvalsh(mat) for mat in (*xs, *ss)))
    return (err_p <= feasibility_tolerance and err_d <= feasibility_tolerance
            and rel_gap <= gap_tolerance and cone
            and abs(sol.value - pobj) <= gap_tolerance * scale
            and abs(sol.dual_value - dobj) <= gap_tolerance * scale)


def dual_bound(problem: SdpProblem, y: np.ndarray) -> float:
    """Lower bound ``b.y + sum_j min(0, lambda_min(C_j - sum_i y_i A_ij))``.

    Rigorous for any dual vector ``y``, however early the solver stopped,
    when every feasible block has trace at most 1; the slacks are
    recomputed from the stored constraint rows.
    """
    bound = float(np.dot(problem._rhs, y))
    for j, objective in enumerate(problem._objective):
        index, stack = _block_rows(problem, j)
        slack = objective - np.tensordot(y[index], stack, axes=1)
        bound += min(0.0, float(np.linalg.eigvalsh((slack + slack.conj().T) / 2.0)[0]))
    return bound


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


def _inverse_factor(mat: np.ndarray) -> np.ndarray:
    """``L^-1`` for the Cholesky factor ``L`` of a positive definite matrix."""
    chol_l = _chol(mat)
    return scipy.linalg.solve_triangular(chol_l, np.eye(mat.shape[0]), lower=True,
                                         check_finite=False)


def _max_step(inv_l: np.ndarray, direction: np.ndarray) -> float:
    """Largest a with M + a*D >= 0, given ``L^-1`` for the Cholesky factor of M."""
    w = inv_l @ direction @ inv_l.conj().T
    w = (w + w.conj().T) / 2.0
    lo = float(np.linalg.eigvalsh(w)[0])
    if lo >= -1e-14:
        return 10.0
    return -1.0 / lo


def sdp_solve(problem: SdpProblem, max_iterations: int = 100) -> SdpSolution:
    """Solve a semidefinite program to high accuracy.

    The targets are a relative duality gap of 1e-9 and relative primal and
    dual residuals of 5e-9.

    Parameters
    ----------
    problem : SdpProblem
    max_iterations : int
        Iteration cap (default 100).

    Returns
    -------
    SdpSolution
        ``status == "optimal"`` carries a certified duality gap no larger
        than 1e-7 and has passed the recheck of ``_verify``; a solution that
        fails it is returned as ``"max-iterations"``.  ``"infeasible"``,
        ``"unbounded"``, and ``"max-iterations"`` flag the respective
        failure modes.
    """
    dims = problem.block_dims
    nblocks = len(dims)
    b = np.asarray(problem._rhs, dtype=float)
    cmats = [c.copy() for c in problem._objective]
    m = b.size
    if m == 0:
        raise ValidationError("constraint", detail="at least one constraint is required")
    ops = [_BlockOperator(problem, j) for j in range(nblocks)]

    def fail(status, iterations):
        return SdpSolution(status, float("nan"), float("nan"), float("inf"),
                           iterations, tuple(x.copy() for x in xs), y.copy(),
                           tuple(s.copy() for s in ss))

    def checked(sol, feas_tol, gap_tol):
        # "optimal" only stands when the independent recheck agrees
        if _verify(problem, sol, feas_tol, gap_tol):
            return sol
        return dataclasses.replace(sol, status="max-iterations")

    norm_b = float(np.linalg.norm(b))
    norm_c = max(float(np.linalg.norm(c)) for c in cmats)
    xs = [np.eye(n, dtype=complex) * max(1.0, norm_b) for n in dims]
    ss = [np.eye(n, dtype=complex) * max(1.0, norm_c) for n in dims]
    y = np.zeros(m)
    total_n = sum(dims)

    # independent rows are consistent for any rhs; only a rank-deficient
    # system needs the least-squares test
    if not _full_row_rank(ops) and not _linear_consistency(ops, b):
        return fail("infeasible", 0)

    # best iterate seen so far, by worst-of-three merit; lets the solver
    # return a certified answer even when the last steps stall in noise
    best = None
    stall = 0

    def finalize(iterations):
        if best is not None and best["merit"] <= _BEST_TOL:
            return checked(SdpSolution("optimal", best["pobj"], best["dobj"],
                                       best["gap"], iterations, best["xs"],
                                       best["y"], best["ss"]),
                           _BEST_TOL, _BEST_TOL)
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
        adj_y = [op.adjoint(y) for op in ops]
        rp = b - sum(op.apply(x) for op, x in zip(ops, xs))
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

        if err_p <= _FEAS_TOL and err_d <= _FEAS_TOL and rel_gap <= _GAP_TOL:
            gap = max(gap_abs, abs(pobj - dobj))
            return checked(SdpSolution("optimal", pobj, dobj, gap, it - 1,
                                       tuple(xs), y.copy(), tuple(ss)),
                           _FEAS_TOL, _GAP_TOL)
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
            inv_x = [_inverse_factor(x) for x in xs]
            inv_s = [_inverse_factor(s) for s in ss]
        except np.linalg.LinAlgError:
            return finalize(it - 1)
        sinvs = [l.conj().T @ l for l in inv_s]
        sinvs = [(si + si.conj().T) / 2.0 for si in sinvs]

        schur = sum(op.schur(x, si) for op, x, si in zip(ops, xs, sinvs))
        schur = (schur + schur.T) / 2.0
        # one factorization serves the predictor and the corrector
        try:
            factor = scipy.linalg.cho_factor(
                schur + 1e-13 * np.eye(m) * max(1.0, schur.diagonal().max()),
                check_finite=False)
        except np.linalg.LinAlgError:
            factor = None
        base = [x + x @ rd @ si for x, rd, si in zip(xs, rds, sinvs)]

        def directions(sigma_mu, corr_mats):
            # A(dX) = rp for dX = sigma_mu S^-1 - X - X dS S^-1 - corr and
            # dS = rd - A^T(dy) is M dy = rp + A(X + X rd S^-1 - sigma_mu S^-1 + corr)
            rhs = rp + sum(op.apply(bm - sigma_mu * si + cm)
                           for op, bm, si, cm in zip(ops, base, sinvs, corr_mats))
            if factor is None:
                dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
            else:
                dy = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            dss = [rd - op.adjoint(dy) for rd, op in zip(rds, ops)]
            dxs = [sigma_mu * si - x - x @ ds @ si - cm
                   for x, ds, si, cm in zip(xs, dss, sinvs, corr_mats)]
            return dy, [(dx + dx.conj().T) / 2.0 for dx in dxs], dss

        def step_lengths(dxs, dss):
            ap = min(1.0, tau * min(_max_step(l, dx) for l, dx in zip(inv_x, dxs)))
            ad = min(1.0, tau * min(_max_step(l, ds) for l, ds in zip(inv_s, dss)))
            return ap, ad

        dy_a, dxs_a, dss_a = directions(0.0, [0.0] * nblocks)
        ap, ad = step_lengths(dxs_a, dss_a)
        gap_aff = sum(
            float(np.real(np.vdot(xs[j] + ap * dxs_a[j], ss[j] + ad * dss_a[j])))
            for j in range(nblocks))
        sigma = min(1.0, max(0.0, (gap_aff / gap_abs)) ** 3) if gap_abs > 0 else 0.1

        corr_mats = [dxs_a[j] @ dss_a[j] @ sinvs[j] for j in range(nblocks)]
        dy, dxs, dss = directions(sigma * mu, corr_mats)
        ap, ad = step_lengths(dxs, dss)
        for j in range(nblocks):
            xs[j] = xs[j] + ap * dxs[j]
            ss[j] = ss[j] + ad * dss[j]
        y = y + ad * dy

    return finalize(max_iterations)
