"""Primal-dual interior-point solver for small semidefinite programs.

Solves problems in the standard equality form

    minimize    sum_j <C_j, X_j>
    subject to  sum_j <A_ij, X_j> = b_i   for each constraint i,
                X_j >= 0 (positive semidefinite),

over complex Hermitian blocks, where ``<A, B> = Re tr(A B)``.  The solver
follows the HKM search direction with a Mehrotra predictor-corrector step
and is fully deterministic.

Constraints come one at a time (``add_equality``) or as the n^2 rows of an
operator equation between blocks (``add_operator_equation``), each term a
block under the partial transpose of any set of its subsystems, the one
index rule of ``states.partial_transpose``.  A constraint is stored only as
the sparse entries of its row-major flattened coefficients, which every
consumer, the solver, ``_verify`` and ``dual_bound`` alike, reads through
``_Side``: ``A`` and its adjoint are one sum each over the entries of a
block, or of a side group, the blocks of one side n held as one ``(k, n,
n)`` stack.  An iteration makes one numpy call per side group and step:
one ``eigh`` of all its X and S blocks (``_eigen_blocks``) for the
positivity test, ``S^-1`` and the whitening of ``_max_step``, whose one
``eigvalsh`` gives the primal and the dual step.  The Schur matrix ``M_ik
= Re tr(A_i X A_k S^-1)`` is gathered over the entries (Fujisawa, Kojima &
Nakata, Math. Prog. 79 (1997)): each row's entries on a block are split
into pair rows of at most two, so every ``S^-1 A_i X`` is one batched
product of rank-2 factors, in a workspace allocated once per solve.  Every
slot of a pair row holds a real or an imaginary value, so each entry of M
is gathered as one real number of that product times a real weight, in
real buffers; the matrix is symmetrized in one contiguous pass and
factored in place once per iteration.  The first Schur matrix,
at multiples of I, is a multiple of the Gram matrix ``Re(A A^H)``, whose
Cholesky factor tests the rows for full rank.  A returned ``"optimal"`` is
rechecked against the problem data by ``_verify`` (see ``sdp_solve``).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .states import (_check_dims, _count, _hermitian, _is_finite_real, _is_integer,
                     _shown, partial_transpose)

# the largest block side: a solve's Schur workspace holds about 4 n^4 reals
# for the pair rows and m^2 reals for the Schur matrix, 98 MB for a
# PPT-constrained minimum at side 36 and over 50 GB at side 200
MAX_BLOCK_DIM = 36
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
        Side lengths of the PSD blocks, positive integers; each must not
        exceed 36, and their total must not exceed 400.

    ``terms`` must be a non-empty mapping, a block index an integer in
    ``range(len(block_dims))``, and a right-hand side or a sign a finite real
    number; bad input is refused before any row is stored.
    """

    def __init__(self, block_dims):
        try:
            dims = tuple(block_dims)
        except TypeError:
            dims = ()
        if not dims or not all(_is_integer(n) and n >= 1 for n in dims):
            raise ValidationError(
                "block-dims",
                detail=f"block dimensions must be positive integers, got {_shown(block_dims)}")
        self.block_dims = tuple(int(n) for n in dims)
        if max(self.block_dims) > MAX_BLOCK_DIM:
            raise ValidationError("block-dims", detail=(
                f"block side {_shown(max(self.block_dims))} exceeds the limit {MAX_BLOCK_DIM}"))
        if sum(self.block_dims) > MAX_TOTAL_DIM:
            raise ValidationError("block-dims", detail=(
                f"total dimension {_shown(sum(self.block_dims))} exceeds the limit "
                f"{MAX_TOTAL_DIM}"))
        self._objective = [np.zeros((n, n), dtype=complex) for n in self.block_dims]
        # per block, (row, column, value) chunks of the row-major flattened
        # constraint coefficients, in the order the rows were added
        self._entries = [[(np.zeros(0, int), np.zeros(0, int), np.zeros(0, complex))]
                         for _ in self.block_dims]
        self._rhs = []

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    def _block(self, block) -> int:
        """A block index given from outside, as an int in range."""
        return _count(block, "block", "block-index", high=len(self.block_dims) - 1)

    def set_objective(self, block: int, matrix) -> None:
        """Set the Hermitian objective coefficient of one block."""
        block = self._block(block)
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
        if not isinstance(terms, Mapping) or not terms:
            raise ValidationError("constraint", detail="terms must be a non-empty mapping")
        rhs = _finite_real(rhs, "right-hand side")
        row = self.num_constraints
        entries = {}
        for block, matrix in terms.items():
            block = self._block(block)
            flat = _hermitian(matrix, f"constraint block {block}", self.block_dims[block]).ravel()
            cols = np.flatnonzero(flat)
            entries[block] = (np.full(cols.size, row), cols, flat[cols])
        for block, entry in entries.items():
            self._entries[block].append(entry)
        self._rhs.append(rhs)

    def add_operator_equation(self, terms: dict, rhs, dims) -> None:
        """Add the n^2 rows of the operator equation ``sum_j s_j T_j(X_j) = R``.

        ``terms`` maps a block index j to ``(s_j, parties)``: ``T_j`` is the
        partial transpose of the subsystems in the sequence ``parties``, with
        ``()`` for the identity.  ``dims`` splits every named block, of side
        ``n = prod(dims)``, into any number of subsystems.  ``rhs`` is the
        Hermitian operator R, or None for zero.

        Row a pairs both sides with element a of an orthonormal Hermitian
        basis (first ``E_kk``, then for each ``k < l`` the pair
        ``(E_kl + E_lk) / sqrt 2`` and ``(-i E_kl + i E_lk) / sqrt 2``).  A
        partial transpose permutes the row-major flattened entries, so it
        permutes the columns; being its own inverse, it maps column c to
        entry c of ``partial_transpose`` of the index grid.  Each distinct
        party set builds its rows once.
        """
        if not isinstance(terms, Mapping) or not terms:
            raise ValidationError("constraint", detail="terms must be a non-empty mapping")
        terms = {self._block(block): _operator_term(block, term) for block, term in terms.items()}
        for block in terms:
            n = self.block_dims[block]
            dims = _check_dims(dims, n)
        target = np.zeros((n, n)) if rhs is None else _hermitian(rhs, "operator equation", n)
        k, l = np.triu_indices(n, 1)
        upper, lower = k * n + l, l * n + k
        scale = 1.0 / math.sqrt(2.0)
        rows = np.concatenate([np.arange(n), n + np.arange(2 * k.size).repeat(2)])
        cols = np.concatenate([np.arange(n) * (n + 1),
                               np.stack([upper, lower, upper, lower], axis=1).ravel()])
        vals = np.concatenate([np.ones(n), np.tile(
            [scale, scale, -1.0j * scale, 1.0j * scale], k.size)])
        grid = np.arange(n * n).reshape(n, n)
        built = {(): (cols, vals)}
        for parties in {parties for _, parties in terms.values()} - {()}:
            moved = partial_transpose(grid, parties, dims).real.astype(int).ravel()[cols]
            order = np.lexsort((moved, rows))  # each row sorted by column
            built[parties] = (moved[order], vals[order])
        first = self.num_constraints
        for block, (sign, parties) in terms.items():
            block_cols, block_vals = built[parties]
            self._entries[block].append((rows + first, block_cols, sign * block_vals))
        self._rhs.extend(np.bincount(rows, np.real(vals.conj() * target.ravel()[cols]),
                                     minlength=n * n).tolist())

    def _block_entries(self, block: int):
        """The stored ``(row, column, value)`` entries of one block, in row
        order, with the bins of ``_adjoint``: the real and imaginary parts of
        an entry in column c go to bins 2c and 2c + 1.  Joined once in place."""
        chunks = self._entries[block]
        if len(chunks) > 1 or len(chunks[0]) == 3:
            rows, cols, vals = (np.concatenate(part) for part in zip(*(c[:3] for c in chunks)))
            bins = (2 * cols).repeat(2)
            bins[1::2] += 1
            chunks[:] = [(rows, cols, vals, bins)]
        return chunks[0]


def _operator_term(block, term) -> tuple[float, tuple]:
    """A term ``(sign, parties)`` given from outside, parties a sequence of integers."""
    if not (isinstance(term, Sequence) and len(term) == 2 and isinstance(term[1], Sequence)
            and all(_is_integer(p) for p in term[1])):
        raise ValidationError(
            "constraint",
            detail=f"term of block {_shown(block)} is not (sign, parties): {_shown(term)}")
    return _finite_real(term[0], f"sign of block {block}"), tuple(term[1])


def _finite_real(value, name: str) -> float:
    """A finite real number given from outside, as a float; only a float can
    be NaN or infinite."""
    if not _is_finite_real(value):
        if isinstance(value, (float, np.floating)):
            raise ValidationError("non-finite", detail=f"{name} is {value!r}")
        raise ValidationError("constraint", detail=f"{name} {_shown(value)} is not a real number")
    return float(value)


@dataclasses.dataclass(frozen=True, eq=False)
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
        For ``"optimal"``, the certified duality gap at termination.  For
        ``"max-iterations"``, ``max(|pobj - dobj|, sum <X_j, S_j>)`` at an
        iterate that need not be feasible, so it is no bound on the error;
        infinite for the other statuses.
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


class _Side:
    """One block (an int ``blocks``) as a matrix, or a side group, blocks of
    one side n as one ``(k, n, n)`` stack: ``A`` and its adjoint are one sum
    each over the stored entries, block k's column c at ``k n^2 + c``; the
    adjoint sums the real and imaginary parts of the weighted entries into
    the interleaved bins of ``_block_entries``, read back as complex."""

    def __init__(self, problem: SdpProblem, blocks):
        self.blocks = tuple(np.atleast_1d(blocks).tolist())
        self.n, self.m = problem.block_dims[self.blocks[0]], problem.num_constraints
        self.shape = (len(self.blocks),) * np.ndim(blocks) + (self.n, self.n)
        parts = [problem._block_entries(j) for j in self.blocks]
        self.entries = tuple(
            np.concatenate([part[i] + k * shift * self.n ** 2 for k, part in enumerate(parts)])
            for i, shift in enumerate((0, 1, 0, 2)))

    def apply(self, z: np.ndarray) -> np.ndarray:
        """The vector ``Re tr(A_i Z)`` over all rows, summed over a stack."""
        rows, cols, vals, _ = self.entries
        flat = np.swapaxes(z, -1, -2).reshape(-1)
        return np.bincount(rows, np.real(vals * flat[cols]), minlength=self.m)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """The matrix, or stack of matrices, ``sum_i y_i A_i``."""
        rows, _, vals, bins = self.entries
        parts = (vals * np.asarray(y, dtype=float)[rows]).view(float)
        return np.bincount(bins, parts, minlength=2 * math.prod(self.shape)).view(
            complex).reshape(self.shape)


class _BlockOperator(_Side):
    """The constraints of one block as pair rows for the Schur build, with
    ``A`` and its adjoint (``_Side`` of the block).

    Like ``apply`` and ``adjoint``, the pair rows are read from the
    problem's stored entries, the only form of the constraints.  They hold
    each row's entries on the block as aligned slots ``(column, value)``,
    two per pair row, slot-major: ``slot_cols[s, a]`` and ``slot_vals[s,
    a]``.  A row with k entries has ceil(k/2) pair rows and pads an odd last
    slot with value 0; a row that does not touch the block has none.  The
    first pair row of each touched row comes first, in row order (row
    ``rows[r]`` at index r), then the others, whose own rows ``rows[folds]``
    the build folds them back onto.

    Every slot value v is real or imaginary: the rows of an operator
    equation and the trace row have no other, and an entry with both parts
    fills two slots on its column.  So a slot is also real: ``Re(v h)`` for
    a complex h at column c is one real product, ``slot_weights = Re v``
    times the real part of h, at ``slot_bins = 2c`` of the real view, or
    ``-Im v`` times its imaginary part, at ``2c + 1``.
    """

    def __init__(self, problem: SdpProblem, block: int):
        super().__init__(problem, block)
        self.problem, self.block = problem, block
        rows, cols, vals, _ = self.entries
        # an entry with both parts fills two slots on its column, the real
        # part first, so that every slot value is real or imaginary
        both = (vals.real != 0.0) & (vals.imag != 0.0)
        index = np.arange(vals.size).repeat(1 + both)
        second = np.diff(index, prepend=-1) == 0
        rows, cols, vals = rows[index], cols[index], vals[index]
        vals = np.where(second, 1j * vals.imag, np.where(both[index], vals.real, vals))
        # entry `rank` of touched row `group` fills slot rank % 2 of the
        # row's pair row rank // 2: the first at index group, the others
        # after all first ones
        counts = np.bincount(rows, minlength=self.m)
        self.rows = np.flatnonzero(counts)
        counts = counts[self.rows]
        touched = self.rows.size
        group = np.repeat(np.arange(touched), counts)
        rank = np.arange(group.size) - (np.cumsum(counts) - counts)[group]
        extra = (counts - 1) // 2
        pair = np.where(rank < 2, group,
                        touched + (np.cumsum(extra) - extra)[group] + rank // 2 - 1)
        self.folds = np.repeat(np.arange(touched), extra)
        self.pairs = touched + self.folds.size
        self.slot_cols = np.zeros((2, self.pairs), dtype=int)
        self.slot_vals = np.zeros((2, self.pairs), dtype=complex)
        self.slot_cols[rank % 2, pair] = cols
        self.slot_vals[rank % 2, pair] = vals
        imag = self.slot_vals.imag != 0.0
        self.slot_bins = 2 * self.slot_cols + imag
        self.slot_weights = np.where(imag, -self.slot_vals.imag, self.slot_vals.real)
        lo = int(self.rows[0]) if touched else 0
        self.target = ((slice(lo, lo + touched),) * 2
                       if not touched or self.rows[-1] == lo + touched - 1
                       else np.ix_(self.rows, self.rows))

    def dense(self) -> np.ndarray:
        """The rows as a dense ``(m, n*n)`` matrix, one scatter of the entries."""
        rows, cols, vals, _ = self.entries
        mat = np.zeros((self.m, self.n * self.n), dtype=complex)
        mat[rows, cols] = vals
        return mat


class _SchurWorkspace:
    """The Schur matrix ``sum_j Re tr(A_ij X_j A_kj S_j^-1)`` of a fixed set
    of block operators, built in buffers allocated once.

    With the slots ``(p_s, q_s, v_s)`` of pair row a (row p, column q of the
    block), ``H_a = (S^-1 A_a X)^T = sum_s X[q_s, :]^T (v_s S^-T[p_s, :])``
    is, read as real numbers, the product of the ``(n, 4)`` matrix of the
    real and imaginary parts of the rows ``X[q_s, :]`` by the ``(4, 2n)``
    matrix of the rows ``v_s S^-T[p_s, :]`` and ``i v_s S^-T[p_s, :]``, read
    as real numbers: one batched real product over the pair rows, written
    as the real view of H.  Then ``M_ab = Re sum_t v_t H_a[c_t]`` over the
    slots ``(c_t, v_t)`` of pair row b is, by the real slots of
    ``_BlockOperator``, one gather of that real view at both slots' bins,
    scaled in place by their real weights.  Folding the extra pair rows on
    both axes gives the block's rows, added into the ``(m, m)`` accumulator.

    The rows of X and ``S^-T`` are gathered at once for each side group,
    whose ``_Side`` is in ``sides``; H and the gather are real buffers
    shared by every block.  For P pair rows on a side-n block they hold ``2
    P n^2 + 2 P^2`` reals: 55 MB of the 84 MB a PPT-constrained minimum at
    side 36 (P = 1314 with its trace row, m = 1297) allocates here.
    """

    def __init__(self, ops):
        self.ops = ops
        self.acc = np.empty((ops[0].m, ops[0].m))
        half = np.empty(max(2 * op.pairs * op.n ** 2 for op in ops))
        gathered = np.empty(max(2 * op.pairs ** 2 for op in ops))
        spill = np.empty(max(2 * op.rows.size * op.folds.size for op in ops))
        self.sides, self._stacks, self._views = [], [], [None] * len(ops)
        for n in dict.fromkeys(op.n for op in ops):
            members = [j for j, op in enumerate(ops) if op.n == n]
            self.sides.append(_Side(ops[0].problem, [ops[j].block for j in members]))
            # member k's entry (p, q) as column k n^2 + p n + q; one stack
            # holds Re X_k and Im X_k at rows 2kn and (2k + 1)n, another
            # S_k^-T at row kn
            cols = np.concatenate([ops[j].slot_cols + k * n * n
                                   for k, j in enumerate(members)], axis=1)
            vals = np.concatenate([ops[j].slot_vals for j in members], axis=1)
            x_rows, s_rows = 2 * n * (cols // (n * n)) + cols % n, cols // n
            left = np.empty((cols.shape[1], 4, n))
            right = np.empty((cols.shape[1], 4, n), dtype=complex)
            self._stacks.append((
                members, np.empty((2 * len(members) * n, n)),
                np.empty((len(members) * n, n), dtype=complex),
                np.stack([x_rows[0], x_rows[0] + n, x_rows[1], x_rows[1] + n], axis=1),
                np.stack([s_rows[0], s_rows[0], s_rows[1], s_rows[1]], axis=1),
                np.repeat(np.stack([vals[0], 1j * vals[0], vals[1], 1j * vals[1]],
                                   axis=1)[:, :, None], n, axis=2),
                left, right))
            start = 0
            for j in members:
                op, p, r = ops[j], ops[j].pairs, ops[j].rows.size
                flat = gathered[:2 * p * p].reshape(p, 2, p)
                self._views[j] = (left[start:start + p].transpose(0, 2, 1),
                                  right[start:start + p].view(float),
                                  half[:2 * p * n * n].reshape(p, n, 2 * n),
                                  half[:2 * p * n * n].reshape(p, 2 * n * n),
                                  op.slot_bins.ravel(), op.slot_weights.ravel(),
                                  flat.reshape(p, 2 * p), flat[:r], flat[r:],
                                  spill[:2 * r * (p - r)].reshape(r, 2, p - r),
                                  flat[:r, 0, :r], flat[:r, 1, :r])
                start += p

    def assemble(self, xs, sinvs) -> np.ndarray:
        """The accumulator, overwritten with the Schur matrix at ``X_j`` and
        ``S_j^-1``."""
        for members, x_stack, s_stack, x_index, s_index, scale, left, right in self._stacks:
            np.concatenate([part for j in members for part in (xs[j].real, xs[j].imag)],
                           out=x_stack)
            np.concatenate([sinvs[j].T for j in members], out=s_stack)
            np.take(x_stack, x_index, axis=0, out=left, mode="clip")
            np.take(s_stack, s_index, axis=0, out=right, mode="clip")
            right *= scale
        acc = self.acc
        acc.fill(0.0)
        for op, views in zip(self.ops, self._views):
            (left, right, half, flat_half, bins, weights, gathered, fold, extra, spill,
             first, second) = views
            if not op.pairs:
                continue
            np.matmul(left, right, out=half)
            np.take(flat_half, bins, axis=1, out=gathered, mode="clip")
            gathered *= weights
            if op.folds.size:
                # the columns go through a copy: ufunc.at copies an operand
                # that may overlap its values
                np.add.at(fold, op.folds, extra)
                np.copyto(spill, fold[:, :, op.rows.size:])
                np.add.at(fold, (slice(None), slice(None), op.folds), spill)
            acc[op.target] += first
            acc[op.target] += second
        return acc


def _full_row_rank(gram: np.ndarray) -> bool:
    """True when the constraint rows, given a positive multiple of their
    Gram matrix ``Re(A A^H)``, are linearly independent, which makes ``A(X)
    = b`` consistent for every b: a Cholesky factor, written over a
    Fortran-ordered ``gram``, with a reciprocal condition estimate well
    above round-off."""
    from scipy.linalg import lapack
    norm = lapack.dlange("1", gram)
    factor, info = lapack.dpotrf(gram, lower=True, clean=False, overwrite_a=True)
    if info == 0:
        rcond, info = lapack.dpocon(factor, norm, uplo="L")
    return info == 0 and rcond > _RANK_RCOND


def _cholesky(mat: np.ndarray):
    """``rhs -> mat^-1 rhs`` by the upper Cholesky factor of ``mat`` (written
    over it when Fortran-ordered), or None if ``mat`` is not positive definite:
    the one factorization of both interior-point engines, loading scipy lazily."""
    from scipy.linalg import lapack
    factor, info = lapack.dpotrf(mat, lower=False, clean=False, overwrite_a=True)
    if info != 0:
        return None
    return lambda rhs: lapack.dpotrs(factor, rhs, lower=False)[0]


def _linear_consistency(gram: np.ndarray, b: np.ndarray) -> bool:
    """True when ``b`` lies in the range of the rows' Gram matrix, so that
    the equalities have a Hermitian solution; least squares on a Gram
    matrix squares the rows' condition number."""
    sol = np.linalg.lstsq(gram, b, rcond=None)[0]
    return float(np.linalg.norm(gram @ sol - b)) <= 1e-8 * (1.0 + float(np.linalg.norm(b)))


def _apply(problem: SdpProblem, block: int, x: np.ndarray) -> np.ndarray:
    """The vector ``Re tr(A_i X)`` over all rows, from the stored entries."""
    return _Side(problem, block).apply(x)


def _adjoint(problem: SdpProblem, block: int, y: np.ndarray) -> np.ndarray:
    """The matrix ``sum_i y_i A_i``, from the stored entries."""
    return _Side(problem, block).adjoint(y)


def _verify(problem: SdpProblem, sol: SdpSolution,
            feasibility_tolerance: float = _FEAS_TOL,
            gap_tolerance: float = _GAP_TOL) -> bool:
    """Recheck a solution against the problem data alone.

    Recomputes, from the returned iterate and the problem data alone, the
    relative primal and dual residuals, the smallest eigenvalue of every
    primal and dual block, the relative duality gap and the two reported
    objectives, and applies the solver's acceptance test.  A and A* are the
    solver's ``_apply`` and ``_adjoint``, checked by ``TestEntryAdjoint``.
    """
    b = np.asarray(problem._rhs, dtype=float)
    xs, ss, y = sol.blocks, sol.dual_blocks, sol.y
    primal = sum(_apply(problem, j, x) for j, x in enumerate(xs))
    cmats = problem._objective
    norm_b = float(np.linalg.norm(b))
    norm_c = max(float(np.linalg.norm(c)) for c in cmats)
    err_p = float(np.linalg.norm(b - primal)) / (1.0 + norm_b)
    err_d = max(float(np.linalg.norm(c - _adjoint(problem, j, y) - s))
                for j, (c, s) in enumerate(zip(cmats, ss))) / (1.0 + norm_c)
    pobj = sum(float(np.real(np.vdot(c, x))) for c, x in zip(cmats, xs))
    dobj = float(b @ y)
    scale = 1.0 + abs(pobj) + abs(dobj)
    rel_gap = sum(float(np.real(np.vdot(x, s))) for x, s in zip(xs, ss)) / scale
    cone = all(float(w[0]) >= -feasibility_tolerance * max(1.0, float(w[-1]))
               for w in (np.linalg.eigvalsh(mat) for mat in (*xs, *ss)))
    return (err_p <= feasibility_tolerance and err_d <= feasibility_tolerance
            and rel_gap <= gap_tolerance and cone
            and abs(sol.value - pobj) <= gap_tolerance * scale
            and abs(sol.dual_value - dobj) <= gap_tolerance * scale)


def dual_bound(problem: SdpProblem, y: np.ndarray) -> float:
    """Lower bound ``b.y + sum_j min(0, lambda_min(C_j - sum_i y_i A_ij))``.

    Rigorous for any dual vector ``y``, however early the solver stopped,
    when every feasible block has trace at most 1; the slacks are
    recomputed from the stored constraint entries.
    """
    bound = float(np.dot(problem._rhs, y))
    for j, objective in enumerate(problem._objective):
        slack = _herm(objective - _adjoint(problem, j, y))
        bound += min(0.0, float(np.linalg.eigvalsh(slack)[0]))
    return bound


def _herm(mat: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix or of each matrix of a stack."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2.0


def _eigen_blocks(stacks):
    """The ascending eigendecompositions ``(w, V)``, one ``eigh`` each, of
    stacks of Hermitian blocks (or of matrices), or None when a block is off
    the interior: its least eigenvalue is not positive, or ``eigh`` fails."""
    try:
        eigs = [np.linalg.eigh(stack) for stack in stacks]
    except np.linalg.LinAlgError:
        return None
    return eigs if all(np.all(w[..., 0] > 0.0) for w, _ in eigs) else None


def _max_step(eig, direction: np.ndarray):
    """Largest a with M + a*D >= 0, given the eigenpair ``(w, V)`` of M:
    ``-1 / lambda_min(W D W^H)`` for the whitening ``W = (V / sqrt(w))^H``,
    or 10 when ``W D W^H >= 0``.  On a stack of blocks, the least step over
    the block axis (third from last), one per index of the axes before it."""
    w, v = eig
    whiten = v / np.sqrt(w)[..., None, :]
    lo = np.linalg.eigvalsh(_herm(whiten.conj().swapaxes(-1, -2) @ direction @ whiten))[..., 0]
    lo = lo.min(axis=-1) if direction.ndim > 2 else lo
    return np.where(lo >= -1e-14, 10.0, -1.0 / np.minimum(lo, -1e-14))[()]


def _checked(problem: SdpProblem, sol: SdpSolution, feas_tol: float,
             gap_tol: float) -> SdpSolution:
    """``sol`` as ``"optimal"`` if the recheck ``_verify`` agrees, else as ``"max-iterations"``."""
    status = "optimal" if _verify(problem, sol, feas_tol, gap_tol) else "max-iterations"
    return dataclasses.replace(sol, status=status)


def _diverged(sol: SdpSolution, status: str, iterations: int) -> SdpSolution:
    """``sol`` as ``"infeasible"`` or ``"unbounded"``: no objectives, infinite gap."""
    return dataclasses.replace(sol, status=status, value=float("nan"),
                               dual_value=float("nan"), gap=float("inf"),
                               iterations=iterations)


def sdp_solve(problem: SdpProblem, max_iterations: int = 100) -> SdpSolution:
    """Solve a semidefinite program to high accuracy.

    The targets are a relative duality gap of 1e-9 and relative primal and
    dual residuals of 5e-9.

    Parameters
    ----------
    problem : SdpProblem
    max_iterations : int
        Iteration cap, an integer >= 1 (default 100).

    Returns
    -------
    SdpSolution
        ``status == "optimal"`` has passed the recheck of ``_verify`` at
        1e-7 or tighter: relative primal and dual residuals, relative gap
        ``sum <X_j, S_j> / (1 + |pobj| + |dobj|)``, block positivity and
        the two reported objectives.  A stall, a block off the interior, a
        failed Schur factorization or the cap returns the best iterate if
        it passes the recheck at 1e-7, else the last as ``"max-iterations"``.
        The reported absolute ``gap = max(sum <X_j, S_j>, |pobj - dobj|)``
        is not bounded by that check and can exceed 1e-7; callers that
        certify a value compare it with their own tolerance.  A diverging
        dual or primal objective gives ``"infeasible"`` or ``"unbounded"``;
        inconsistent dependent rows give ``"infeasible"`` with 0 iterations.
    """
    max_iterations = _count(max_iterations, "max_iterations", "solver-config", low=1)
    b = np.asarray(problem._rhs, dtype=float)
    cmats = problem._objective
    m = b.size
    if m == 0:
        raise ValidationError("constraint", detail="at least one constraint is required")

    norm_b = float(np.linalg.norm(b))
    norm_c = max(float(np.linalg.norm(c)) for c in cmats)

    # the Schur build's buffers, then its symmetrized copy, which the
    # Cholesky factors overwrite; the iterations allocate nothing of size m^2
    work = _SchurWorkspace([_BlockOperator(problem, j) for j in range(len(cmats))])
    schur = np.empty((m, m), order="F")
    # per side group, the objectives as one (k, n, n) stack and the X and S
    # blocks as one (2, k, n, n) stack, rebound, never written in place;
    # unstack gives the blocks in block order from one stack per group
    sides = work.sides
    cs = [np.stack([cmats[j] for j in side.blocks]) for side in sides]
    start = np.array([max(1.0, norm_b), max(1.0, norm_c)])[:, None, None, None]
    zs = [start * np.broadcast_to(np.eye(side.n, dtype=complex), side.shape) for side in sides]
    y = np.zeros(m)
    order = sorted((j, g, k) for g, side in enumerate(sides) for k, j in enumerate(side.blocks))

    def unstack(stacks):
        return tuple(stacks[g][k] for _, g, k in order)

    # (merit, solution) of the best iterate by worst-of-three merit; lets the
    # solver return a certified answer even when the last steps stall in noise
    best, stall = None, 0

    tau = 0.98
    # the pass at max_iterations + 1 only wraps the capped iterate
    for it in range(1, max_iterations + 2):
        pobj = sum(float(np.real(np.vdot(z[0], c))) for c, z in zip(cs, zs))
        dobj = float(b @ y)
        gap_abs = sum(float(np.real(np.vdot(z[0], z[1]))) for z in zs)
        last = SdpSolution("max-iterations", pobj, dobj, max(gap_abs, abs(pobj - dobj)),
                           it - 1, unstack([z[0] for z in zs]), y, unstack([z[1] for z in zs]))
        if it > max_iterations:
            break
        adj_y = [side.adjoint(y) for side in sides]
        rp = b - sum(side.apply(z[0]) for side, z in zip(sides, zs))
        rds = [c - ay - z[1] for c, ay, z in zip(cs, adj_y, zs)]
        err_p = float(np.linalg.norm(rp)) / (1.0 + norm_b)
        err_d = max(float(np.linalg.norm(rd, axis=(1, 2)).max()) for rd in rds) / (1.0 + norm_c)
        rel_gap = gap_abs / (1.0 + abs(pobj) + abs(dobj))

        merit = max(err_p, err_d, rel_gap)
        if best is None or merit < best[0]:
            best = (merit, last)
            stall = 0
        else:
            stall += 1

        if err_p <= _FEAS_TOL and err_d <= _FEAS_TOL and rel_gap <= _GAP_TOL:
            return _checked(problem, last, _FEAS_TOL, _GAP_TOL)
        # ten iterations without merit progress means the iterates are
        # wandering at the numerical floor of this instance
        if stall >= 10:
            break

        # a wildly diverging dual objective signals primal infeasibility,
        # a diverging primal objective signals unboundedness
        if dobj > _DIVERGE * (1.0 + norm_c) and err_d < _CERT_TOL:
            scale = float(np.linalg.norm(y))
            lam = max(float(np.linalg.eigvalsh(ay)[:, -1].max()) for ay in adj_y)
            if b @ (y / scale) > 1e-12 and lam / scale < _CERT_TOL:
                return _diverged(last, "infeasible", it)
        if pobj < -_DIVERGE * (1.0 + norm_b) and err_p < _CERT_TOL:
            return _diverged(last, "unbounded", it)

        mu = gap_abs / sum(problem.block_dims)
        eigs = _eigen_blocks(zs)
        if eigs is None:
            break
        sinvs = [_herm((v[1] / w[1][..., None, :]) @ v[1].conj().swapaxes(-1, -2))
                 for w, v in eigs]

        # written through the C-ordered view, a contiguous pass: a + b is
        # b + a, so the Fortran-ordered schur holds the same bits
        acc = work.assemble(last.blocks, unstack(sinvs))
        np.add(acc, acc.T, out=schur.T)
        schur *= 0.5
        if it == 1:
            # X and S are multiples of I, so this is a multiple of the Gram
            # matrix; the diagonal shift below would hide a dependence
            independent = _full_row_rank(schur)
            np.add(acc, acc.T, out=schur.T)
            schur *= 0.5
            if not independent and not _linear_consistency(schur, b):
                return _diverged(last, "infeasible", 0)
        schur.flat[::m + 1] += 1e-13 * max(1.0, schur.diagonal().max())
        # one factorization serves the predictor and the corrector
        solve = _cholesky(schur)
        if solve is None:
            break
        base = [z[0] + z[0] @ rd @ si for z, rd, si in zip(zs, rds, sinvs)]

        def directions(sigma_mu, corrs):
            # A(dX) = rp for dX = sigma_mu S^-1 - X - X dS S^-1 - corr and
            # dS = rd - A^T(dy) is M dy = rp + A(X + X rd S^-1 - sigma_mu S^-1 + corr);
            # per side group, the stack of dX over that of dS, then the
            # primal and the dual step, each the least over all blocks
            rhs = rp + sum(side.apply(bm - sigma_mu * si + cm)
                           for side, bm, si, cm in zip(sides, base, sinvs, corrs))
            dy = solve(rhs)
            dss = [rd - side.adjoint(dy) for rd, side in zip(rds, sides)]
            dzs = [np.stack((_herm(sigma_mu * si - z[0] - z[0] @ ds @ si - cm), ds))
                   for z, ds, si, cm in zip(zs, dss, sinvs, corrs)]
            steps = np.min([_max_step(e, dz) for e, dz in zip(eigs, dzs)], axis=0)
            return dy, dzs, np.minimum(1.0, tau * steps)

        dy_a, dzs_a, (ap, ad) = directions(0.0, [0.0] * len(sides))
        gap_aff = sum(float(np.real(np.vdot(z[0] + ap * dz[0], z[1] + ad * dz[1])))
                      for z, dz in zip(zs, dzs_a))
        sigma = min(1.0, max(0.0, (gap_aff / gap_abs)) ** 3) if gap_abs > 0 else 0.1

        corrs = [dz[0] @ dz[1] @ si for dz, si in zip(dzs_a, sinvs)]
        dy, dzs, steps = directions(sigma * mu, corrs)
        zs = [z + steps[:, None, None, None] * dz for z, dz in zip(zs, dzs)]
        y = y + steps[1] * dy

    # every other ending short of the targets: the best iterate if it
    # passes the recheck at 1e-7, with the step count of the exit
    if best[0] <= _BEST_TOL:
        return _checked(problem, dataclasses.replace(best[1], iterations=last.iterations),
                        _BEST_TOL, _BEST_TOL)
    return last
