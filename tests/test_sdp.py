"""Interior-point SDP solver: known optima, oracle cross-checks, statuses."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from entmeas import ValidationError, partial_transpose, sdp
from entmeas.sdp import (
    SdpProblem,
    _BlockOperator,
    _adjoint,
    _apply,
    _eigen_blocks,
    _full_row_rank,
    _max_step,
    _verify,
    dual_bound,
    sdp_solve,
)
from entmeas.variational import _CONE_BLOCKS
from conftest import rand_unitary


def herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


class TestKnownOptima:
    def test_smallest_eigenvalue_problem(self, rng):
        # min <C, X> over density-like X is exactly the smallest eigenvalue.
        for n in (2, 4, 6):
            c = herm(rng, n)
            prob = SdpProblem([n])
            prob.set_objective(0, c)
            prob.add_equality({0: np.eye(n)}, 1.0)
            sol = sdp_solve(prob)
            assert sol.status == "optimal"
            assert abs(sol.value - np.linalg.eigvalsh(c)[0]) < 1e-8
            assert sol.gap <= 1e-7

    def test_pinned_diagonal(self):
        prob = SdpProblem([2])
        prob.set_objective(0, np.eye(2))
        e00 = np.diag([1.0, 0.0])
        prob.add_equality({0: e00}, 1.0)
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.value - 1.0) < 1e-8
        assert abs(sol.blocks[0][0, 0] - 1.0) < 1e-7
        assert abs(sol.blocks[0][1, 1]) < 1e-7

    def test_primal_dual_agreement(self, rng):
        c = herm(rng, 4)
        prob = SdpProblem([4])
        prob.set_objective(0, c)
        prob.add_equality({0: np.eye(4)}, 1.0)
        prob.add_equality({0: np.diag([1.0, 1.0, 0.0, 0.0])}, 0.3)
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.value - sol.dual_value) < 1e-7

    def test_two_blocks_with_coupling(self, rng):
        # Force X1 = diag-flip of X0 through entrywise couplings; then
        # min tr(D X0) with X0 a density matrix and D = diag(1, 2).
        prob = SdpProblem([2, 2])
        prob.set_objective(0, np.diag([1.0, 2.0]))
        prob.add_equality({0: np.eye(2)}, 1.0)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        for basis in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), flip):
            prob.add_equality({0: basis, 1: -(flip @ basis @ flip)}, 0.0)
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.value - 1.0) < 1e-7
        assert abs(sol.blocks[1][1, 1] - 1.0) < 1e-6

    def test_diagonal_restriction_reduces_to_lp(self, rng):
        # zeroing every off-diagonal entry leaves an LP over the simplex,
        # whose optimum is the smallest diagonal objective entry
        n = 4
        c = herm(rng, n)
        prob = SdpProblem([n])
        prob.set_objective(0, c)
        prob.add_equality({0: np.eye(n)}, 1.0)
        s = 1.0 / np.sqrt(2.0)
        for i in range(n):
            for j in range(i + 1, n):
                sym = np.zeros((n, n), dtype=complex)
                sym[i, j] = sym[j, i] = s
                prob.add_equality({0: sym}, 0.0)
                asym = np.zeros((n, n), dtype=complex)
                asym[i, j] = 1j * s
                asym[j, i] = -1j * s
                prob.add_equality({0: asym}, 0.0)
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.value - np.min(np.real(np.diag(c)))) < 1e-8
        off = sol.blocks[0] - np.diag(np.diag(sol.blocks[0]))
        assert np.linalg.norm(off) < 1e-7

    def test_complex_hermitian_data(self, rng):
        c = herm(rng, 3)
        a1 = herm(rng, 3)
        rhs = float(np.real(np.trace(a1))) / 3.0  # feasible at X = I/3
        prob = SdpProblem([3])
        prob.set_objective(0, c)
        prob.add_equality({0: np.eye(3)}, 1.0)
        prob.add_equality({0: a1}, rhs)
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        x = sol.blocks[0]
        assert np.linalg.eigvalsh(x)[0] > -1e-9
        assert abs(np.real(np.trace(a1 @ x)) - rhs) < 1e-8


class TestStatuses:
    def test_contradictory_equalities_are_infeasible(self):
        prob = SdpProblem([2])
        prob.set_objective(0, np.eye(2))
        prob.add_equality({0: np.eye(2)}, 1.0)
        prob.add_equality({0: np.eye(2)}, 2.0)
        assert sdp_solve(prob).status == "infeasible"

    def test_cone_infeasibility_detected(self):
        # x00 = -1 is linearly consistent but impossible for PSD X.
        prob = SdpProblem([2])
        prob.set_objective(0, np.zeros((2, 2)))
        prob.add_equality({0: np.diag([1.0, 0.0])}, -1.0)
        assert sdp_solve(prob).status == "infeasible"

    def test_unbounded_problem_detected(self):
        prob = SdpProblem([2])
        prob.set_objective(0, -np.eye(2))
        prob.add_equality({0: np.diag([1.0, 0.0])}, 1.0)
        assert sdp_solve(prob).status == "unbounded"

    def test_iteration_cap_reported(self, rng):
        c = herm(rng, 3)
        prob = SdpProblem([3])
        prob.set_objective(0, c)
        prob.add_equality({0: np.eye(3)}, 1.0)
        sol = sdp_solve(prob, max_iterations=2)
        assert sol.status == "max-iterations"

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_capped_solve_reports_its_own_iterate(self, rng, cap):
        prob = ppt_problem((2, 2))
        prob.set_objective(0, herm(rng, 4))
        sol = sdp_solve(prob, max_iterations=cap)
        assert sol.status == "max-iterations"
        assert sol.iterations == cap
        value = sum(np.real(np.vdot(c, x)) for c, x in zip(prob._objective, sol.blocks))
        dual_value = float(np.dot(prob._rhs, sol.y))
        complementarity = sum(np.real(np.vdot(x, s)) for x, s in zip(sol.blocks, sol.dual_blocks))
        assert sol.value == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert sol.dual_value == pytest.approx(dual_value, rel=1e-12, abs=1e-12)
        assert sol.gap == pytest.approx(max(abs(value - dual_value), complementarity),
                                        rel=1e-12, abs=1e-12)

    def test_determinism(self, rng):
        c = herm(rng, 4)
        prob = SdpProblem([4])
        prob.set_objective(0, c)
        prob.add_equality({0: np.eye(4)}, 1.0)
        first = sdp_solve(prob)
        second = sdp_solve(prob)
        assert first.value == second.value
        assert np.array_equal(first.blocks[0], second.blocks[0])


class TestValidationAndLimits:
    def test_dimension_cap(self):
        with pytest.raises(ValidationError, match="block-dims"):
            SdpProblem([300, 200])
        with pytest.raises(ValidationError, match="block-dims"):
            SdpProblem([37])

    def test_rejects_non_hermitian_data(self):
        prob = SdpProblem([2])
        with pytest.raises(ValidationError, match="hermiticity"):
            prob.set_objective(0, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="hermiticity"):
            prob.add_equality({0: np.array([[0.0, 1.0], [0.0, 0.0]])}, 0.0)

    def test_rejects_non_finite_data(self):
        prob = SdpProblem([2])
        for bad in (np.nan, np.inf):
            mat = np.eye(2, dtype=complex)
            mat[0, 1] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                prob.set_objective(0, mat)
            with pytest.raises(ValidationError, match="non-finite"):
                prob.add_equality({0: mat}, 1.0)

    def test_refused_equality_adds_no_row(self):
        prob = SdpProblem([2, 2])
        with pytest.raises(ValidationError, match="shape"):
            prob.add_equality({0: np.eye(2), 1: np.eye(3)}, 1.0)
        assert prob.num_constraints == 0
        assert prob._block_entries(0)[0].size == 0

    def test_refused_operator_equation_adds_no_row(self):
        prob = SdpProblem([4, 3])
        with pytest.raises(ValidationError, match="dims"):
            prob.add_operator_equation({0: (1.0, ()), 1: (1.0, ())}, None, (2, 2))
        with pytest.raises(ValidationError, match="hermiticity"):
            prob.add_operator_equation({0: (1.0, (1,))}, np.triu(np.ones((4, 4))), (2, 2))
        with pytest.raises(ValidationError, match="constraint"):
            prob.add_operator_equation({}, None, (2, 2))
        assert prob.num_constraints == 0
        assert prob._block_entries(0)[0].size == 0

    @pytest.mark.parametrize("invariant, action", [
        ("block-dims", lambda prob: SdpProblem((2.5,))),
        ("block-dims", lambda prob: SdpProblem((True, 2))),
        ("block-dims", lambda prob: SdpProblem(3)),
        ("block-dims", lambda prob: SdpProblem((np.nan, 2))),
        ("block-index", lambda prob: prob.add_equality({0.5: np.eye(4)}, 1.0)),
        ("block-index", lambda prob: prob.add_equality({0: np.eye(4), -1: np.eye(4)}, 1.0)),
        ("block-index", lambda prob: prob.add_equality({2: np.eye(4)}, 1.0)),
        ("block-index", lambda prob: prob.set_objective(-1, np.eye(4))),
        ("block-index", lambda prob: prob.add_operator_equation(
            {0: (1.0, (1,)), -1: (-1.0, ())}, None, (2, 2))),
        ("non-finite", lambda prob: prob.add_equality({0: np.eye(4)}, np.nan)),
        ("non-finite", lambda prob: prob.add_equality({0: np.eye(4)}, np.inf)),
        ("constraint", lambda prob: prob.add_equality({0: np.eye(4)}, 1j)),
        ("non-finite", lambda prob: prob.add_operator_equation(
            {0: (np.nan, (1,)), 1: (-1.0, ())}, None, (2, 2))),
        ("constraint", lambda prob: prob.add_operator_equation(
            {0: (1.0j, (1,)), 1: (-1.0, ())}, None, (2, 2))),
        ("constraint", lambda prob: prob.add_equality({0: np.eye(4)}, 10**400)),
        ("constraint", lambda prob: prob.add_operator_equation(
            {0: (10**400, (1,)), 1: (-1.0, ())}, None, (2, 2))),
    ], ids=["fractional-dim", "bool-dim", "dims-not-a-sequence", "nan-dim",
            "fractional-index", "negative-index", "index-past-the-end",
            "negative-objective-index", "negative-equation-index", "nan-rhs", "inf-rhs",
            "complex-rhs", "nan-sign", "complex-sign", "huge-int-rhs", "huge-int-sign"])
    def test_refuses_bad_dims_indices_and_numbers(self, invariant, action):
        prob = SdpProblem((4, 4))
        with pytest.raises(ValidationError, match=invariant):
            action(prob)
        assert prob.num_constraints == 0
        assert all(prob._block_entries(j)[0].size == 0 for j in range(2))
        assert not any(c.any() for c in prob._objective)

    @pytest.mark.parametrize("action", [
        lambda prob: prob.add_equality([np.eye(4)], 1.0),
        lambda prob: prob.add_equality(np.eye(4), 1.0),
        lambda prob: prob.add_operator_equation([(1.0, (1,))], None, (2, 2)),
        lambda prob: prob.add_operator_equation({0: 1.0}, None, (2, 2)),
        lambda prob: prob.add_operator_equation({0: (1.0, 1)}, None, (2, 2)),
        lambda prob: prob.add_operator_equation({0: (1.0, (1,), 2)}, None, (2, 2)),
        lambda prob: prob.add_operator_equation({0: (1.0, (0.5,))}, None, (2, 2)),
        lambda prob: prob.add_operator_equation(
            {0: (1.0, (1,)), 1: (-1.0, "0")}, None, (2, 2)),
    ], ids=["equality-list", "equality-array", "equation-list", "bare-sign",
            "parties-not-a-sequence", "three-part-term", "fractional-party", "string-parties"])
    def test_refuses_malformed_terms(self, action):
        prob = SdpProblem((4, 4))
        with pytest.raises(ValidationError, match="constraint"):
            action(prob)
        assert prob.num_constraints == 0
        assert all(prob._block_entries(j)[0].size == 0 for j in range(2))

    @pytest.mark.parametrize("cap", [2.5, 0, -3, True])
    def test_rejects_an_iteration_cap_that_is_not_a_positive_integer(self, cap):
        with pytest.raises(ValidationError, match="solver-config"):
            sdp_solve(ppt_problem((2, 2)), max_iterations=cap)

    def test_requires_constraints(self):
        prob = SdpProblem([2])
        prob.set_objective(0, np.eye(2))
        with pytest.raises(ValidationError, match="constraint"):
            sdp_solve(prob)


class TestOracleCrossCheck:
    def test_against_cvxpy_on_random_feasible_problems(self, rng):
        cvxpy = pytest.importorskip("cvxpy")
        for trial in range(3):
            n = 3
            target = [herm(rng, n) + 2 * n * np.eye(n) for _ in range(2)]
            amats = [[herm(rng, n) for _ in range(2)] for _ in range(4)]
            # pinning each block trace keeps the feasible set compact, so
            # the optimum is finite for any objective
            for j in range(2):
                row = [np.zeros((n, n)), np.zeros((n, n))]
                row[j] = np.eye(n)
                amats.append(row)
            b = [sum(float(np.real(np.vdot(x, a))) for a, x in zip(row, target))
                 for row in amats]
            cobj = [herm(rng, n) for _ in range(2)]

            prob = SdpProblem([n, n])
            for j in range(2):
                prob.set_objective(j, cobj[j])
            for row, rhs in zip(amats, b):
                prob.add_equality({0: row[0], 1: row[1]}, rhs)
            mine = sdp_solve(prob)
            assert mine.status == "optimal"

            xv = [cvxpy.Variable((n, n), hermitian=True) for _ in range(2)]
            cons = [x >> 0 for x in xv]
            for row, rhs in zip(amats, b):
                cons.append(
                    sum(cvxpy.real(cvxpy.trace(a @ x)) for a, x in zip(row, xv)) == rhs)
            objective = cvxpy.Minimize(
                sum(cvxpy.real(cvxpy.trace(c @ x)) for c, x in zip(cobj, xv)))
            ref = cvxpy.Problem(objective, cons)
            ref.solve(solver=cvxpy.SCS, eps=1e-9)
            assert abs(mine.value - ref.value) < 1e-5


def positive(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.1 * np.eye(n)


def dense_schur(problem, block, x, sinv):
    """Reference ``Re tr(A_i X A_k S^-1)`` from a dense stack of the rows."""
    n = problem.block_dims[block]
    stack = _BlockOperator(problem, block).dense().reshape(-1, n, n)
    return np.einsum("iab,bc,kcd,da->ik", stack, x, stack, sinv).real


def ppt_problem(dims):
    n = dims[0] * dims[1]
    prob = SdpProblem((n, n))
    prob.add_operator_equation({0: (1.0, (1,)), 1: (-1.0, ())}, None, dims)
    prob.add_equality({0: np.eye(n)}, 1.0)
    return prob


class TestOperatorEquationRows:
    @pytest.mark.parametrize("dims, parties", [
        ((2, 2), (1,)), ((2, 3), (1,)), ((3, 3), (1,)),
        ((2, 2, 2), (0,)), ((2, 2, 2), (2,)), ((2, 2, 2), (0, 2)), ((2, 3, 2), (1,))])
    def test_rows_are_a_hermitian_basis_and_its_partial_transposes(self, rng, dims, parties):
        n = int(np.prod(dims))
        prob = SdpProblem((n, n))
        rhs = herm(rng, n)
        prob.add_operator_equation({0: (1.0, ()), 1: (1.0, parties)}, rhs, dims)
        basis = _BlockOperator(prob, 0).dense().reshape(n * n, n, n)
        permuted = _BlockOperator(prob, 1).dense().reshape(n * n, n, n)
        assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
        gram = np.einsum("aij,bji->ab", basis, basis).real
        assert np.allclose(gram, np.eye(n * n), rtol=0.0, atol=1e-15)
        gram = np.einsum("aij,bji->ab", permuted, permuted).real
        assert np.allclose(gram, np.eye(n * n), rtol=0.0, atol=1e-15)
        for element, row in zip(basis, permuted):
            assert np.array_equal(row, partial_transpose(element, parties, dims))
        want = np.einsum("aij,ji->a", basis, rhs).real
        assert np.allclose(prob._rhs, want, rtol=0.0, atol=1e-14)


class TestSparseSchur:
    def test_matches_dense_build_on_random_constraints(self, rng):
        n = 4
        prob = SdpProblem([n, n])
        for _ in range(9):
            prob.add_equality({0: herm(rng, n), 1: herm(rng, n)}, 0.0)
        prob.add_equality({1: herm(rng, n)}, 0.0)
        for block in (0, 1):
            x, sinv = positive(rng, n), positive(rng, n)
            got = sdp._SchurWorkspace([_BlockOperator(prob, block)]).assemble([x], [sinv])
            ref = dense_schur(prob, block, x, sinv)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_matches_dense_build_on_operator_equations(self, rng, dims):
        prob = ppt_problem(dims)
        n = dims[0] * dims[1]
        for block in (0, 1):
            x, sinv = positive(rng, n), positive(rng, n)
            got = sdp._SchurWorkspace([_BlockOperator(prob, block)]).assemble([x], [sinv])
            ref = dense_schur(prob, block, x, sinv)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def assert_matches_dense(rng, prob):
        for block, n in enumerate(prob.block_dims):
            x, sinv = positive(rng, n), positive(rng, n)
            got = sdp._SchurWorkspace([_BlockOperator(prob, block)]).assemble([x], [sinv])
            ref = dense_schur(prob, block, x, sinv)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_trace_row(self, rng):
        # nine entries on one row: five pair rows, the last padded with 0
        prob = ppt_problem((3, 3))
        op = _BlockOperator(prob, 0)
        assert op.pairs == op.rows.size + 4
        self.assert_matches_dense(rng, prob)

    def test_dense_equality_row(self, rng):
        n = 4
        prob = ppt_problem((2, 2))
        prob.add_equality({0: herm(rng, n), 1: herm(rng, n)}, 0.0)
        assert np.count_nonzero(_BlockOperator(prob, 0).dense()[n * n + 1]) == n * n
        self.assert_matches_dense(rng, prob)

    def test_row_absent_from_one_block(self, rng):
        n = 3
        prob = SdpProblem((n, n, n))
        prob.add_equality({0: herm(rng, n), 1: herm(rng, n)}, 0.0)
        prob.add_equality({0: herm(rng, n)}, 0.0)
        prob.add_equality({0: np.eye(n), 1: herm(rng, n)}, 1.0)
        assert list(_BlockOperator(prob, 1).rows) == [0, 2]
        assert _BlockOperator(prob, 2).pairs == 0
        self.assert_matches_dense(rng, prob)
        assert not sdp._SchurWorkspace([_BlockOperator(prob, 2)]).assemble(
            [positive(rng, n)], [positive(rng, n)]).any()

    def test_three_party_operator_equation(self, rng):
        prob = SdpProblem((8, 8))
        prob.add_operator_equation({0: (1.0, (0, 2)), 1: (-1.0, ())}, None, (2, 2, 2))
        prob.add_equality({0: np.eye(8)}, 1.0)
        self.assert_matches_dense(rng, prob)


def mixed_problem(rng, dims):
    """Random objectives, one operator equation and two dense rows."""
    n = dims[0] * dims[1]
    prob = SdpProblem((n, n, n))
    for j in range(3):
        prob.set_objective(j, herm(rng, n))
    prob.add_operator_equation({0: (1.0, (1,)), 2: (-1.0, ())}, herm(rng, n), dims)
    prob.add_equality({0: herm(rng, n), 1: herm(rng, n)}, 0.3)
    prob.add_equality({1: np.eye(n)}, 1.0)
    return prob


class TestSchurWorkspace:
    """One workspace serves every build of a solve and keeps nothing of a
    build but the accumulator it returns."""

    def test_successive_builds_match_fresh_builds(self, rng):
        prob = mixed_problem(rng, (2, 3))
        ops = [_BlockOperator(prob, j) for j in range(3)]
        work = sdp._SchurWorkspace(ops)
        for _ in range(2):
            xs = [positive(rng, 6) for _ in ops]
            sinvs = [positive(rng, 6) for _ in ops]
            got = work.assemble(xs, sinvs).copy()
            assert np.array_equal(got, sdp._SchurWorkspace(ops).assemble(xs, sinvs))

    def test_blocks_of_two_sides(self, rng):
        prob = SdpProblem((4, 6, 4))
        for _ in range(5):
            prob.add_equality({j: herm(rng, n) for j, n in enumerate(prob.block_dims)}, 0.0)
        prob.add_equality({1: np.eye(6)}, 1.0)
        ops = [_BlockOperator(prob, j) for j in range(3)]
        xs = [positive(rng, n) for n in prob.block_dims]
        sinvs = [positive(rng, n) for n in prob.block_dims]
        got = sdp._SchurWorkspace(ops).assemble(xs, sinvs)
        ref = sum(dense_schur(prob, j, x, s) for j, (x, s) in enumerate(zip(xs, sinvs)))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_build_allocates_nothing_of_problem_size(self, rng):
        prob = ppt_problem((4, 5))
        ops = [_BlockOperator(prob, j) for j in range(2)]
        work = sdp._SchurWorkspace(ops)
        xs = [positive(rng, 20) for _ in ops]
        work.assemble(xs, xs)
        tracemalloc.start()
        try:
            work.assemble(xs, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < work.acc.nbytes / 2

    def test_solves_share_no_state(self, rng):
        first, other = ppt_problem((2, 2)), ppt_problem((2, 3))
        first.set_objective(0, herm(rng, 4))
        other.set_objective(0, herm(rng, 6))
        a = sdp_solve(first)
        sdp_solve(other)
        b = sdp_solve(first)
        assert a.status == b.status == "optimal"
        assert (a.value, a.gap, a.iterations) == (b.value, b.gap, b.iterations)
        assert np.array_equal(a.y, b.y)
        for one, two in zip(a.blocks + a.dual_blocks, b.blocks + b.dual_blocks):
            assert np.array_equal(one, two)


def complex_schur(work, xs, sinvs):
    """The Schur matrix of ``work`` in complex arithmetic: ``Re sum_t v_t
    H_a[c_t]`` from the complex products H of the workspace's own batched
    product, then both folds and the two slots added as the build adds them."""
    work.assemble(xs, sinvs)  # fills the rows of X and S^-T the products read
    ref = np.zeros_like(work.acc)
    for op, (left, right, half, *_) in zip(work.ops, work._views):
        if not op.pairs:
            continue
        np.matmul(left, right, out=half)
        h = half.copy().view(complex).reshape(op.pairs, -1)
        r, p = op.rows.size, op.pairs
        flat = (h[:, op.slot_cols.ravel()] * op.slot_vals.ravel()).reshape(p, 2, p)
        fold = flat[:r].copy()
        np.add.at(fold, op.folds, flat[r:])
        np.add.at(fold, (slice(None), slice(None), op.folds), fold[:, :, r:].copy())
        ref[op.target] += fold[:, 0, :r].real
        ref[op.target] += fold[:, 1, :r].real
    return ref


def cone_problem(dims, x_cone, y_cone):
    """The blocks and operator equation of ``_base_norm_sdp`` for one pairing."""
    n = dims[0] * dims[1]
    y_blocks, x_blocks = _CONE_BLOCKS[y_cone], _CONE_BLOCKS[x_cone]
    prob = SdpProblem((n,) * (len(y_blocks) + len(x_blocks)))
    prob.add_operator_equation(dict(enumerate(y_blocks + x_blocks)), np.eye(n), dims)
    return prob


class TestRealSlots:
    """Every slot value is real or imaginary, so the build's real gather
    gives the bits of the complex one."""

    @pytest.mark.parametrize("make", [
        lambda: ppt_problem((2, 2)),
        lambda: ppt_problem((3, 3)),
        lambda: cone_problem((2, 3), "PPT-operators", "all-PSD"),
        lambda: cone_problem((2, 3), "PPT-operators", "separable-outer"),
        lambda: cone_problem((2, 3), "separable-outer", "negated-PSD"),
    ], ids=["ppt-2x2", "ppt-3x3", "global", "separable", "bsa"])
    def test_build_is_bit_identical_to_complex_arithmetic(self, rng, make):
        prob = make()
        ops = [_BlockOperator(prob, j) for j in range(len(prob.block_dims))]
        for op in ops:
            assert not np.any((op.slot_vals.real != 0) & (op.slot_vals.imag != 0))
        work = sdp._SchurWorkspace(ops)
        xs = [positive(rng, n) for n in prob.block_dims]
        sinvs = [positive(rng, n) for n in prob.block_dims]
        got = work.assemble(xs, sinvs).copy()
        assert got.any()
        assert got.tobytes() == complex_schur(work, xs, sinvs).tobytes()

    def test_entries_with_both_parts_fill_two_slots(self, rng):
        n = 3
        prob = SdpProblem((n, n))
        coefficient = herm(rng, n)
        prob.add_equality({0: coefficient, 1: np.eye(n)}, 1.0)
        prob.add_equality({1: herm(rng, n)}, 0.0)
        vals = prob._block_entries(0)[2]
        both = np.count_nonzero((vals.real != 0) & (vals.imag != 0))
        assert both == n * (n - 1)
        op = _BlockOperator(prob, 0)
        slots = op.slot_vals.ravel()
        assert np.count_nonzero(slots) == vals.size + both
        assert not np.any((slots.real != 0) & (slots.imag != 0))
        assert np.array_equal(op.dense()[0].reshape(n, n), coefficient)
        for block in range(2):
            x, sinv = positive(rng, n), positive(rng, n)
            got = sdp._SchurWorkspace([_BlockOperator(prob, block)]).assemble([x], [sinv])
            ref = dense_schur(prob, block, x, sinv)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSymmetrizedSchur:
    def test_factored_matrix_is_fortran_ordered_and_exactly_symmetric(self, rng, monkeypatch):
        prob = mixed_problem(rng, (2, 3))
        cholesky, seen = sdp._cholesky, []

        def spy(mat):
            seen.append((mat.flags.f_contiguous, np.array_equal(mat, mat.T)))
            return cholesky(mat)

        monkeypatch.setattr(sdp, "_cholesky", spy)
        sol = sdp_solve(prob)
        assert sol.iterations >= 2
        assert len(seen) == sol.iterations
        assert seen == [(True, True)] * len(seen)


class TestEntryAdjoint:
    """``_verify`` and ``dual_bound`` sum the stored entries directly; the
    reference is a dense stack of each block's rows."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_apply_and_adjoint_match_dense_rows(self, rng, dims):
        prob = mixed_problem(rng, dims)
        n = dims[0] * dims[1]
        y = rng.standard_normal(prob.num_constraints)
        for block in range(3):
            stack = _BlockOperator(prob, block).dense().reshape(-1, n, n)
            x = herm(rng, n)
            want_apply = np.einsum("iab,ba->i", stack, x).real
            want_adjoint = np.einsum("i,iab->ab", y, stack)
            got_apply, got_adjoint = _apply(prob, block, x), _adjoint(prob, block, y)
            assert np.max(np.abs(got_apply - want_apply)) <= 1e-12 * np.max(np.abs(want_apply))
            assert np.max(np.abs(got_adjoint - want_adjoint)) <= (
                1e-12 * np.max(np.abs(want_adjoint)))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_adjoint_is_bit_identical_to_two_passes(self, rng, dims):
        """The one pass over interleaved bins adds each part of each bin in
        the order of the two passes over the real and imaginary parts."""
        prob = mixed_problem(rng, dims)
        n = dims[0] * dims[1]
        for block in range(3):
            rows, cols, vals, _ = prob._block_entries(block)
            y = rng.standard_normal(prob.num_constraints)
            weights = y[rows]
            want = (np.bincount(cols, vals.real * weights, minlength=n * n)
                    + 1j * np.bincount(cols, vals.imag * weights, minlength=n * n))
            assert _adjoint(prob, block, y).tobytes() == want.reshape(n, n).tobytes()

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_dual_bound_matches_dense_rows(self, rng, dims):
        prob = mixed_problem(rng, dims)
        n = dims[0] * dims[1]
        y = rng.standard_normal(prob.num_constraints)
        want = float(np.dot(prob._rhs, y))
        for block, objective in enumerate(prob._objective):
            stack = _BlockOperator(prob, block).dense().reshape(-1, n, n)
            slack = objective - np.einsum("i,iab->ab", y, stack)
            want += min(0.0, float(np.linalg.eigvalsh(slack)[0]))
        assert abs(dual_bound(prob, y) - want) <= 1e-12 * abs(want)

    def test_dual_bound_and_verify_build_no_sparse_matrix(self, monkeypatch):
        prob = ppt_problem((2, 2))
        prob.set_objective(0, np.diag([0.1, -0.3, 0.2, 0.5]))
        sol = sdp_solve(prob)
        assert sol.status == "optimal"

        def refuse(*args, **kwargs):
            raise AssertionError("a sparse matrix was built")

        monkeypatch.setattr(scipy.sparse, "csr_matrix", refuse)
        assert dual_bound(prob, sol.y) == pytest.approx(sol.value, abs=1e-7)
        assert _verify(prob, sol)


def first_schur(prob):
    """The symmetrized Schur matrix at ``X_j = S_j^-1 = I``, on which the
    solver's first iteration decides the rows' rank and consistency."""
    ops = [_BlockOperator(prob, j) for j in range(len(prob.block_dims))]
    eyes = [np.eye(n) for n in prob.block_dims]
    acc = sdp._SchurWorkspace(ops).assemble(eyes, eyes)
    return (acc + acc.T) / 2.0


class TestRankPreflight:
    def test_duplicated_consistent_equality_is_solved(self, rng):
        c = herm(rng, 3)
        prob = SdpProblem([3])
        prob.set_objective(0, c)
        prob.add_equality({0: np.eye(3)}, 1.0)
        prob.add_equality({0: np.eye(3)}, 1.0)
        # the repeated row fails the rank test, so the least-squares
        # consistency test decides
        assert not _full_row_rank(first_schur(prob))
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.value - np.linalg.eigvalsh(c)[0]) < 1e-7

    def test_independent_rows_pass_the_rank_test(self):
        prob = ppt_problem((2, 3))
        assert _full_row_rank(first_schur(prob))

    def test_rank_test_factors_in_place(self):
        gram = np.asfortranarray(first_schur(ppt_problem((4, 5))))
        tracemalloc.start()
        try:
            assert _full_row_rank(gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gram.nbytes / 2

    def test_first_schur_matrix_is_the_gram_matrix(self, rng):
        prob = mixed_problem(rng, (2, 3))
        dense = [_BlockOperator(prob, j).dense() for j in range(3)]
        want = sum(np.real(c @ c.conj().T) for c in dense)
        assert np.max(np.abs(first_schur(prob) - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("rhs, status", [(1.0, "optimal"), (2.0, "infeasible")])
    def test_repeated_trace_row_of_an_operator_equation(self, rng, rhs, status):
        # the trace row's six entries fold back from three pair rows
        prob = ppt_problem((2, 3))
        prob.set_objective(0, herm(rng, 6))
        plain = sdp_solve(prob)
        prob.add_equality({0: np.eye(6)}, rhs)
        assert not _full_row_rank(first_schur(prob))
        sol = sdp_solve(prob)
        assert sol.status == status
        if status == "optimal":
            assert plain.status == "optimal"
            assert abs(sol.value - plain.value) <= 1e-7
        else:
            assert sol.iterations == 0


class TestVerify:
    @pytest.fixture
    def solved(self, rng):
        prob = SdpProblem([3, 3])
        prob.set_objective(0, herm(rng, 3))
        prob.set_objective(1, herm(rng, 3))
        prob.add_equality({0: np.eye(3)}, 1.0)
        prob.add_equality({1: np.eye(3)}, 2.0)
        prob.add_equality({0: herm(rng, 3), 1: herm(rng, 3)}, 0.1)
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        return prob, sol

    def test_accepts_the_solver_solution(self, solved):
        assert _verify(*solved)

    def test_refuses_a_block_with_a_negative_eigenvalue(self, solved):
        prob, sol = solved
        w, v = np.linalg.eigh(sol.blocks[1])
        w[0] = -1e-3
        bad = (sol.blocks[0], (v * w) @ v.conj().T)
        assert not _verify(prob, dataclasses.replace(sol, blocks=bad))

    def test_refuses_a_negative_dual_slack(self, solved):
        prob, sol = solved
        bad = (sol.dual_blocks[0] - 1e-3 * np.eye(3), sol.dual_blocks[1])
        assert not _verify(prob, dataclasses.replace(sol, dual_blocks=bad))

    def test_refuses_a_perturbed_multiplier(self, solved):
        prob, sol = solved
        y = sol.y.copy()
        y[2] += 1e-4
        assert not _verify(prob, dataclasses.replace(sol, y=y))

    def test_solver_withholds_optimal_when_the_recheck_fails(self, monkeypatch):
        prob = SdpProblem([2])
        prob.set_objective(0, np.diag([1.0, 2.0]))
        prob.add_equality({0: np.eye(2)}, 1.0)
        monkeypatch.setattr(sdp, "_verify", lambda *args: False)
        assert sdp_solve(prob).status == "max-iterations"


class TestEigenFactorization:
    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_max_step_is_the_largest_step_that_stays_semidefinite(self, rng, n):
        for _ in range(5):
            mat, direction = positive(rng, n), herm(rng, n)
            # a direction with a negative eigenvalue, so the step is finite
            direction -= max(0.0, np.linalg.eigvalsh(direction)[0] + 0.5) * np.eye(n)
            step = _max_step(np.linalg.eigh(mat), direction)
            assert np.linalg.eigvalsh(mat + step * (1.0 - 1e-10) * direction)[0] >= 0.0
            assert np.linalg.eigvalsh(mat + step * (1.0 + 1e-10) * direction)[0] < 0.0

    def test_max_step_caps_a_semidefinite_direction(self, rng):
        eig = np.linalg.eigh(positive(rng, 3))
        assert _max_step(eig, positive(rng, 3)) == 10.0
        assert _max_step(eig, np.zeros((3, 3))) == 10.0

    def test_eigen_blocks_refuse_a_block_off_the_interior(self, rng, monkeypatch):
        mat = positive(rng, 3)
        w, v = np.linalg.eigh(mat)
        assert all(np.array_equal(got, want)
                   for got, want in zip(_eigen_blocks([mat])[0], (w, v)))
        singular = (v * np.array([0.0, 1.0, 2.0])) @ v.conj().T
        assert _eigen_blocks([mat, singular - 1e-12 * np.eye(3)]) is None
        assert _eigen_blocks([mat, -mat]) is None
        assert _eigen_blocks([mat, np.full((3, 3), np.nan)]) is None

        def fails(mat):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(sdp.np.linalg, "eigh", fails)
        assert _eigen_blocks([mat]) is None

    def test_failed_schur_factorization_ends_at_the_best_iterate(self, rng, monkeypatch):
        prob = ppt_problem((2, 2))
        prob.set_objective(0, herm(rng, 4))
        plain = sdp_solve(prob)
        assert plain.status == "optimal"
        cholesky, calls = sdp._cholesky, []

        def fails_on_the_sixth_call(mat):
            calls.append(None)
            return None if len(calls) == 6 else cholesky(mat)

        monkeypatch.setattr(sdp, "_cholesky", fails_on_the_sixth_call)
        sol = sdp_solve(prob)
        assert sol.iterations == 5
        assert dual_bound(prob, sol.y) <= plain.value

    def test_block_off_the_interior_ends_at_the_best_iterate(self, rng, monkeypatch):
        prob = ppt_problem((2, 2))
        prob.set_objective(0, herm(rng, 4))
        plain = sdp_solve(prob)
        assert plain.status == "optimal"
        eigen_blocks, calls = sdp._eigen_blocks, []

        def off_on_the_sixth_call(mats):
            calls.append(None)
            return None if len(calls) == 6 else eigen_blocks(mats)

        monkeypatch.setattr(sdp, "_eigen_blocks", off_on_the_sixth_call)
        sol = sdp_solve(prob)
        assert sol.iterations == 5
        assert dual_bound(prob, sol.y) <= plain.value


class TestSideGroups:
    """The blocks of one side are one stack: one eigendecomposition of all
    X and S blocks of a side group per iteration, one step-length call for
    its primal and dual steps."""

    @staticmethod
    def two_side_problem(rng, order):
        """Random objectives, three equalities met at ``I / 14`` and the trace
        row, on blocks of sides 4, 6 and 4 placed in ``order``."""
        sides = (4, 6, 4)
        objectives = [herm(rng, n) for n in sides]
        rows = [[herm(rng, n) for n in sides] for _ in range(3)]
        prob = SdpProblem([sides[j] for j in order])
        for slot, j in enumerate(order):
            prob.set_objective(slot, objectives[j])
        for row in rows:
            prob.add_equality({slot: row[j] for slot, j in enumerate(order)},
                              sum(float(np.trace(a).real) for a in row) / 14.0)
        prob.add_equality({slot: np.eye(sides[j]) for slot, j in enumerate(order)}, 1.0)
        return prob

    def test_two_side_problem_is_certified(self, rng):
        prob = self.two_side_problem(rng, (0, 1, 2))
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        bound = dual_bound(prob, sol.y)
        assert bound <= sol.value <= bound + sol.gap + 1e-9
        assert [x.shape for x in sol.blocks] == [(4, 4), (6, 6), (4, 4)]
        assert [s.shape for s in sol.dual_blocks] == [(4, 4), (6, 6), (4, 4)]

    def test_block_order_does_not_move_the_optimum(self):
        first = sdp_solve(self.two_side_problem(np.random.default_rng(3), (0, 1, 2)))
        moved = sdp_solve(self.two_side_problem(np.random.default_rng(3), (1, 2, 0)))
        assert first.status == moved.status == "optimal"
        assert abs(first.value - moved.value) <= first.gap + moved.gap + 1e-9
        for x, y in zip(first.blocks, (moved.blocks[2], moved.blocks[0], moved.blocks[1])):
            assert np.linalg.norm(x - y) <= 1e-4

    def test_one_eigendecomposition_per_iteration(self, rng, monkeypatch):
        prob = ppt_problem((2, 3))
        prob.set_objective(0, herm(rng, 6))
        eigen_blocks, eigh, calls, shapes = sdp._eigen_blocks, np.linalg.eigh, [], []

        def counting_blocks(stacks):
            calls.append(None)
            return eigen_blocks(stacks)

        def counting_eigh(mats):
            shapes.append(np.shape(mats))
            return eigh(mats)

        monkeypatch.setattr(sdp, "_eigen_blocks", counting_blocks)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        assert len(calls) == sol.iterations
        assert shapes == [(2, 2, 6, 6)] * sol.iterations

    def test_max_step_is_the_least_over_the_block_axis(self, rng):
        mats = np.array([[positive(rng, 3) for _ in range(4)] for _ in range(2)])
        dirs = np.array([[herm(rng, 3) for _ in range(4)] for _ in range(2)])
        steps = _max_step(np.linalg.eigh(mats), dirs)
        assert steps.shape == (2,)
        for got, side_mats, side_dirs in zip(steps, mats, dirs):
            want = min(_max_step(np.linalg.eigh(m), d) for m, d in zip(side_mats, side_dirs))
            assert got == pytest.approx(want, rel=1e-12)
            assert _max_step(np.linalg.eigh(side_mats), side_dirs) == pytest.approx(want, rel=1e-12)
