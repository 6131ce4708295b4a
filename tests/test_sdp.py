"""Interior-point SDP solver: known optima, oracle cross-checks, statuses."""

import dataclasses

import numpy as np
import pytest

from entmeas import ValidationError, sdp
from entmeas.sdp import (
    SdpProblem,
    _BlockOperator,
    _full_row_rank,
    _verify,
    sdp_solve,
)
from entmeas.variational import _add_operator_equation
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
    stack = np.array([row.get(block, np.zeros((n, n))) for row in problem._rows])
    return np.einsum("iab,bc,kcd,da->ik", stack, x, stack, sinv).real


def ppt_problem(dims):
    n = dims[0] * dims[1]
    prob = SdpProblem((n, n))
    _add_operator_equation(prob, {0: (1.0, True), 1: (-1.0, False)}, None, dims)
    prob.add_equality({0: np.eye(n)}, 1.0)
    return prob


class TestSparseSchur:
    def test_matches_dense_build_on_random_constraints(self, rng):
        n = 4
        prob = SdpProblem([n, n])
        for _ in range(9):
            prob.add_equality({0: herm(rng, n), 1: herm(rng, n)}, 0.0)
        prob.add_equality({1: herm(rng, n)}, 0.0)
        for block in (0, 1):
            x, sinv = positive(rng, n), positive(rng, n)
            got = _BlockOperator(prob, block).schur(x, sinv)
            ref = dense_schur(prob, block, x, sinv)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_matches_dense_build_on_operator_equations(self, rng, dims):
        prob = ppt_problem(dims)
        n = dims[0] * dims[1]
        for block in (0, 1):
            x, sinv = positive(rng, n), positive(rng, n)
            got = _BlockOperator(prob, block).schur(x, sinv)
            ref = dense_schur(prob, block, x, sinv)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestRankPreflight:
    def test_duplicated_consistent_equality_is_solved(self, rng):
        c = herm(rng, 3)
        prob = SdpProblem([3])
        prob.set_objective(0, c)
        prob.add_equality({0: np.eye(3)}, 1.0)
        prob.add_equality({0: np.eye(3)}, 1.0)
        # the repeated row fails the rank test, so the least-squares
        # consistency test decides
        assert not _full_row_rank([_BlockOperator(prob, 0)])
        sol = sdp_solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.value - np.linalg.eigvalsh(c)[0]) < 1e-7

    def test_independent_rows_pass_the_rank_test(self):
        prob = ppt_problem((2, 3))
        assert _full_row_rank([_BlockOperator(prob, j) for j in (0, 1)])


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
