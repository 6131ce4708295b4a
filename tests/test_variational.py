"""Tests for the optimization-based measures."""

import dataclasses
import math

import numpy as np
import pytest

from entmeas import (
    DensityOperator,
    PureState,
    ValidationError,
    ghz_state,
    max_entangled,
    mutual_information,
    partial_trace,
    partial_transpose,
    von_neumann_entropy,
    w_state,
    werner_state,
)
from entmeas.closed_form import binary_entropy, eof_two_qubit, negativity
from entmeas.variational import (
    BaseNormResult,
    ConeSpec,
    SolverConfig,
    base_norm,
    best_separable_approximation,
    eof_convex_roof,
    geometric_measure,
    minimize_over_ppt_states,
    rains_bound,
    relative_entropy_of_entanglement,
    robustness,
    squashed_eval,
    werner_regularized_ree,
    witness_violation,
)
from entmeas import variational
from conftest import rand_unitary

BELL = max_entangled(2).to_density()
SEPARABLE = DensityOperator(np.diag([0.5, 0.2, 0.2, 0.1]), (2, 2))
FAST = SolverConfig(max_iterations=200, gap_tolerance=1e-6, restarts=4, seed=0)


def rand_rho(rng, n=4, dims=(2, 2), rank=None):
    k = rank or n
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    mat = g @ g.conj().T
    return DensityOperator(mat / np.real(np.trace(mat)), dims)


def pt_matrix(mat, dims=(2, 2)):
    da, db = dims
    n = da * db
    return mat.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(n, n)


def werner(q):
    return DensityOperator((1 - q) * np.eye(4) / 4 + q * BELL.matrix, (2, 2))


class TestConeAndConfig:
    def test_cone_kinds(self):
        for kind in ("PPT-operators", "separable-outer", "all-PSD"):
            assert ConeSpec(kind).normalization == 1.0
        assert ConeSpec("negated-PSD", normalization=-1.0).kind == "negated-PSD"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="cone-kind"):
            ConeSpec("SEP")

    def test_rejects_inconsistent_normalization(self):
        with pytest.raises(ValidationError, match="cone-normalization"):
            ConeSpec("all-PSD", normalization=-1.0)
        with pytest.raises(ValidationError, match="cone-normalization"):
            ConeSpec("negated-PSD", normalization=1.0)

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="solver-config"):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValidationError, match="solver-config"):
            SolverConfig(gap_tolerance=0.0)

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 2.0), ("restarts", 1.5), ("restarts", True), ("restarts", "3"),
        ("seed", -1), ("seed", 0.0), ("gap_tolerance", math.inf),
        ("gap_tolerance", math.nan), ("gap_tolerance", "1e-6"), ("gap_tolerance", True)])
    def test_config_refuses_non_integers_and_bad_gaps(self, field, value):
        with pytest.raises(ValidationError, match="solver-config"):
            SolverConfig(**{field: value})

    def test_config_accepts_numpy_numbers(self):
        cfg = SolverConfig(max_iterations=np.int64(5), restarts=np.int32(2),
                           seed=np.uint8(3), gap_tolerance=np.float32(1e-3))
        assert cfg.seed == 3


class TestMinimizeOverPptStates:
    def test_matches_cvxpy_oracle(self, rng):
        cvxpy = pytest.importorskip("cvxpy")
        perm = np.zeros((16, 16))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        perm[(i * 2 + j) * 4 + k * 2 + l,
                             (i * 2 + l) * 4 + k * 2 + j] = 1.0
        for _ in range(3):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            g = (g + g.conj().T) / 2
            bound, sigma = minimize_over_ppt_states(g, (2, 2))
            x = cvxpy.Variable((4, 4), hermitian=True)
            xt = cvxpy.reshape(perm @ cvxpy.vec(x, order="C"), (4, 4), order="C")
            prob = cvxpy.Problem(
                cvxpy.Minimize(cvxpy.real(cvxpy.trace(g @ x))),
                [x >> 0, xt >> 0, cvxpy.real(cvxpy.trace(x)) == 1])
            prob.solve(solver=cvxpy.SCS, eps=1e-9)
            assert bound <= prob.value + 1e-7
            attained = float(np.real(np.vdot(sigma, g)))
            assert attained >= prob.value - 1e-6
            assert attained - bound < 1e-6

    def test_minimizer_is_a_ppt_state(self, rng):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        g = (g + g.conj().T) / 2
        bound, sigma = minimize_over_ppt_states(g, (2, 3))
        assert np.real(np.trace(sigma)) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(sigma)[0] >= -1e-10
        assert np.linalg.eigvalsh(pt_matrix(sigma, (2, 3)))[0] >= -1e-8

    def test_product_eigenvector_shortcut(self):
        g = np.diag([-1.0, 0.0, 1.0, 2.0])
        bound, sigma = minimize_over_ppt_states(g, (2, 2))
        assert bound == pytest.approx(-1.0, abs=1e-12)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(sigma, expected, atol=1e-12)

    def test_refuses_non_finite_objective(self):
        g = np.eye(4, dtype=complex)
        g[1, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            minimize_over_ppt_states(g, (2, 2))

    def test_rejects_one_party_dims(self):
        with pytest.raises(ValidationError, match="bipartite"):
            minimize_over_ppt_states(np.eye(4), (4,))

    def test_rejects_three_party_dims(self):
        with pytest.raises(ValidationError, match="bipartite"):
            minimize_over_ppt_states(np.eye(4), (2, 2, 1))


class TestRelativeEntropyOfEntanglement:
    def test_bell_state(self):
        res = relative_entropy_of_entanglement(BELL, config=FAST)
        assert res.value == pytest.approx(1.0, abs=1e-3)
        assert res.status == "converged"
        assert res.gap <= 1e-6

    def test_separable_input_is_zero(self):
        res = relative_entropy_of_entanglement(SEPARABLE, config=FAST)
        assert res.value <= 1e-6
        assert res.status == "converged"

    def test_bell_correlated_block_equals_hashing(self):
        mat = np.zeros((4, 4))
        mat[0, 0] = mat[3, 3] = 0.5
        mat[0, 3] = mat[3, 0] = 0.3
        rho = DensityOperator(mat, (2, 2))
        res = relative_entropy_of_entanglement(rho, config=FAST)
        hashing = 1.0 - binary_entropy(0.8)
        assert hashing == pytest.approx(0.27807, abs=5e-6)
        assert res.value == pytest.approx(hashing, abs=1e-3)

    def test_conditional_entropy_lower_bound(self, rng):
        for _ in range(5):
            rho = rand_rho(rng)
            res = relative_entropy_of_entanglement(rho, config=FAST)
            s_a = von_neumann_entropy(partial_trace(rho, 0))
            s_b = von_neumann_entropy(partial_trace(rho, 1))
            s_ab = von_neumann_entropy(rho)
            assert res.value >= max(s_a, s_b) - s_ab - 1e-3

    def test_objective_trace_is_monotone(self):
        res = relative_entropy_of_entanglement(
            werner(0.9), config=SolverConfig(max_iterations=40,
                                             gap_tolerance=1e-12))
        trace = res.witness_payload["objective_trace"]
        assert len(trace) >= 2
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-12

    def test_closest_state_is_ppt(self):
        res = relative_entropy_of_entanglement(BELL, config=FAST)
        sigma = res.witness_payload["closest_state"]
        assert np.linalg.eigvalsh(pt_matrix(sigma))[0] >= -1e-8
        assert res.witness_payload["separable_set"] == "exact"

    def test_value_upper_bounds_certified_minimum(self):
        res = relative_entropy_of_entanglement(werner(0.7), config=FAST)
        assert res.value >= res.witness_payload["lower_bound"] - 1e-12
        assert res.gap == pytest.approx(
            res.value - res.witness_payload["lower_bound"], abs=1e-12)

    def test_default_config_certifies_random_entangled_states(self):
        rng = np.random.default_rng(2005)
        states = []
        while len(states) < 2:
            rho = rand_rho(rng)
            if np.linalg.eigvalsh(pt_matrix(rho.matrix))[0] < -0.01:
                states.append(rho)
        for rho in states:
            res = relative_entropy_of_entanglement(rho)
            assert res.status == "converged"
            assert res.gap <= 1e-6

    def test_certificate_brackets_bell_diagonal_closed_form(self):
        rng = np.random.default_rng(11)
        bell_basis = np.array([[1, 0, 0, 1], [1, 0, 0, -1],
                               [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)
        for lam in ((0.7, 0.15, 0.1, 0.05), (0.85, 0.05, 0.05, 0.05)):
            mat = (bell_basis.T * np.array(lam)) @ bell_basis
            u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
            res = relative_entropy_of_entanglement(
                DensityOperator(u @ mat @ u.conj().T, (2, 2)))
            closed = 1.0 - binary_entropy(max(lam))
            assert res.value - res.gap - 1e-9 <= closed <= res.value + 1e-9

    def test_certificate_brackets_pure_state_entropy(self):
        rng = np.random.default_rng(12)
        for p in (0.75, 0.6):
            u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
            psi = PureState(u @ np.sqrt([p, 0.0, 0.0, 1.0 - p]), (2, 2))
            res = relative_entropy_of_entanglement(psi)
            closed = binary_entropy(p)
            assert res.value - res.gap - 1e-9 <= closed <= res.value + 1e-9

    def test_default_config_certifies_larger_full_rank_states(self):
        rng = np.random.default_rng(2023)
        for dims in ((3, 3), (2, 4), (3, 4)):
            rho = rand_rho(rng, dims[0] * dims[1], dims)
            while np.linalg.eigvalsh(pt_matrix(rho.matrix, dims))[0] >= -1e-6:
                rho = rand_rho(rng, dims[0] * dims[1], dims)
            res = relative_entropy_of_entanglement(rho)
            assert np.linalg.eigvalsh(rho.matrix)[0] > 0.0
            assert res.status == "converged"
            assert res.gap <= 1e-6

    def test_rejects_unknown_set_and_large_dims(self):
        big = DensityOperator(np.eye(49) / 49, (7, 7))
        with pytest.raises(ValidationError, match="dimension-limit"):
            relative_entropy_of_entanglement(big)


class TestWernerRegularizedRee:
    def test_known_point_values(self):
        assert werner_regularized_ree(3, 1.0) == pytest.approx(
            math.log2(5.0 / 3.0), abs=1e-12)
        assert werner_regularized_ree(3, 0.6) == pytest.approx(
            1.0 - binary_entropy(0.6), abs=1e-12)
        assert werner_regularized_ree(3, 0.6) == pytest.approx(0.02905, abs=5e-6)

    def test_vanishes_at_separable_boundary(self):
        assert werner_regularized_ree(4, 0.5 + 1e-9) < 1e-7

    def test_branch_continuity(self):
        for d in range(2, 7):
            split = (d + 2.0) / (2.0 * d)
            if not 0.5 < split < 1.0:
                continue
            below = werner_regularized_ree(d, split - 1e-13)
            above = werner_regularized_ree(d, split + 1e-13)
            assert abs(above - below) <= 1e-12

    def test_domain_validation(self):
        with pytest.raises(ValidationError, match="werner-domain"):
            werner_regularized_ree(1, 0.9)
        with pytest.raises(ValidationError, match="werner-domain"):
            werner_regularized_ree(3, 0.5)
        with pytest.raises(ValidationError, match="werner-domain"):
            werner_regularized_ree(3, 1.1)

    def test_dimension_past_the_float_range(self):
        # log2((d + 2) / d) and log2((d - 2) / (d + 2)) both tend to 0
        assert werner_regularized_ree(10**400, 0.9) == 0.0
        assert werner_regularized_ree(10**6, 0.9) == pytest.approx(
            math.log2(1 + 2e-6) + 0.1 * math.log2((1 - 2e-6) / (1 + 2e-6)), rel=1e-9)


class TestRobustness:
    def test_bell_global_robustness(self):
        # directional bound: the most negative PT eigenvalue of the Bell
        # state is -1/2 and no state's partial transpose exceeds 1/2 along
        # that eigenvector, so t >= 1; the singlet as noise attains it
        pt_bell = pt_matrix(BELL.matrix)
        eigs, vecs = np.linalg.eigh(pt_bell)
        eta = np.outer(vecs[:, 0], vecs[:, 0].conj())
        ceiling = np.linalg.eigvalsh(pt_matrix(eta))[-1]
        directional = -eigs[0] / ceiling
        assert directional == pytest.approx(1.0, abs=1e-12)
        res = robustness(BELL, "global")
        assert res.value == pytest.approx(directional, abs=1e-6)
        assert res.status == "converged"

    def test_bell_separable_noise_robustness(self):
        res = robustness(BELL, "separable")
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_separable_input_is_zero(self):
        assert robustness(SEPARABLE, "global").value <= 1e-8
        assert robustness(SEPARABLE, "separable").value <= 1e-8

    def test_noise_state_washes_out_entanglement(self):
        res = robustness(BELL, "global")
        noise = res.witness_payload["noise_state"]
        mixed = (BELL.matrix + res.value * noise) / (1.0 + res.value)
        assert np.linalg.eigvalsh(pt_matrix(mixed))[0] >= -1e-7

    def test_against_cvxpy_oracle(self, rng):
        cvxpy = pytest.importorskip("cvxpy")
        perm = np.zeros((16, 16))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        perm[(i * 2 + j) * 4 + k * 2 + l,
                             (i * 2 + l) * 4 + k * 2 + j] = 1.0

        def pt_expr(x):
            return cvxpy.reshape(perm @ cvxpy.vec(x, order="C"), (4, 4), order="C")

        for _ in range(2):
            rho = rand_rho(rng)
            delta = cvxpy.Variable((4, 4), hermitian=True)
            prob = cvxpy.Problem(
                cvxpy.Minimize(cvxpy.real(cvxpy.trace(delta))),
                [delta >> 0, pt_expr(rho.matrix + delta) >> 0])
            prob.solve(solver=cvxpy.SCS, eps=1e-9)
            res = robustness(rho, "global")
            assert res.value == pytest.approx(prob.value, abs=1e-6)

    def test_pure_states_match_vidal_tarrach(self):
        # (sum_i sqrt(p_i))^2 - 1 for Schmidt probabilities p_i, with
        # separable noise (Vidal & Tarrach, PRA 59, 141 (1999)) and with
        # any noise (Steiner, PRA 67, 054305 (2003))
        rng = np.random.default_rng(41)
        for dims in ((2, 2), (2, 3)):
            n = dims[0] * dims[1]
            vec = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi = PureState(vec / np.linalg.norm(vec), dims)
            schmidt = np.linalg.svd(psi.vector.reshape(dims), compute_uv=False)
            closed = float(schmidt.sum()) ** 2 - 1.0
            for noise in ("separable", "global"):
                res = robustness(psi, noise)
                assert abs(res.value - closed) <= res.gap + 1e-9

    def test_gap_above_tolerance_is_best_effort(self):
        res = robustness(BELL, "global", SolverConfig(gap_tolerance=1e-12))
        assert res.gap > 1e-12
        assert res.status == "best_effort"

    def test_rejects_unknown_noise(self):
        with pytest.raises(ValidationError, match="noise-kind"):
            robustness(BELL, "thermal")

    def test_rejects_large_dims(self):
        big = DensityOperator(np.eye(42) / 42, (6, 7))
        with pytest.raises(ValidationError, match="dimension-limit"):
            robustness(big)


def noise_block_robustness(rho, noise):
    """Robustness with the noise as a primal block, the reference for the
    coordinate form: blocks noise, (noise^Gamma), mixture^Gamma, and one
    operator equation per coupling; returns its value and gap."""
    dims, n = rho.dims, rho.dim
    prob = variational.SdpProblem((n,) * (2 if noise == "global" else 3))
    prob.set_objective(0, np.eye(n))
    if noise == "separable":
        prob.add_operator_equation({0: (1.0, (1,)), 1: (-1.0, ())}, None, dims)
    last = len(prob.block_dims) - 1
    prob.add_operator_equation({0: (1.0, (1,)), last: (-1.0, ())},
                               -partial_transpose(rho.matrix, 1, dims), dims)
    sol = variational.sdp_solve(prob)
    assert sol.status == "optimal"
    return max(0.0, sol.value), sol.gap


ORACLE_CASES = [(dims, rank, noise)
                for dims in ((2, 2), (2, 3), (3, 3))
                for rank in (1, 2, None)
                for noise in ("global", "separable")]


class TestRobustnessCoordinateForm:
    @pytest.mark.parametrize("dims,rank,noise", ORACLE_CASES)
    def test_agrees_with_the_noise_block_form(self, dims, rank, noise):
        rng = np.random.default_rng(11 + dims[0] * dims[1] + (rank or 0))
        rho = rand_rho(rng, dims[0] * dims[1], dims, rank)
        res = robustness(rho, noise)
        assert res.status == "converged"
        value, gap = noise_block_robustness(rho, noise)
        assert abs(res.value - value) <= res.gap + gap + 1e-9

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_separable_noise_state_is_ppt_and_washes_out(self, dims):
        rng = np.random.default_rng(23)
        for rank in (1, 2, None):
            rho = rand_rho(rng, dims[0] * dims[1], dims, rank)
            res = robustness(rho, "separable")
            noise = res.witness_payload["noise_state"]
            assert np.real(np.trace(noise)) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(noise)[0] >= -1e-12
            assert np.linalg.eigvalsh(pt_matrix(noise, dims))[0] >= -1e-7
            mixed = (rho.matrix + res.value * noise) / (1.0 + res.value)
            assert np.linalg.eigvalsh(pt_matrix(mixed, dims))[0] >= -1e-7

    @pytest.mark.parametrize("noise", ["global", "separable"])
    def test_solves_one_problem_of_n_squared_rows(self, monkeypatch, noise):
        problems, solve = [], variational.sdp_solve

        def recording(problem, **kwargs):
            problems.append(problem)
            return solve(problem, **kwargs)

        monkeypatch.setattr(variational, "sdp_solve", recording)
        rho = rand_rho(np.random.default_rng(5), 6, (2, 3))
        robustness(rho, noise)
        assert [p.num_constraints for p in problems] == [36]


class TestBaseNorm:
    PPT = ConeSpec("PPT-operators")

    def test_ppt_pair_equals_negativity_on_bell(self):
        res = base_norm(BELL, self.PPT, self.PPT)
        assert isinstance(res, BaseNormResult)
        assert res.r_value == pytest.approx(0.5, abs=1e-6)
        assert res.norm_value == pytest.approx(2.0, abs=1e-6)

    def test_ppt_pair_equals_negativity_on_random_states(self, rng):
        for _ in range(10):
            rho = rand_rho(rng)
            res = base_norm(rho, self.PPT, self.PPT)
            assert abs(res.r_value - negativity(rho)) < 1e-6

    def test_ppt_input_has_zero_r_and_unit_norm(self):
        res = base_norm(SEPARABLE, self.PPT, self.PPT)
        assert res.r_value <= 1e-7
        assert res.norm_value == pytest.approx(1.0, abs=1e-6)

    def test_decomposition_reconstructs_input(self, rng):
        rho = rand_rho(rng)
        res = base_norm(rho, self.PPT, self.PPT)
        recon = res.a * res.omega - (res.b * res.delta if res.delta is not None
                                     else 0.0)
        assert np.linalg.norm(recon - rho.matrix) < 1e-6
        assert np.real(np.trace(res.omega)) == pytest.approx(1.0, abs=1e-7)
        assert np.linalg.eigvalsh(pt_matrix(res.omega))[0] >= -1e-7

    def test_separable_vs_psd_matches_global_robustness(self):
        res = base_norm(BELL, ConeSpec("separable-outer"), ConeSpec("all-PSD"))
        ref = robustness(BELL, "global")
        assert res.r_value == pytest.approx(ref.value, abs=1e-6)
        assert res.r_value == pytest.approx(1.0, abs=1e-6)

    def test_negated_psd_matches_bsa_weight(self):
        res = base_norm(BELL, ConeSpec("separable-outer"),
                        ConeSpec("negated-PSD", normalization=-1.0))
        assert res.r_value == pytest.approx(1.0, abs=1e-6)

    def test_raw_array_requires_dims(self):
        with pytest.raises(ValidationError, match="dims-required"):
            base_norm(np.eye(4) / 4, self.PPT, self.PPT)
        res = base_norm(np.eye(4) / 4, self.PPT, self.PPT, dims=(2, 2))
        assert res.r_value <= 1e-7

    def test_raw_array_must_be_hermitian(self):
        h = np.eye(4) / 4
        h[0, 1] = 0.3
        with pytest.raises(ValidationError, match="hermiticity"):
            base_norm(h, self.PPT, self.PPT, dims=(2, 2))

    def test_raw_array_must_be_finite(self):
        h = np.eye(4) / 4
        h[2, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            base_norm(h, self.PPT, self.PPT, dims=(2, 2))

    def test_raw_array_dimension_limit(self):
        with pytest.raises(ValidationError, match="dimension-limit"):
            base_norm(np.eye(42) / 42, self.PPT, self.PPT, dims=(6, 7))

    def test_raw_array_rejects_negative_dims(self):
        with pytest.raises(ValidationError, match="dims"):
            base_norm(np.eye(4) / 4, self.PPT, self.PPT, dims=(-2, -2))

    def test_raw_array_rejects_three_party_dims(self):
        with pytest.raises(ValidationError, match="bipartite"):
            base_norm(np.eye(4) / 4, self.PPT, self.PPT, dims=(2, 2, 1))

    def test_ppt_pair_takes_one_solve(self, monkeypatch):
        problems = record_problems(monkeypatch)
        base_norm(rand_rho(np.random.default_rng(3)), self.PPT, self.PPT)
        assert [p.num_constraints for p in problems] == [16]

    def test_negative_k_pair_has_closed_form(self):
        # h = X + R with X, R >= 0 and b = tr R / 2: the least b is 0 and
        # the least a + b = tr h - tr R / 2 is 1/2, at R = h
        res = base_norm(werner(0.8), ConeSpec("all-PSD"),
                        ConeSpec("negated-PSD", normalization=-2.0))
        assert res.r_value == pytest.approx(0.0, abs=1e-8)
        assert res.norm_value == pytest.approx(0.5, abs=1e-8)


def record_problems(monkeypatch):
    """Patch ``variational.sdp_solve`` to record every problem it solves."""
    problems, solve = [], variational.sdp_solve

    def recording(problem, **kwargs):
        problems.append(problem)
        return solve(problem, **kwargs)

    monkeypatch.setattr(variational, "sdp_solve", recording)
    return problems


def edge_form_bsa(rho):
    """Best separable approximation with the PPT part A as a primal block,
    the reference for the coordinate form: blocks A, A^Gamma and rho - A,
    and one operator equation per coupling; returns its weight and gap."""
    dims, n = rho.dims, rho.dim
    prob = variational.SdpProblem((n, n, n))
    prob.set_objective(0, -np.eye(n))
    prob.add_operator_equation({0: (1.0, (1,)), 1: (-1.0, ())}, None, dims)
    prob.add_operator_equation({0: (1.0, ()), 2: (1.0, ())}, rho.matrix, dims)
    sol = variational.sdp_solve(prob)
    assert sol.status == "optimal"
    return min(1.0, max(0.0, 1.0 + sol.value)), sol.gap


class TestBsaCoordinateForm:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("rank", [1, None])
    def test_agrees_with_the_edge_form(self, dims, rank):
        rng = np.random.default_rng(31 + dims[0] * dims[1] + (rank or 0))
        rho = rand_rho(rng, dims[0] * dims[1], dims, rank)
        res = best_separable_approximation(rho)
        assert res.status == "converged"
        weight, gap = edge_form_bsa(rho)
        assert abs(res.weight - weight) <= res.gap + gap + 1e-9

    def test_solves_one_problem_of_n_squared_rows(self, monkeypatch):
        problems = record_problems(monkeypatch)
        best_separable_approximation(rand_rho(np.random.default_rng(5), 6, (2, 3)))
        assert [p.num_constraints for p in problems] == [36]


class TestBestSeparableApproximation:
    def test_pure_bell_has_no_separable_part(self):
        res = best_separable_approximation(BELL)
        assert res.weight == pytest.approx(1.0, abs=1e-6)

    def test_werner_boundary_weight_vanishes(self):
        res = best_separable_approximation(werner(1.0 / 3.0))
        assert res.weight <= 1e-6

    def test_werner_weight_closed_form(self):
        for q in (0.5, 0.8):
            res = best_separable_approximation(werner(q))
            assert res.weight == pytest.approx((3 * q - 1) / 2, abs=1e-6)

    def test_separable_input_weight_zero(self):
        res = best_separable_approximation(SEPARABLE)
        assert res.weight <= 1e-6

    def test_parts_are_consistent(self, rng):
        rho = rand_rho(rng)
        res = best_separable_approximation(rho)
        assert np.linalg.norm(
            res.separable_part + res.remainder - rho.matrix) < 1e-8
        assert np.linalg.eigvalsh(res.separable_part)[0] >= -1e-7
        assert np.linalg.eigvalsh(pt_matrix(res.separable_part))[0] >= -1e-7
        assert np.linalg.eigvalsh(res.remainder)[0] >= -1e-7
        assert np.real(np.trace(res.remainder)) == pytest.approx(
            res.weight, abs=1e-7)


class TestEofConvexRoof:
    def test_pure_state_gives_entropy(self):
        res = eof_convex_roof(BELL, config=FAST)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.status == "best_effort"

    def test_random_two_qubit_states_match_wootters(self, rng):
        for _ in range(10):
            rho = rand_rho(rng)
            res = eof_convex_roof(rho, config=FAST)
            closed = eof_two_qubit(rho)
            assert res.value <= closed + 1e-2
            assert res.value >= closed - 1e-6

    def test_locally_distinguishable_mixture(self):
        vec = np.zeros(9)
        vec[4] = vec[8] = 1.0 / math.sqrt(2.0)
        mat = 0.5 * np.outer(vec, vec)
        mat[0, 0] = 0.5
        rho = DensityOperator(mat, (3, 3))
        res = eof_convex_roof(rho, config=FAST)
        assert res.value == pytest.approx(0.5, abs=1e-3)

    def test_rejects_small_decompositions_and_large_dims(self):
        with pytest.raises(ValidationError, match="decomposition-size"):
            eof_convex_roof(SEPARABLE, m=2)
        with pytest.raises(ValidationError, match="dimension-limit"):
            eof_convex_roof(DensityOperator(np.eye(36) / 36, (6, 6)))


class TestGeometricMeasure:
    def test_product_state_is_zero(self):
        psi = PureState(np.kron([1.0, 0.0], [0.0, 1.0]), (2, 2))
        res = geometric_measure(psi, config=FAST)
        assert res.value <= 1e-9

    def test_ghz_value(self):
        res = geometric_measure(ghz_state(3), config=FAST)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_w_state_value(self):
        res = geometric_measure(w_state(3), config=SolverConfig(restarts=8))
        assert res.value == pytest.approx(math.log2(9.0 / 4.0), abs=1e-3)

    def test_bipartite_matches_schmidt_oracle(self, rng):
        for _ in range(5):
            vec = rng.normal(size=6) + 1j * rng.normal(size=6)
            vec /= np.linalg.norm(vec)
            psi = PureState(vec, (2, 3))
            res = geometric_measure(psi, config=FAST)
            top = np.linalg.svd(vec.reshape(2, 3), compute_uv=False)[0]
            assert res.value == pytest.approx(-math.log2(top ** 2), abs=1e-6)

    def test_reports_restart_statistics(self):
        res = geometric_measure(ghz_state(3), config=FAST)
        assert res.status == "best_effort"
        assert res.witness_payload["restarts"] == FAST.restarts
        assert 0.0 < res.witness_payload["max_overlap_sq"] <= 1.0

    def test_rejects_density_inputs(self):
        with pytest.raises(ValidationError, match="state-type"):
            geometric_measure(BELL)

    def test_one_party_state_is_zero(self):
        res = geometric_measure(PureState([0.6, 0.8], (2,)))
        assert res.value == 0.0
        assert res.witness_payload["max_overlap_sq"] == 1.0

    def test_a_start_orthogonal_to_the_state_is_replaced(self):
        """At the tie of (|001> + |110>)/sqrt(2) the leading singular vectors
        of the flattenings are |0>, |0>, |0>, orthogonal to the state; the
        sequential start takes their place."""
        vec = np.zeros(8)
        vec[[1, 6]] = 1.0 / math.sqrt(2.0)
        res = geometric_measure(PureState(vec, (2, 2, 2)), config=SolverConfig(restarts=1))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.witness_payload["max_overlap_sq"] == pytest.approx(0.5, abs=1e-12)


class TestRainsBound:
    def test_ppt_input_is_zero(self):
        res = rains_bound(SEPARABLE, config=FAST)
        assert res.value <= 1e-9
        assert res.status == "converged"
        assert res.gap <= 1e-6

    def test_brackets_werner_regularized_ree(self):
        # the Rains bound of a Werner state equals its regularized relative
        # entropy (Audenaert et al., PRL 87, 217902 (2001))
        for p in (0.7, 0.9, 1.0):
            res = rains_bound(werner_state(3, p))
            closed = werner_regularized_ree(3, p)
            assert res.status == "converged"
            assert res.value - res.gap - 1e-9 <= closed <= res.value + 1e-9

    def test_equals_relative_entropy_on_two_qubits(self):
        # on two qubits the Rains bound and the relative entropy of
        # entanglement coincide (Ishizaka, PRA 69, 020301(R) (2004))
        rng = np.random.default_rng(69)
        checked = 0
        while checked < 5:
            rho = rand_rho(rng)
            if np.linalg.eigvalsh(pt_matrix(rho.matrix))[0] >= -1e-3:
                continue
            rb = rains_bound(rho)
            ree = relative_entropy_of_entanglement(rho)
            assert rb.status == ree.status == "converged"
            low = max(rb.value - rb.gap, ree.value - ree.gap)
            assert low <= min(rb.value, ree.value) + 1e-9
            checked += 1

    def test_bell_is_sandwiched_at_one(self):
        res = rains_bound(BELL, config=FAST)
        assert res.value <= 1.0 + 1e-6
        assert res.value >= 1.0 - 1e-3

    def test_never_exceeds_relative_entropy_value(self, rng):
        states = [werner(0.8), rand_rho(rng)]
        for rho in states:
            rb = rains_bound(rho, config=FAST)
            ree = relative_entropy_of_entanglement(rho, config=FAST)
            assert rb.value <= ree.value + 1e-6

    def test_minimizing_state_is_in_the_rains_set(self):
        rng = np.random.default_rng(17)
        for dims in ((2, 2), (2, 3)):
            rho = rand_rho(rng, n=dims[0] * dims[1], dims=dims, rank=2)
            assert np.linalg.eigvalsh(pt_matrix(rho.matrix, dims))[0] < -1e-3
            sigma = rains_bound(rho).witness_payload["minimizing_state"]
            assert np.linalg.eigvalsh(sigma)[0] >= -1e-9
            assert np.abs(np.linalg.eigvalsh(pt_matrix(sigma, dims))).sum() <= 1.0 + 1e-9


    def test_full_rank_5x5_converges(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
        mat = g @ g.conj().T
        res = rains_bound(DensityOperator(mat / np.trace(mat).real, (5, 5)))
        assert res.status == "converged"
        assert res.gap <= 1e-6
        assert res.iterations <= 40


class TestBarrierNewton:
    """The Newton system of ``t f + barrier`` on each measure's own operators."""

    @staticmethod
    def operators(monkeypatch, measure, rho):
        """The block operators the measure's barrier engine runs on."""
        ops = []
        block_operator = variational._BlockOperator

        def spy(prob, block):
            ops.append(block_operator(prob, block))
            return ops[-1]

        monkeypatch.setattr(variational, "_BlockOperator", spy)
        measure(rho, config=SolverConfig(max_iterations=1))
        return ops

    @staticmethod
    def check_derivatives(rho, ops, x, t=3.0):
        def phi(y):
            _, f, barrier = variational._evaluate(rho, [op.adjoint(y) for op in ops])
            return t * f + barrier

        def system(y):
            eigs = variational._evaluate(rho, [op.adjoint(y) for op in ops])[0]
            return variational._newton_system(rho, ops, eigs, t)

        d = np.random.default_rng(5).standard_normal(x.size)
        h = 1e-6
        grad, hess = system(x)
        fd_grad = (phi(x + h * d) - phi(x - h * d)) / (2 * h)
        fd_hess = (system(x + h * d)[0] - system(x - h * d)[0]) / (2 * h)
        assert fd_grad == pytest.approx(grad @ d, rel=1e-6)
        assert np.linalg.norm(fd_hess - hess @ d) <= 1e-6 * np.linalg.norm(hess @ d)

    def test_ree_2x2(self, monkeypatch):
        rng = np.random.default_rng(23)
        rho = rand_rho(rng, rank=2)
        ops = self.operators(monkeypatch, relative_entropy_of_entanglement, rho)
        assert len(ops) == 2
        sigma = 0.7 * np.eye(4) / 4 + 0.3 * rand_rho(rng).matrix
        x = ops[0].apply(sigma)
        assert np.allclose(ops[0].adjoint(x), sigma, atol=1e-14)
        assert np.allclose(ops[1].adjoint(x), pt_matrix(sigma), atol=1e-14)
        self.check_derivatives(rho.matrix, ops, x)

    def test_rains_2x3(self, monkeypatch):
        rng = np.random.default_rng(29)
        dims = (2, 3)
        rho = rand_rho(rng, n=6, dims=dims, rank=2)
        ops = self.operators(monkeypatch, rains_bound, rho)
        assert len(ops) == 3
        s = 0.8 * np.eye(6) / 6 + 0.05 * rand_rho(rng, n=6, dims=dims).matrix
        n = 0.1 * np.eye(6) / 6 + 0.05 * rand_rho(rng, n=6, dims=dims).matrix
        x = ops[0].apply(s) + ops[2].apply(n)
        assert np.allclose(ops[0].adjoint(x), s, atol=1e-14)
        assert np.allclose(ops[1].adjoint(x), pt_matrix(s, dims) + n, atol=1e-14)
        assert np.allclose(ops[2].adjoint(x), n, atol=1e-14)
        assert np.array_equal(ops[0].rows, np.arange(36))
        self.check_derivatives(rho.matrix, ops, x)

    @pytest.mark.parametrize("first_failure", [1, 5, 12])
    def test_failed_factorization_ends_at_the_best_point(self, monkeypatch, first_failure):
        """A Newton system that is not positive definite ends each centering
        at its best point; the certificate still brackets the closed form."""
        cholesky, calls = variational._cholesky, []

        def fails_from_the_kth_call(mat):
            calls.append(None)
            return None if len(calls) >= first_failure else cholesky(mat)

        monkeypatch.setattr(variational, "_cholesky", fails_from_the_kth_call)
        bell_basis = np.array([[1, 0, 0, 1], [1, 0, 0, -1],
                               [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)
        lam = np.array([0.7, 0.15, 0.1, 0.05])
        res = relative_entropy_of_entanglement(
            DensityOperator((bell_basis.T * lam) @ bell_basis, (2, 2)))
        closed = 1.0 - binary_entropy(0.7)
        assert len(calls) >= first_failure
        assert res.status == "best_effort"
        assert res.value - res.gap - 1e-9 <= closed <= res.value + 1e-9

    def test_coordinates_eliminate_each_slack(self):
        """Each certificate table's slack block becomes a sum of the free
        blocks: sigma^Gamma for the PPT set, and sigma^Gamma + N for Rains."""
        assert variational._coordinates(variational._PPT_SET) == [
            {0: (1.0, ()), 1: (1.0, (1,))}]
        assert variational._coordinates(variational._RAINS_SET) == [
            {0: (1.0, ()), 1: (1.0, (1,))}, {2: (1.0, ()), 1: (1.0, ())}]

    @pytest.mark.parametrize("measure, dims", [(relative_entropy_of_entanglement, (3, 3)),
                                               (rains_bound, (2, 3))], ids=["ree", "rains"])
    def test_f_hessian_is_the_daleckii_krein_sum(self, monkeypatch, measure, dims):
        """The f term of the Hessian, ``-(T + T^T)``, against the four-index
        sum ``T_ab = sum_ikj F_ikj rho~_ji B_a,ik B_b,kj`` at a generic sigma
        and at ``sigma = I/n``, where every F entry is a degenerate limit."""
        def first(x, y):
            return 2.0 / (x + y) if math.isclose(x, y, rel_tol=1e-8) else (
                (math.log(x) - math.log(y)) / (x - y))

        def second(*args):
            a, b, c = sorted(args)
            if math.isclose(a, c, rel_tol=1e-8):
                return -0.5 / b ** 2
            return (first(a, b) - first(b, c)) / (a - c)

        rng = np.random.default_rng(31)
        n = dims[0] * dims[1]
        rho = rand_rho(rng, n=n, dims=dims, rank=2).matrix
        ops = self.operators(monkeypatch, measure, DensityOperator(rho, dims))
        eye = np.eye(n) / n
        if measure is rains_bound:  # (sigma, N) = (1.1 I, 1.2 I), then (p^Gamma, p + q)
            p = 0.8 * eye + 0.05 * rand_rho(rng, n=n, dims=dims).matrix
            q = 0.1 * eye + 0.05 * rand_rho(rng, n=n, dims=dims).matrix
            points = [ops[1].apply(1.1 * eye) + ops[2].apply(0.1 * eye),
                      ops[1].apply(p) + ops[2].apply(q)]
        else:
            generic = 0.7 * eye + 0.3 * rand_rho(rng, n=n, dims=dims).matrix
            points = [ops[0].apply(eye), ops[0].apply(generic)]
        a = ops[0].dense().reshape(-1, n, n)
        for x, degenerate in zip(points, (True, False)):
            w, v = np.linalg.eigh(ops[0].adjoint(x))
            assert (np.ptp(w) < 1e-12) == degenerate
            b = np.einsum("pi,apq,qk->aik", v.conj(), a, v)
            f = np.array([[[second(wi, wk, wj) for wj in w] for wk in w] for wi in w])
            t = np.einsum("ikj,ji,aik,bkj->ab", f, v.conj().T @ rho @ v, b, b)
            expected = -(t + t.T).real
            eigs = variational._evaluate(rho, [op.adjoint(x) for op in ops])[0]
            hess = (variational._newton_system(rho, ops, eigs, 1.0)[1]
                    - variational._newton_system(rho, ops, eigs, 0.0)[1])
            assert np.linalg.norm(hess - expected) <= 1e-12 * np.linalg.norm(expected)


    @staticmethod
    def bell_diagonal():
        bell_basis = np.array([[1, 0, 0, 1], [1, 0, 0, -1],
                               [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)
        lam = np.array([0.7, 0.15, 0.1, 0.05])
        return DensityOperator((bell_basis.T * lam) @ bell_basis, (2, 2))

    def test_refused_predictions_keep_the_certificate(self, monkeypatch):
        """With every predicted point refused, each centering starts where
        the last one ended, and the certificate still brackets the closed
        form."""
        tangent, evaluate, pending, refused = variational._tangent, variational._evaluate, [], []

        def predicting(*args):
            pending.append(None)
            return tangent(*args)

        def refusing_predictions(rho, mats):
            if pending:
                refused.append(pending.pop())
                return None
            return evaluate(rho, mats)

        monkeypatch.setattr(variational, "_tangent", predicting)
        monkeypatch.setattr(variational, "_evaluate", refusing_predictions)
        res = relative_entropy_of_entanglement(self.bell_diagonal())
        closed = 1.0 - binary_entropy(0.7)
        assert refused
        assert res.status == "converged"
        assert res.value - res.gap - 1e-9 <= closed <= res.value + 1e-9

    @pytest.mark.parametrize("ending", ["step-cap", "failed-factorization"])
    def test_predicts_only_from_a_factor_at_the_point(self, monkeypatch, ending):
        """A centering that ends at ``max_iterations`` or on a failed
        factorization has no factor at its point, so no predictor step
        follows it; one that ends on the decrement test is followed by one."""
        tangent, cholesky, events = variational._tangent, variational._cholesky, []

        def predicting(*args):
            events.append("predict")
            return tangent(*args)

        def factoring(mat):
            fails = ending == "failed-factorization" and events.count("factor") >= 8
            events.append("fail" if fails else "factor")
            return None if fails else cholesky(mat)

        monkeypatch.setattr(variational, "_tangent", predicting)
        monkeypatch.setattr(variational, "_cholesky", factoring)
        cap = 8 if ending == "step-cap" else 200
        res = relative_entropy_of_entanglement(self.bell_diagonal(),
                                               config=SolverConfig(max_iterations=cap))
        centerings = len(res.witness_payload["objective_trace"])
        assert res.status == "best_effort"
        if ending == "step-cap":
            assert res.iterations == cap
            assert events.count("predict") == centerings - 1 >= 1
        else:
            first = events.index("fail")
            assert "predict" in events[:first]
            assert "predict" not in events[first:]

    def test_seeded_2x2_step_budget(self):
        rng = np.random.default_rng(2005)
        rho = rand_rho(rng)
        while np.linalg.eigvalsh(pt_matrix(rho.matrix))[0] >= -0.01:
            rho = rand_rho(rng)
        res = relative_entropy_of_entanglement(rho)
        assert res.status == "converged"
        assert res.iterations <= 30

    @pytest.mark.parametrize("spectrum", [
        "generic", "identity", "pair-1e-10", "pair-3e-9", "pair-0.3", "spread"])
    def test_divided_differences_match_the_reference_formulas(self, spectrum):
        """The first and second divided differences of log against the
        formulas with ``errstate`` and nested ``where`` they replaced, on
        degenerate and near-degenerate spectra."""
        def first(w):
            x, y = w[:, None], w[None, :]
            diff = x - y
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(np.abs(diff) < 0.5 * y, np.log1p(diff / y),
                                 np.log(x) - np.log(y)) / diff
            return np.where(diff == 0.0, 2.0 / (x + y), ratio)

        def second(w, d1):
            wi, wk, wj = w[:, None, None], w[None, :, None], w[None, None, :]
            near = 1e-8 * np.maximum(np.maximum(wi, wk), wj)
            with np.errstate(divide="ignore", invalid="ignore"):
                apart = (d1[:, :, None] - d1[None, :, :]) / (wi - wj)
                paired = (d1[:, :, None] - 1.0 / wi) / (wk - wi)
            return np.where(np.abs(wi - wj) <= near,
                            np.where(np.abs(wi - wk) <= near, -0.5 / wi ** 2, paired), apart)

        rng = np.random.default_rng(37)
        w = np.sort(rng.uniform(0.01, 0.3, 6))
        w = {"generic": w, "identity": np.full(6, 1.0 / 6),
             "pair-1e-10": np.sort(np.r_[w[:5], w[2] * (1 + 1e-10)]),
             "pair-3e-9": np.sort(np.r_[w[:5], w[4] * (1 + 3e-9)]),
             "pair-0.3": np.sort(np.r_[w[:5], w[0] * 1.3]),
             "spread": np.array([1e-9, 1e-6, 1e-6 * (1 + 1e-9), 1e-3, 0.2, 0.8])}[spectrum]
        v = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        rho = rand_rho(rng, n=6, dims=(2, 3)).matrix
        _, d1, _ = variational._log_gradient(rho, w, v)
        want = first(w)
        assert np.all(np.abs(d1 - want) <= 1e-14 * np.abs(want))
        d2, want = variational._log_second_differences(w, want), second(w, want)
        assert np.all(np.abs(d2 - want) <= 1e-14 * np.abs(want))


class TestWitnessViolation:
    def test_bell_violation(self):
        witness, violation = witness_violation(BELL)
        assert violation == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(witness, witness.conj().T)

    def test_werner_violation(self):
        _, violation = witness_violation(werner(0.5))
        assert violation == pytest.approx(0.125, abs=1e-9)

    def test_ppt_input_has_no_witness(self):
        witness, violation = witness_violation(SEPARABLE)
        assert witness is None
        assert violation == 0.0

    def test_violation_equals_negative_pt_eigenvalue(self, rng):
        for _ in range(5):
            rho = rand_rho(rng, rank=2)
            low = np.linalg.eigvalsh(pt_matrix(rho.matrix))[0]
            witness, violation = witness_violation(rho)
            if low >= -1e-12:
                assert witness is None
            else:
                assert violation == pytest.approx(-low, abs=1e-10)


    def test_only_verification_is_dimension_limited(self):
        dims = (6, 7)
        psi = np.zeros(42)
        psi[[i * 7 + i for i in range(6)]] = 1.0 / math.sqrt(6.0)
        rho = DensityOperator(0.5 * np.outer(psi, psi) + 0.5 * np.eye(42) / 42, dims)
        witness, violation = witness_violation(rho)
        assert witness.shape == (42, 42)
        assert violation > 0.0
        with pytest.raises(ValidationError, match="dimension-limit"):
            minimize_over_ppt_states(witness, dims)


class TestSquashedEval:
    def test_trivial_extension_of_bell(self):
        abe = DensityOperator(np.kron(BELL.matrix, [[1.0]]), (2, 2, 1))
        res = squashed_eval(abe, target=BELL)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.status == "best_effort"

    def test_trivial_extension_is_half_mutual_information(self, rng):
        rho = rand_rho(rng)
        abe = DensityOperator(np.kron(rho.matrix, [[1.0]]), (2, 2, 1))
        res = squashed_eval(abe)
        assert res.value == pytest.approx(0.5 * mutual_information(rho), abs=1e-9)

    def test_antisymmetric_qutrit_extension(self):
        eps = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[i, j, k] = 1.0
        for i, j, k in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
            eps[i, j, k] = -1.0
        vec = eps.reshape(-1) / math.sqrt(6.0)
        abe = DensityOperator(np.outer(vec, vec), (3, 3, 3))
        target = partial_trace(abe, (0, 1))
        res = squashed_eval(abe, target=target)
        assert res.value <= math.log2(math.sqrt(3.0)) + 1e-6
        assert res.value == pytest.approx(math.log2(math.sqrt(3.0)), abs=1e-9)

    def test_extension_mismatch_raises(self):
        abe = DensityOperator(np.kron(SEPARABLE.matrix, [[1.0]]), (2, 2, 1))
        with pytest.raises(ValidationError, match="extension-mismatch"):
            squashed_eval(abe, target=BELL)

    def test_requires_three_parties(self):
        with pytest.raises(ValidationError, match="tripartite"):
            squashed_eval(BELL)


class TestCrossMeasureProperties:
    def test_roof_dominates_distance_measure(self, rng):
        # empirical regression guard for 2-qubit states
        for _ in range(3):
            rho = rand_rho(rng)
            roof = eof_convex_roof(rho, config=FAST)
            ree = relative_entropy_of_entanglement(rho, config=FAST)
            assert roof.value >= ree.value - 1e-2

    def test_cones_closed_under_local_channels(self, rng):
        # spot-check: random local unitary channels preserve membership
        rho = rand_rho(rng)
        res = best_separable_approximation(rho)
        part = res.separable_part
        for _ in range(3):
            g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u1, _ = np.linalg.qr(g1)
            u2, _ = np.linalg.qr(g2)
            local = np.kron(u1, u2)
            moved = local @ part @ local.conj().T
            assert np.linalg.eigvalsh(moved)[0] >= -1e-7
            assert np.linalg.eigvalsh(pt_matrix(moved))[0] >= -1e-7


class TestIntakeLimits:
    def test_squashed_target_of_another_size_is_a_mismatch(self):
        with pytest.raises(ValidationError, match="^extension-mismatch"):
            squashed_eval(ghz_state(3), target=DensityOperator(np.eye(9) / 9, (3, 3)))

    def test_squashed_target_with_other_dims_is_a_mismatch(self):
        reduced = partial_trace(ghz_state(3).to_density(), (0, 1))
        assert squashed_eval(ghz_state(3), target=reduced).value == pytest.approx(0.5)
        with pytest.raises(ValidationError, match="^extension-mismatch"):
            squashed_eval(ghz_state(3), target=DensityOperator(reduced.matrix, (4,)))

    @pytest.mark.parametrize("m", [257, 10 ** 30], ids=["257", "1e30"])
    def test_roof_decomposition_size_is_capped(self, m):
        with pytest.raises(ValidationError, match="^decomposition-size"):
            eof_convex_roof(SEPARABLE, m=m, config=FAST)


class TestCertificatePaths:
    """The barrier certifies at its own central point; the certificate SDP
    runs only when that bound misses the tolerance, on the same problem."""

    MEASURES = [relative_entropy_of_entanglement, rains_bound]

    @staticmethod
    def framed_bell_diagonal(seed=11):
        """Bell-diagonal, weights (0.7, 0.15, 0.1, 0.05), in a seeded random
        local frame: both measures are ``1 - h(0.7)``."""
        bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1],
                         [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)
        rho = (bell.T * np.array([0.7, 0.15, 0.1, 0.05])) @ bell
        rng = np.random.default_rng(seed)
        u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
        return DensityOperator(u @ rho @ u.conj().T, (2, 2))

    @staticmethod
    def recorded(monkeypatch):
        """The problems handed to the certificate SDP."""
        problems, solve = [], variational.sdp_solve

        def recording(problem, *args, **kwargs):
            problems.append(problem)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(variational, "sdp_solve", recording)
        return problems

    @pytest.mark.parametrize("measure", MEASURES)
    def test_central_point_certifies_without_an_sdp(self, monkeypatch, measure):
        def refuse(*args, **kwargs):
            raise AssertionError("the certificate SDP ran")

        monkeypatch.setattr(variational, "sdp_solve", refuse)
        res = measure(self.framed_bell_diagonal())
        assert res.status == "converged"
        assert res.gap <= 1e-6
        assert res.witness_payload["certificate"] == "central-point"
        closed = 1.0 - binary_entropy(0.7)
        assert res.value - res.gap - 1e-9 <= closed <= res.value + 1e-9

    @pytest.mark.parametrize("measure", MEASURES)
    def test_missed_bound_falls_back_to_one_sdp(self, monkeypatch, measure):
        """With the central-point bound void, one SDP over the n^2 equation
        rows and the trace row certifies the same point."""
        problems = self.recorded(monkeypatch)
        monkeypatch.setattr(variational, "_central_bound", lambda *args: -math.inf)
        res = measure(self.framed_bell_diagonal())
        assert [prob.num_constraints for prob in problems] == [4 * 4 + 1]
        assert res.status == "converged"
        assert res.witness_payload["certificate"] == "sdp"
        closed = 1.0 - binary_entropy(0.7)
        assert res.value - res.gap - 1e-9 <= closed <= res.value + 1e-9

    @pytest.mark.parametrize("measure", MEASURES)
    def test_uncentered_point_falls_back(self, monkeypatch, measure):
        """Cut at the step cap, far from the last center, the point's bound
        misses, and the SDP solves its problem once."""
        problems = self.recorded(monkeypatch)
        res = measure(self.framed_bell_diagonal(), config=SolverConfig(max_iterations=8))
        assert [prob.num_constraints for prob in problems] == [4 * 4 + 1]
        assert res.status == "best_effort"
        assert res.iterations == 8

    def test_polish_steps_count_toward_the_cap(self, monkeypatch):
        """The undamped steps at the final t are Newton steps: at most
        ``_POLISH_STEPS`` of them, counted in ``iterations`` and cut by the
        step cap."""
        rho = self.framed_bell_diagonal()
        polished = relative_entropy_of_entanglement(rho)
        monkeypatch.setattr(variational, "_POLISH_STEPS", 0)
        plain = relative_entropy_of_entanglement(rho)
        monkeypatch.undo()
        assert 0 < polished.iterations - plain.iterations <= variational._POLISH_STEPS
        capped = relative_entropy_of_entanglement(
            rho, config=SolverConfig(max_iterations=plain.iterations))
        assert capped.iterations == plain.iterations
        assert capped.value == plain.value


def isotropic(dims, p):
    """``p |Phi><Phi| + (1 - p) I / n``, Phi maximally entangled on the
    smaller side: PPT exactly when ``p <= d / (n + d)``, d that side."""
    d, n = min(dims), dims[0] * dims[1]
    phi = np.zeros(n)
    phi[np.arange(d) * dims[1] + np.arange(d)] = 1.0 / math.sqrt(d)
    return DensityOperator(p * np.outer(phi, phi) + (1.0 - p) * np.eye(n) / n, dims)


PPT_INPUTS = {
    "werner-2x2": werner_state(2, 0.3),
    "werner-3x3": werner_state(3, 0.4),
    "isotropic-2x2": isotropic((2, 2), 0.25),
    "isotropic-2x3": isotropic((2, 3), 0.2),
    "isotropic-3x3": isotropic((3, 3), 0.2),
}
# on the PPT boundary, where rho^Gamma's least eigenvalue rounds to about 0
BOUNDARY_INPUTS = {
    "werner-2x2": werner_state(2, 0.5),
    "werner-3x3": werner_state(3, 0.5),
    "isotropic-2x3": isotropic((2, 3), 0.25),
    "isotropic-3x3": isotropic((3, 3), 0.25),
}


class TestPptExits:
    """Robustness and BSA answer a PPT density operator with no SDP."""

    @pytest.fixture
    def no_sdp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sdp_solve ran on a PPT input")

        monkeypatch.setattr(variational, "sdp_solve", refuse)

    @pytest.mark.parametrize("name", sorted(PPT_INPUTS))
    def test_ppt_inputs_take_no_solve(self, no_sdp, name):
        rho = PPT_INPUTS[name]
        for noise in ("global", "separable"):
            res = robustness(rho, noise)
            assert 0.0 <= res.value <= res.gap <= 1e-10
            assert (res.status, res.iterations) == ("converged", 0)
            assert res.witness_payload["noise_state"] is None
            assert res.witness_payload["relaxation"] == (
                "exact" if rho.dims != (3, 3) else "ppt-outer")
        bsa = best_separable_approximation(rho)
        assert 0.0 <= bsa.weight <= bsa.gap <= 1e-10
        assert (bsa.status, bsa.iterations) == ("converged", 0)
        assert np.array_equal(bsa.separable_part, rho.matrix)
        assert not bsa.remainder.any()

    @pytest.mark.parametrize("name", sorted(BOUNDARY_INPUTS))
    def test_boundary_robustness_takes_no_solve(self, no_sdp, name):
        for noise in ("global", "separable"):
            res = robustness(BOUNDARY_INPUTS[name], noise)
            assert 0.0 <= res.value <= res.gap <= 1e-10

    def test_slack_below_zero_widens_the_gap_and_bsa_solves(self, monkeypatch):
        # (1 - 3p) / 4 = -5e-13, inside the PPT_TOL slack of the PPT rule
        rho = isotropic((2, 2), (1.0 + 2e-12) / 3.0)
        lam = np.linalg.eigvalsh(partial_transpose(rho, 1))[0]
        assert lam == pytest.approx(-5e-13, rel=1e-2)
        for noise in ("global", "separable"):
            res = robustness(rho, noise)
            assert res.iterations == 0
            assert res.value == res.gap >= 4 * 5e-13 * (1.0 - 1e-2)
        problems = record_problems(monkeypatch)
        bsa = best_separable_approximation(rho)
        assert len(problems) == 1 and bsa.iterations > 0
        assert bsa.weight <= 1e-6

    def test_a_tolerance_below_the_slack_is_best_effort(self):
        rho = isotropic((2, 2), (1.0 + 2e-12) / 3.0)
        res = robustness(rho, config=SolverConfig(gap_tolerance=1e-13))
        assert (res.status, res.iterations) == ("best_effort", 0)


class TestBaseNormStatus:
    PPT = ConeSpec("PPT-operators")

    @staticmethod
    def unfinished(monkeypatch, which):
        """Patch ``variational.sdp_solve`` to report the solves numbered in
        ``which`` (from 0) as ``max-iterations``."""
        solve, calls = variational.sdp_solve, []

        def capped(problem, **kwargs):
            sol = solve(problem, **kwargs)
            calls.append(None)
            if len(calls) - 1 in which:
                sol = dataclasses.replace(sol, status="max-iterations")
            return sol

        monkeypatch.setattr(variational, "sdp_solve", capped)
        return calls

    def test_certified_solve_is_converged(self):
        assert base_norm(BELL, self.PPT, self.PPT).status == "converged"

    def test_unfinished_solve_is_best_effort(self, monkeypatch):
        calls = self.unfinished(monkeypatch, {0})
        res = base_norm(BELL, self.PPT, self.PPT)
        assert len(calls) == 1
        assert res.status == "best_effort"
        assert res.r_value == pytest.approx(0.5, abs=1e-6)

    def test_the_second_solve_keeps_its_verdict(self, monkeypatch):
        cones = ConeSpec("all-PSD"), ConeSpec("negated-PSD", normalization=-2.0)
        assert base_norm(werner(0.8), *cones).status == "converged"
        calls = self.unfinished(monkeypatch, {1})
        assert base_norm(werner(0.8), *cones).status == "best_effort"
        assert len(calls) == 2
