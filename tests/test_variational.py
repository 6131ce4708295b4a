"""Tests for the optimization-based measures."""

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
        with pytest.raises(ValidationError, match="target-set"):
            relative_entropy_of_entanglement(BELL, target_set="CHSH")
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

    def test_rejects_unknown_noise(self):
        with pytest.raises(ValidationError, match="noise-kind"):
            robustness(BELL, "thermal")


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


class TestWitnessViolation:
    def test_bell_violation(self):
        witness, violation = witness_violation(BELL, verify=True)
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
