"""Core state types, entropic primitives, and Kraus application."""

import json
import math
import os

import numpy as np
import pytest

from entmeas import (
    ConeSpec,
    CovarianceMatrix,
    DensityOperator,
    KrausSet,
    MeasureResult,
    PureState,
    SymplecticSpectrum,
    ValidationError,
    apply_kraus,
    apply_symplectic,
    base_norm,
    best_separable_approximation,
    binary_entropy,
    bounds_report,
    catalysis_search,
    ckw_check,
    conditional_mutual_information,
    entropy_of_entanglement,
    eof_convex_roof,
    gaussian_entropy,
    gaussian_is_ppt,
    gaussian_log_negativity,
    ghz_state,
    majorization_convertible,
    max_entangled,
    minimize_over_ppt_states,
    mutual_information,
    negativity,
    optimal_conversion_probability,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    reduce_modes,
    relative_entropy,
    residual_tangle,
    robustness,
    schmidt,
    state_from_dict,
    state_to_dict,
    tangle,
    symplectic_eigenvalues,
    trace_norm,
    two_mode_squeezed,
    two_qubit_conversion_kraus,
    von_neumann_entropy,
    w_state,
    werner_regularized_ree,
    werner_state,
)
from entmeas.gaussian import (covariance_from_dict, mode_rotation, symplectic_form, thermal,
                              two_mode_squeezer, vacuum)
from entmeas.sdp import SdpProblem, sdp_solve
from conftest import rand_pure, rand_rho, rand_unitary


def bell_rho():
    return max_entangled(2).to_density()


class TestValidation:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="hermiticity"):
            DensityOperator(mat, [2])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="unit-trace"):
            DensityOperator(np.eye(2), [2])

    def test_rejects_negative_operator(self):
        mat = np.diag([1.2, -0.2])
        with pytest.raises(ValidationError, match="positivity"):
            DensityOperator(mat, [2])

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValidationError, match="dims"):
            DensityOperator(np.eye(4) / 4, [2, 3])

    @pytest.mark.parametrize("dims", [(2, 2.5), (2.0, 2.0), (True, 4), 4, None, "ab"], ids=repr)
    def test_rejects_dims_that_are_not_integers(self, dims):
        with pytest.raises(ValidationError, match="dims"):
            DensityOperator(np.eye(4) / 4, dims)
        with pytest.raises(ValidationError, match="dims"):
            partial_transpose(np.eye(4), 1, dims)

    @pytest.mark.parametrize("call, invariant", [
        pytest.param(lambda: reduce_modes(two_mode_squeezed(0.3), [0.5]), "mode-indices",
                     id="reduce_modes-0.5"),
        pytest.param(lambda: permute_subsystems(max_entangled(2), (0.5, 1)), "permutation",
                     id="permute_subsystems-0.5"),
        pytest.param(lambda: permute_subsystems(max_entangled(2), 1), "permutation",
                     id="permute_subsystems-int"),
        pytest.param(lambda: partial_trace(bell_rho(), True), "subsystem-index",
                     id="partial_trace-True"),
        pytest.param(lambda: schmidt(max_entangled(2), float("nan")), "bipartition",
                     id="schmidt-nan"),
        pytest.param(lambda: negativity(bell_rho(), 1.5), "bipartition", id="negativity-1.5"),
        pytest.param(lambda: partial_trace(bell_rho(), 1.5), "subsystem-index",
                     id="partial_trace-1.5"),
        pytest.param(lambda: partial_trace(bell_rho(), np.array(1)), "subsystem-index",
                     id="partial_trace-0d-array"),
        pytest.param(lambda: negativity(bell_rho(), np.array(1)), "bipartition",
                     id="negativity-0d-array"),
        pytest.param(lambda: tangle(ghz_state(3), 1.5), "dims", id="tangle-1.5"),
        pytest.param(lambda: gaussian_is_ppt(two_mode_squeezed(0.3), 1.5), "mode-cut",
                     id="gaussian_is_ppt-1.5"),
        pytest.param(lambda: gaussian_log_negativity(two_mode_squeezed(0.3), 1.5), "mode-cut",
                     id="gaussian_log_negativity-1.5"),
        pytest.param(lambda: catalysis_search([0.4, 0.36, 0.24], [0.5, 0.25, 0.25],
                                              resolution=2.5), "resolution",
                     id="catalysis_search-resolution-2.5"),
        pytest.param(lambda: catalysis_search([0.4, 0.36, 0.24], [0.5, 0.25, 0.25],
                                              catalyst_rank=2.0), "catalyst-rank",
                     id="catalysis_search-rank-2.0"),
        pytest.param(lambda: eof_convex_roof(max_entangled(2), m=2.5), "decomposition-size",
                     id="eof_convex_roof-2.5"),
        pytest.param(lambda: max_entangled(2.0), "dims", id="max_entangled-2.0"),
        pytest.param(lambda: max_entangled(None), "dims", id="max_entangled-None"),
        pytest.param(lambda: ghz_state(3.0), "dims", id="ghz_state-3.0"),
        pytest.param(lambda: w_state("a"), "dims", id="w_state-str"),
        pytest.param(lambda: symplectic_form(2.0), "mode-count", id="symplectic_form-2.0"),
        pytest.param(lambda: symplectic_form(-1), "mode-count", id="symplectic_form-negative"),
        pytest.param(lambda: symplectic_form(33), "mode-count", id="symplectic_form-over-limit"),
        pytest.param(lambda: vacuum(True), "mode-count", id="vacuum-True"),
        pytest.param(lambda: werner_regularized_ree(3.0, 0.9), "werner-domain",
                     id="werner_regularized_ree-3.0"),
        pytest.param(lambda: residual_tangle(ghz_state(3), True), "subsystem-index",
                     id="residual_tangle-True"),
        pytest.param(lambda: residual_tangle(ghz_state(3), 1.0), "subsystem-index",
                     id="residual_tangle-1.0"),
        pytest.param(lambda: residual_tangle(ghz_state(3), 3), "subsystem-index",
                     id="residual_tangle-3"),
        pytest.param(lambda: catalysis_search([0.4, 0.36, 0.24], [0.5, 0.25, 0.25],
                                              catalyst_rank=4), "catalyst-rank",
                     id="catalysis_search-rank-4"),
        pytest.param(lambda: werner_state(2.0, 0.5), "werner-dimension",
                     id="werner_state-2.0"),
        pytest.param(lambda: covariance_from_dict({"modes": 1.0, "cov": np.eye(2)}),
                     "cov-payload", id="covariance_from_dict-1.0"),
        pytest.param(lambda: SdpProblem((2,)).set_objective(True, np.eye(2)), "block-index",
                     id="SdpProblem-block-True"),
    ])
    def test_rejects_indices_and_counts_that_are_not_integers(self, call, invariant):
        with pytest.raises(ValidationError, match=invariant):
            call()

    @pytest.mark.parametrize("call, invariant", [
        pytest.param(lambda: binary_entropy(math.nan), "probability", id="binary_entropy-nan"),
        pytest.param(lambda: werner_regularized_ree(math.inf, 0.9), "werner-domain",
                     id="werner_regularized_ree-inf"),
        pytest.param(lambda: werner_regularized_ree(math.nan, 0.9), "werner-domain",
                     id="werner_regularized_ree-nan"),
        pytest.param(lambda: optimal_conversion_probability([math.nan, 1.0], [1.0]),
                     "coefficients", id="optimal_conversion_probability-nan"),
        pytest.param(lambda: KrausSet([np.full((2, 2), np.nan)]), "non-finite",
                     id="KrausSet-nan"),
        pytest.param(lambda: KrausSet([np.full((2, 2), np.nan)], trace_preserving=False),
                     "non-finite", id="KrausSet-nan-not-trace-preserving"),
        pytest.param(lambda: two_qubit_conversion_kraus(math.nan, 0.5), "amplitudes",
                     id="two_qubit_conversion_kraus-nan"),
        pytest.param(lambda: binary_entropy(None), "probability", id="binary_entropy-None"),
        pytest.param(lambda: binary_entropy(True), "probability", id="binary_entropy-True"),
        pytest.param(lambda: werner_state(2, None), "werner-weight", id="werner_state-None"),
        pytest.param(lambda: werner_regularized_ree(3, None), "werner-domain",
                     id="werner_regularized_ree-None"),
        pytest.param(lambda: thermal(None), "thermal-domain", id="thermal-None"),
        pytest.param(lambda: thermal(True), "thermal-domain", id="thermal-True"),
        pytest.param(lambda: two_mode_squeezed("a"), "squeezing-domain",
                     id="two_mode_squeezed-str"),
        pytest.param(lambda: two_mode_squeezer(None), "squeezing-domain",
                     id="two_mode_squeezer-None"),
        pytest.param(lambda: mode_rotation("a"), "rotation-angle", id="mode_rotation-str"),
        pytest.param(lambda: two_qubit_conversion_kraus(None, 1.0), "amplitudes",
                     id="two_qubit_conversion_kraus-None"),
        pytest.param(lambda: ConeSpec("all-PSD", None), "cone-normalization",
                     id="ConeSpec-None"),
        pytest.param(lambda: ConeSpec("all-PSD", "a"), "cone-normalization", id="ConeSpec-str"),
        pytest.param(lambda: ConeSpec("all-PSD", math.inf), "cone-normalization",
                     id="ConeSpec-inf"),
        pytest.param(lambda: KrausSet(None), "kraus-set", id="KrausSet-None"),
        pytest.param(lambda: KrausSet([1.0]), "kraus-set", id="KrausSet-scalar"),
        pytest.param(lambda: apply_kraus(None, bell_rho()), "kraus-set", id="apply_kraus-None"),
        pytest.param(lambda: bounds_report(bell_rho(), skip=None), "skip-names",
                     id="bounds_report-skip-None"),
        pytest.param(lambda: bounds_report(bell_rho(), skip="ree"), "skip-names",
                     id="bounds_report-skip-str"),
        pytest.param(lambda: robustness(bell_rho(), ["global"]), "noise-kind",
                     id="robustness-noise-list"),
        pytest.param(lambda: werner_state(2, 1.5), "werner-weight", id="werner_state-1.5"),
        pytest.param(lambda: two_mode_squeezed(-0.1), "squeezing-domain",
                     id="two_mode_squeezed-negative"),
        pytest.param(lambda: thermal(0.5), "thermal-domain", id="thermal-0.5"),
        pytest.param(lambda: mode_rotation(math.inf), "rotation-angle", id="mode_rotation-inf"),
        pytest.param(lambda: two_qubit_conversion_kraus(1.0, True), "amplitudes",
                     id="two_qubit_conversion_kraus-True"),
        # Python ints past the float range, which float() would overflow on
        pytest.param(lambda: thermal(10**400), "thermal-domain", id="thermal-huge-int"),
        pytest.param(lambda: two_mode_squeezed(10**400), "squeezing-domain",
                     id="two_mode_squeezed-huge-int"),
        pytest.param(lambda: mode_rotation(10**400), "rotation-angle",
                     id="mode_rotation-huge-int"),
        pytest.param(lambda: ConeSpec("all-PSD", 10**400), "cone-normalization",
                     id="ConeSpec-huge-int"),
    ])
    def test_rejects_non_finite_scalars(self, call, invariant):
        with pytest.raises(ValidationError, match=invariant):
            call()

    def test_accepts_numpy_integer_dims(self):
        assert DensityOperator(np.eye(4) / 4, np.array([2, 2])).dims == (2, 2)

    def test_accepts_tolerable_noise(self, rng):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = 1e-11
        rho = DensityOperator(mat, [2])
        assert rho.dims == (2,)

    def test_pure_state_norm(self):
        with pytest.raises(ValidationError, match="normalization"):
            PureState([1.0, 1.0], [2])

    def test_rejects_non_finite_vector(self):
        with pytest.raises(ValidationError, match="non-finite"):
            PureState([np.nan, 0.0, 0.0, 1.0], [2, 2])
        with pytest.raises(ValidationError, match="non-finite"):
            PureState([np.inf, 0.0], [2])

    def test_rejects_non_finite_matrix(self):
        mat = np.eye(4) / 4
        mat[1, 2] = mat[2, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            DensityOperator(mat, [2, 2])
        with pytest.raises(ValidationError, match="non-finite"):
            DensityOperator(np.full((4, 4), np.nan), [2, 2])

    def test_states_and_kraus_sets_keep_their_own_copy(self):
        vec, op = np.array([1.0, 0.0], dtype=complex), np.eye(2, dtype=complex)
        psi, ks = PureState(vec, [2]), KrausSet([op])
        vec[0] = op[0, 0] = 5.0
        assert psi.vector[0] == 1.0 and ks.operators[0][0, 0] == 1.0

    def test_kraus_completeness(self):
        half = np.eye(2) / np.sqrt(2)
        with pytest.raises(ValidationError, match="kraus-completeness"):
            KrausSet([half], trace_preserving=True)
        ks = KrausSet([half, half], trace_preserving=True)
        assert len(ks) == 2

    @pytest.mark.parametrize("call, invariant", [
        pytest.param(lambda: KrausSet([]), "kraus-set", id="KrausSet-empty"),
        pytest.param(lambda: apply_kraus(KrausSet([np.eye(2)]), bell_rho()), "shape",
                     id="apply_kraus-input-dimension"),
        pytest.param(lambda: apply_kraus(KrausSet([np.diag([1.0, 0.0, 0.0, 0.0])],
                                                  trace_preserving=False),
                                         DensityOperator(np.diag([0.0, 1.0, 0.0, 0.0]), (2, 2))),
                     "trace-preservation", id="apply_kraus-vanishing-trace"),
        pytest.param(lambda: relative_entropy(bell_rho(), DensityOperator(np.eye(2) / 2, (2,))),
                     "shape", id="relative_entropy-sizes"),
        pytest.param(lambda: state_to_dict(3), "state-format", id="state_to_dict-int"),
        pytest.param(lambda: covariance_from_dict([1]), "cov-payload",
                     id="covariance_from_dict-list"),
    ])
    def test_refuses_malformed_arguments(self, call, invariant):
        with pytest.raises(ValidationError, match=invariant):
            call()

    def test_measure_result_invariants(self):
        with pytest.raises(ValidationError):
            MeasureResult(value=-0.1, status="exact")
        with pytest.raises(ValidationError):
            MeasureResult(value=0.1, status="exact", gap=1e-3)
        with pytest.raises(ValidationError):
            MeasureResult(value=0.1, status="done")
        res = MeasureResult(value=math.inf, status="exact")
        assert math.isinf(res.value)

    def test_states_are_immutable(self):
        rho = bell_rho()
        with pytest.raises(Exception):
            rho.matrix[0, 0] = 5.0
        with pytest.raises(AttributeError):
            rho.dims = (4,)


class TestPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        red = partial_trace(bell_rho(), 0)
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_w_state_reduction(self):
        # |W> = (|100>+|010>+|001>)/sqrt(3); one-qubit marginal diag(2/3, 1/3)
        red = partial_trace(w_state(3).to_density(), 0)
        assert np.allclose(red.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_product_state_factorizes(self, rng):
        a = rand_rho(rng, [2])
        b = rand_rho(rng, [3])
        joint = DensityOperator(np.kron(a.matrix, b.matrix), [2, 3])
        assert np.allclose(partial_trace(joint, 0).matrix, a.matrix, atol=1e-12)
        assert np.allclose(partial_trace(joint, 1).matrix, b.matrix, atol=1e-12)

    def test_keep_order_preserved(self, rng):
        rho = rand_rho(rng, [2, 3, 2])
        red = partial_trace(rho, (0, 2))
        assert red.dims == (2, 2)
        assert abs(np.trace(red.matrix) - 1.0) < 1e-12

    def test_rejects_bad_index(self):
        with pytest.raises(ValidationError, match="subsystem-index"):
            partial_trace(bell_rho(), 5)

    def test_refuses_raw_array(self):
        with pytest.raises(ValidationError, match="state-type"):
            partial_trace(np.eye(4) / 4, 0)


class TestPartialTranspose:
    def test_raw_array_matches_state(self, rng):
        rho = rand_rho(rng, [2, 3])
        for parties in (0, 1, (0, 1)):
            assert np.array_equal(partial_transpose(rho.matrix, parties, dims=(2, 3)),
                                  partial_transpose(rho, parties))

    def test_raw_array_requires_dims(self):
        with pytest.raises(ValidationError, match="dims-required"):
            partial_transpose(np.eye(4) / 4, 1)
        with pytest.raises(ValidationError, match="dims"):
            partial_transpose(np.eye(4) / 4, 1, dims=(2, 3))
        assert np.array_equal(partial_transpose(np.eye(4) / 4, 1, dims=(2, 2)),
                              np.eye(4) / 4)

    def test_bell_spectrum(self):
        pt = partial_transpose(bell_rho(), 1)
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_and_trace(self, rng):
        rho = rand_rho(rng, [2, 3])
        pt = partial_transpose(rho, 1)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
        back = partial_transpose(DensityOperator(rho.matrix, [2, 3]), 1)
        assert np.allclose(back, pt)

    def test_full_transpose_via_both_parties(self, rng):
        rho = rand_rho(rng, [2, 2])
        pt = partial_transpose(rho, (0, 1))
        assert np.allclose(pt, rho.matrix.T, atol=1e-14)

    def test_separable_state_stays_positive(self, rng):
        a = rand_rho(rng, [2])
        b = rand_rho(rng, [2])
        sep = DensityOperator(np.kron(a.matrix, b.matrix), [2, 2])
        assert np.linalg.eigvalsh(partial_transpose(sep, 1))[0] > -1e-12


class TestEntropy:
    def test_known_binary_spectrum(self):
        rho = DensityOperator(np.diag([0.8, 0.2]), [2])
        expected = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
        assert abs(von_neumann_entropy(rho) - expected) < 1e-12
        assert abs(expected - 0.7219280948873623) < 1e-15

    def test_pure_state_has_zero_entropy(self, rng):
        psi = rand_pure(rng, [2, 3])
        assert von_neumann_entropy(psi) == 0.0
        assert von_neumann_entropy(psi.to_density()) < 1e-9

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = DensityOperator(np.eye(d) / d, [d])
            assert abs(von_neumann_entropy(rho) - math.log2(d)) < 1e-12

    def test_unitary_invariance(self, rng):
        rho = rand_rho(rng, [4])
        u = rand_unitary(rng, 4)
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T, [4])
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


class TestRelativeEntropy:
    def test_bell_vs_maximally_mixed(self):
        sigma = DensityOperator(np.eye(4) / 4, [2, 2])
        assert abs(relative_entropy(bell_rho(), sigma) - 2.0) < 1e-12

    def test_support_violation_is_infinite(self):
        rho = DensityOperator(np.diag([1.0, 0.0]), [2])
        sigma = DensityOperator(np.diag([0.0, 1.0]), [2])
        assert relative_entropy(rho, sigma) == math.inf

    def test_zero_iff_equal(self, rng):
        rho = rand_rho(rng, [3])
        assert abs(relative_entropy(rho, rho)) < 1e-10
        other = rand_rho(rng, [3])
        assert relative_entropy(rho, other) > 1e-4

    def test_klein_inequality(self, rng):
        for _ in range(20):
            rho = rand_rho(rng, [4])
            sigma = rand_rho(rng, [4])
            assert relative_entropy(rho, sigma) >= -1e-12

    def test_matches_spectral_formula_for_commuting(self):
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([0.2, 0.5, 0.3])
        rho = DensityOperator(np.diag(p), [3])
        sigma = DensityOperator(np.diag(q), [3])
        expected = float(np.sum(p * np.log2(p / q)))
        assert abs(relative_entropy(rho, sigma) - expected) < 1e-12


class TestTraceNorm:
    def test_density_operator_has_unit_norm(self, rng):
        assert abs(trace_norm(rand_rho(rng, [4])) - 1.0) < 1e-12

    def test_known_indefinite_matrix(self):
        mat = np.diag([1.5, -0.5])
        assert abs(trace_norm(mat) - 2.0) < 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="hermiticity"):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRawOperators:
    def test_entropies_refuse_non_hermitian_arrays(self):
        skew = np.array([[0.5, 0.9], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="hermiticity"):
            von_neumann_entropy(skew)
        with pytest.raises(ValidationError, match="hermiticity"):
            relative_entropy(skew, np.eye(2) / 2)
        with pytest.raises(ValidationError, match="non-finite"):
            von_neumann_entropy(np.diag([0.5, np.nan]))


class TestInformationMeasures:
    def test_bell_mutual_information(self):
        assert abs(mutual_information(bell_rho()) - 2.0) < 1e-12

    def test_product_state_has_zero_mi(self, rng):
        a = rand_rho(rng, [2])
        b = rand_rho(rng, [2])
        joint = DensityOperator(np.kron(a.matrix, b.matrix), [2, 2])
        assert mutual_information(joint) < 1e-10

    def test_ghz_conditional_mutual_information(self):
        rho = ghz_state(3).to_density()
        assert abs(conditional_mutual_information(rho) - 1.0) < 1e-12

    def test_trivial_extension_cmi_is_mutual_information(self, rng):
        for _ in range(5):
            ab = rand_rho(rng, [2, 2])
            env = rand_rho(rng, [2])
            ext = DensityOperator(np.kron(ab.matrix, env.matrix), [2, 2, 2])
            assert abs(conditional_mutual_information(ext) - mutual_information(ab)) < 1e-9

    def test_cmi_nonnegative_on_random_states(self, rng):
        for _ in range(10):
            rho = rand_rho(rng, [2, 2, 2])
            assert conditional_mutual_information(rho) >= 0.0

    def test_requires_three_parties(self):
        with pytest.raises(ValidationError, match="dims"):
            conditional_mutual_information(bell_rho())


class TestPermute:
    def test_round_trip(self, rng):
        rho = rand_rho(rng, [2, 3, 2])
        there = permute_subsystems(rho, (2, 0, 1))
        back = permute_subsystems(there, (1, 2, 0))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-14)

    def test_swap_matches_kron_order(self, rng):
        a = rand_rho(rng, [2])
        b = rand_rho(rng, [3])
        ab = DensityOperator(np.kron(a.matrix, b.matrix), [2, 3])
        ba = permute_subsystems(ab, (1, 0))
        assert np.allclose(ba.matrix, np.kron(b.matrix, a.matrix), atol=1e-14)

    def test_pure_state_permutation(self, rng):
        psi = rand_pure(rng, [2, 3])
        flipped = permute_subsystems(psi, (1, 0))
        assert flipped.dims == (3, 2)
        assert np.allclose(
            flipped.to_density().matrix,
            permute_subsystems(psi.to_density(), (1, 0)).matrix,
            atol=1e-14,
        )

    def test_refuses_raw_array(self):
        with pytest.raises(ValidationError, match="state-type"):
            permute_subsystems(np.eye(4) / 4, (1, 0))


class TestApplyKraus:
    def test_averaged_dephasing_kills_coherences(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        ks = KrausSet([p0, p1], trace_preserving=True)
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2), [2]).to_density()
        out = apply_kraus(ks, plus, mode="averaged")
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_averaged_preserves_trace_for_random_channels(self, rng):
        for _ in range(5):
            u = rand_unitary(rng, 8)
            ops = [u[2 * k:2 * k + 2, :2] for k in range(4)]
            ks = KrausSet(ops, trace_preserving=True)
            rho = rand_rho(rng, [2])
            out = apply_kraus(ks, rho, mode="averaged")
            assert abs(np.trace(out.matrix) - 1.0) < 1e-9

    def test_selective_probabilities_sum_to_one(self, rng):
        u = rand_unitary(rng, 4)
        ops = [u[:2, :2], u[2:, :2]]
        ks = KrausSet(ops, trace_preserving=True)
        rho = rand_rho(rng, [2])
        outcomes = apply_kraus(ks, rho, mode="selective")
        assert abs(sum(p for p, _ in outcomes) - 1.0) < 1e-9
        for _, state in outcomes:
            assert abs(np.trace(state.matrix) - 1.0) < 1e-10

    def test_selective_drops_null_outcomes(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        ks = KrausSet([p0, p1], trace_preserving=True)
        ground = DensityOperator(np.diag([1.0, 0.0]), [2])
        outcomes = apply_kraus(ks, ground, mode="selective")
        assert len(outcomes) == 1
        assert abs(outcomes[0][0] - 1.0) < 1e-12

    def test_selective_average_recovers_channel(self, rng):
        u = rand_unitary(rng, 4)
        ops = [u[:2, :2], u[2:, :2]]
        ks = KrausSet(ops, trace_preserving=True)
        rho = rand_rho(rng, [2])
        avg = apply_kraus(ks, rho, mode="averaged")
        mix = sum(p * s.matrix for p, s in apply_kraus(ks, rho, mode="selective"))
        assert np.allclose(avg.matrix, mix, atol=1e-10)


# Every public entry point that takes an array, as (name, call on the array,
# shape of a valid array, kinds of BAD_ARRAYS that are valid there, refused
# invariant).
CPLX = ("complex",)
ARRAY_INTAKES = [
    ("DensityOperator", lambda a: DensityOperator(a, [2]), (2, 2), CPLX, "non-finite"),
    ("PureState", lambda a: PureState(a, [2]), (2,), CPLX, "non-finite"),
    ("KrausSet", lambda a: KrausSet([a]), (2, 2), CPLX, "non-finite"),
    ("trace_norm", trace_norm, (2, 2), CPLX, "non-finite"),
    ("von_neumann_entropy", von_neumann_entropy, (2, 2), CPLX, "non-finite"),
    ("relative_entropy", lambda a: relative_entropy(a, np.eye(2) / 2), (2, 2), CPLX,
     "non-finite"),
    ("partial_transpose", lambda a: partial_transpose(a, 1, (2, 2)), (4, 4), CPLX,
     "non-finite"),
    ("minimize_over_ppt_states", lambda a: minimize_over_ppt_states(a, (2, 2)), (4, 4), CPLX,
     "non-finite"),
    ("base_norm", lambda a: base_norm(a, ConeSpec("PPT-operators"), ConeSpec("all-PSD"), (2, 2)),
     (4, 4), CPLX, "non-finite"),
    ("SdpProblem", lambda a: SdpProblem((2,)).set_objective(0, a), (2, 2), CPLX, "non-finite"),
    ("state_from_dict", lambda a: state_from_dict({"dims": [2], "matrix": a}), (2, 2, 2), (),
     "non-finite"),
    ("CovarianceMatrix", CovarianceMatrix, (2, 2), (), "non-finite"),
    ("CovarianceMatrix-mean", lambda a: CovarianceMatrix(np.eye(2), a), (2,), ("None",),
     "non-finite"),
    ("covariance_from_dict", lambda a: covariance_from_dict({"modes": 1, "cov": a}), (2, 2),
     (), "non-finite"),
    ("SymplecticSpectrum", SymplecticSpectrum, (1,), (), "non-finite"),
    ("apply_symplectic", lambda a: apply_symplectic(vacuum(1), a), (2, 2), (), "non-finite"),
    ("gaussian_entropy", gaussian_entropy, (2, 2), (), "non-finite"),
    ("symplectic_eigenvalues", symplectic_eigenvalues, (2, 2), (), "non-finite"),
    ("majorization_convertible", lambda a: majorization_convertible(a, [1.0]), (2,), (),
     "coefficients"),
]

BAD_ARRAYS = {
    "string": lambda shape: np.full(shape, "a"),
    "None": lambda shape: None,
    "ragged": lambda shape: [[1.0, 0.0], [0.0]],
    "object": lambda shape: np.full(shape, object()),
    "bool": lambda shape: np.ones(shape, dtype=bool),
    "complex": lambda shape: np.full(shape, 0.5 + 0.5j),
    "nan": lambda shape: np.full(shape, math.nan),
}


class TestArrayIntake:
    """Every array argument passes one intake, ``states._numbers``: values
    that are not a rectangular nest of finite numbers, or complex where real
    numbers are required, are refused with a ``ValidationError``."""

    @pytest.mark.parametrize("call, data, invariant", [
        pytest.param(call, make(shape), invariant, id=f"{name}-{kind}")
        for name, call, shape, valid, invariant in ARRAY_INTAKES
        for kind, make in BAD_ARRAYS.items() if kind not in valid
    ])
    def test_refuses_values_that_are_not_finite_numbers(self, call, data, invariant):
        with pytest.raises(ValidationError) as info:
            call(data)
        assert info.value.invariant == invariant


class TestHugeFiniteEntries:
    """Finite entries whose norm or symmetrization overflows are refused
    without an overflow warning, which the suite would turn into an error."""

    HUGE = np.diag([1.7e308, 1.7e308])

    @pytest.mark.parametrize("call, invariant", [
        pytest.param(lambda: PureState([7e165, 0], [2]), "normalization", id="PureState"),
        pytest.param(lambda: DensityOperator(TestHugeFiniteEntries.HUGE, [2]), "non-finite",
                     id="DensityOperator"),
        pytest.param(lambda: trace_norm(TestHugeFiniteEntries.HUGE), "non-finite",
                     id="trace_norm"),
        pytest.param(lambda: SdpProblem((2,)).set_objective(0, TestHugeFiniteEntries.HUGE),
                     "non-finite", id="SdpProblem"),
        pytest.param(lambda: DensityOperator([[0.5, 1.7e308], [-1.7e308, 0.5]], [2]),
                     "hermiticity", id="DensityOperator-antisymmetric"),
    ])
    def test_refused_without_a_warning(self, call, invariant):
        with pytest.raises(ValidationError) as info:
            call()
        assert info.value.invariant == invariant


class TestScalarIntake:
    """Counts pass ``states._count``, real scalars ``states._real`` and file
    paths ``states._path``: each returns a plain type or names its
    invariant."""

    def test_count_returns_an_int_in_range(self):
        from entmeas.states import _count

        assert type(_count(np.int64(3), "n", "dims", 1, 3)) is int
        for bad in (True, 3.0, "3", None, 0, 4):
            with pytest.raises(ValidationError, match="dims"):
                _count(bad, "n", "dims", 1, 3)

    def test_real_returns_a_float_in_the_closed_interval(self):
        from entmeas.states import _real

        assert type(_real(np.float32(0.5), "p", "probability", 0.0, 1.0)) is float
        assert _real(1, "p", "probability", 0.0, 1.0) == 1.0
        assert _real(2**1023, "x", "value") == 2.0**1023
        for bad in (True, math.nan, math.inf, "0.5", None, 1.5, -0.1):
            with pytest.raises(ValidationError, match="probability"):
                _real(bad, "p", "probability", 0.0, 1.0)
        for huge in (10**400, -10**400):
            with pytest.raises(ValidationError, match="value"):
                _real(huge, "x", "value")

    @pytest.mark.parametrize("call, invariant", [
        pytest.param(lambda: thermal(10**5000), "thermal-domain", id="real"),
        pytest.param(lambda: vacuum(10**5000), "mode-count", id="count"),
        pytest.param(lambda: robustness(bell_rho(), 10**5000), "noise-kind", id="choice"),
        pytest.param(lambda: SdpProblem((2,)).add_equality({0: np.eye(2)}, 10**5000),
                     "constraint", id="sdp-real"),
        pytest.param(lambda: SdpProblem((10**5000,)), "block-dims", id="block-side"),
        pytest.param(lambda: partial_trace(bell_rho(), 10**5000), "subsystem-index",
                     id="subsystem"),
    ])
    def test_ints_too_long_to_print_are_refused(self, call, invariant):
        """Python will not write an int of more than 4300 digits, so the
        refusal text names it without printing it."""
        with pytest.raises(ValidationError) as info:
            call()
        assert info.value.invariant == invariant

    @pytest.mark.parametrize("call, invariant", [
        pytest.param(lambda: ghz_state(11), "dims", id="ghz-11"),
        pytest.param(lambda: ghz_state(200), "dims", id="ghz-200"),
        pytest.param(lambda: w_state(11), "dims", id="w-11"),
        pytest.param(lambda: w_state(200), "dims", id="w-200"),
        pytest.param(lambda: max_entangled(33), "dims", id="max-entangled-33"),
        pytest.param(lambda: werner_state(10**20, 0.5), "werner-dimension", id="werner"),
    ])
    def test_counts_past_the_state_dimension_limit_are_refused(self, call, invariant):
        """A state built from a count alone has total dimension at most
        ``STATE_DIM_LIMIT``; a larger count is refused before numpy
        allocates anything."""
        with pytest.raises(ValidationError) as info:
            call()
        assert info.value.invariant == invariant
        from entmeas.states import STATE_DIM_LIMIT

        assert ghz_state(10).dim == w_state(10).dim == max_entangled(32).dim == STATE_DIM_LIMIT

    @pytest.mark.parametrize("name", ["load_state", "save_state"])
    def test_file_descriptors_are_refused_and_left_open(self, tmp_path, name):
        from entmeas import load_state, save_state

        call = {"load_state": load_state,
                "save_state": lambda fd: save_state(max_entangled(2), fd)}[name]
        path = tmp_path / "bell.json"
        save_state(max_entangled(2), path)
        fd = os.open(path, os.O_RDWR)
        try:
            with pytest.raises(ValidationError) as info:
                call(fd)
            assert info.value.invariant == "path"
            os.fstat(fd)  # OSError once the descriptor is closed
        finally:
            os.close(fd)

    @pytest.mark.parametrize("path", [None, 1.5, b"bell.json"], ids=repr)
    def test_other_non_paths_are_refused(self, path):
        from entmeas import load_state

        with pytest.raises(ValidationError, match="path"):
            load_state(path)


class TestStateArguments:
    """A state argument of the wrong type is a ``state-type`` error, and the
    density-operator functions take a pure state as its projector."""

    DEPHASE = KrausSet([np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0, 1.0])])

    @pytest.mark.parametrize("call", [
        lambda: schmidt(bell_rho()),
        lambda: entropy_of_entanglement(bell_rho()),
        lambda: ckw_check(ghz_state(3).to_density()),
        lambda: residual_tangle(ghz_state(3).to_density()),
        lambda: apply_kraus(TestStateArguments.DEPHASE, np.eye(4) / 4),
        lambda: mutual_information(np.eye(4) / 4),
        lambda: conditional_mutual_information(np.eye(8) / 8),
    ], ids=["schmidt", "entropy_of_entanglement", "ckw_check", "residual_tangle",
            "apply_kraus", "mutual_information", "conditional_mutual_information"])
    def test_refuses_wrong_type(self, call):
        with pytest.raises(ValidationError, match="state-type"):
            call()

    @pytest.mark.parametrize("measure, state", [
        (lambda s: apply_kraus(TestStateArguments.DEPHASE, s).matrix, max_entangled(2)),
        (mutual_information, max_entangled(2)),
        (conditional_mutual_information, ghz_state(3)),
    ], ids=["apply_kraus", "mutual_information", "conditional_mutual_information"])
    def test_density_functions_take_pure_states(self, measure, state):
        assert np.array_equal(measure(state), measure(state.to_density()))


class TestJsonFormat:
    def test_density_round_trip(self, rng):
        rho = rand_rho(rng, [2, 2])
        again = state_from_dict(state_to_dict(rho))
        assert isinstance(again, DensityOperator)
        assert again.dims == rho.dims
        assert np.allclose(again.matrix, rho.matrix, atol=1e-15)

    def test_vector_round_trip(self, rng):
        psi = rand_pure(rng, [2, 3])
        again = state_from_dict(state_to_dict(psi))
        assert isinstance(again, PureState)
        assert np.allclose(again.vector, psi.vector, atol=1e-15)

    def test_file_round_trip(self, tmp_path, rng):
        from entmeas import load_state, save_state

        rho = rand_rho(rng, [2, 2])
        path = tmp_path / "state.json"
        save_state(rho, path)
        again = load_state(path)
        assert np.allclose(again.matrix, rho.matrix, atol=1e-15)

    def test_malformed_json_carries_position(self, tmp_path):
        from entmeas import load_state

        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2], "matrix": [[1, ]]}')
        with pytest.raises(json.JSONDecodeError) as err:
            load_state(path)
        assert err.value.lineno >= 1 and err.value.colno >= 1

    def test_missing_fields_rejected(self):
        with pytest.raises(ValidationError, match="state-format"):
            state_from_dict({"dims": [2]})
        with pytest.raises(ValidationError, match="state-format"):
            state_from_dict({"matrix": [[[1.0, 0.0]]]})


def _sdp_solution():
    prob = SdpProblem([2])
    prob.set_objective(0, np.diag([1.0, 2.0]))
    prob.add_equality({0: np.eye(2)}, 1.0)
    return sdp_solve(prob)


RESULTS = {
    "CovarianceMatrix": lambda: vacuum(1),
    "MeasureResult": lambda: MeasureResult(0.5, "converged", 1e-7, 3, {"closest": np.eye(4) / 4}),
    "MeasureResult-no-payload": lambda: MeasureResult(0.5, "converged", 1e-7, 3),
    "SchmidtDecomposition": lambda: schmidt(max_entangled(2)),
    "SdpSolution": _sdp_solution,
    "BaseNormResult": lambda: base_norm(bell_rho(), ConeSpec("PPT-operators"),
                                        ConeSpec("PPT-operators")),
    "BsaResult": lambda: best_separable_approximation(bell_rho()),
}


class TestResultIdentity:
    """Result types that hold arrays compare and hash by identity, as
    DensityOperator does: equality over their arrays would raise."""

    @pytest.mark.parametrize("make", RESULTS.values(), ids=RESULTS.keys())
    def test_equality_and_hash_are_by_identity(self, make):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2
