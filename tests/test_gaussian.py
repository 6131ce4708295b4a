"""Tests for the covariance-matrix toolkit."""

import math

import numpy as np
import pytest

from entmeas import UnsupportedCaseError, ValidationError
from entmeas.gaussian import (
    CovarianceMatrix,
    SymplecticSpectrum,
    apply_symplectic,
    covariance_from_dict,
    covariance_to_dict,
    gaussian_entropy,
    gaussian_is_ppt,
    gaussian_log_negativity,
    gaussian_ppt_separable,
    mode_rotation,
    partial_time_reversal,
    reduce_modes,
    symplectic_eigenvalues,
    symplectic_form,
    thermal,
    two_mode_squeezed,
    two_mode_squeezer,
    vacuum,
)

CLASSICAL = np.array([[3.0, 0.0, 1.0, 0.0],
                      [0.0, 3.0, 0.0, 1.0],
                      [1.0, 0.0, 3.0, 0.0],
                      [0.0, 1.0, 0.0, 3.0]])


def embed_single_mode(block, mode, n_modes):
    out = np.eye(2 * n_modes)
    out[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = block
    return out


def random_symplectic(rng, n_modes=2):
    s = np.eye(2 * n_modes)
    for _ in range(4):
        mode = rng.integers(n_modes)
        s = embed_single_mode(mode_rotation(rng.uniform(0, 2 * np.pi)),
                              mode, n_modes) @ s
        z = rng.uniform(-0.5, 0.5)
        s = embed_single_mode(np.diag([np.exp(z), np.exp(-z)]),
                              mode, n_modes) @ s
        if n_modes >= 2:
            s = two_mode_squeezer(rng.uniform(-0.3, 0.3)) @ s
    return s


class TestCovarianceMatrix:
    def test_rejects_asymmetry(self):
        bad = np.eye(2)
        bad[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="cov-symmetry"):
            CovarianceMatrix(bad)

    def test_rejects_uncertainty_violation(self):
        with pytest.raises(ValidationError, match="cov-uncertainty"):
            CovarianceMatrix(0.5 * np.eye(2))

    def test_uncertainty_message_reports_positive_residual(self):
        for call in (lambda: CovarianceMatrix(0.5 * np.eye(2)),
                     lambda: gaussian_entropy(
                         CovarianceMatrix(0.5 * np.eye(2), physical=False))):
            with pytest.raises(ValidationError) as info:
                call()
            assert info.value.residual == pytest.approx(0.5)
            assert "residual 5.000e-01 exceeds tolerance 1.0e-09" in str(info.value)

    @pytest.mark.parametrize("matrix, mean", [
        (np.full((2, 2), np.nan), None),
        (np.diag([np.inf, 1.0]), None),
        (np.full((2, 2), 1e308), None),
        (np.eye(2), [np.nan, 0.0]),
    ])
    def test_rejects_non_finite_entries(self, matrix, mean):
        with pytest.raises(ValidationError, match="non-finite"):
            CovarianceMatrix(matrix, first_moments=mean)

    def test_unphysical_flag_skips_uncertainty(self):
        cov = CovarianceMatrix(0.5 * np.eye(2), physical=False)
        assert cov.uncertainty_margin() < -1e-9

    def test_rejects_odd_or_nonsquare_shapes(self):
        with pytest.raises(ValidationError, match="cov-shape"):
            CovarianceMatrix(np.eye(3))
        with pytest.raises(ValidationError, match="cov-shape"):
            CovarianceMatrix(np.ones((2, 4)))

    def test_first_moments_length_checked(self):
        with pytest.raises(ValidationError, match="cov-moments"):
            CovarianceMatrix(np.eye(2), first_moments=[1.0, 2.0, 3.0])
        cov = CovarianceMatrix(np.eye(2), first_moments=[1.0, -2.0])
        assert cov.first_moments.tolist() == [1.0, -2.0]

    def test_mode_count(self):
        assert vacuum(3).n_modes == 3


class TestSymplecticEigenvalues:
    def test_vacuum_is_all_ones(self):
        values = symplectic_eigenvalues(vacuum(3)).values
        assert np.allclose(values, 1.0, atol=1e-12)

    def test_thermal_mode_in_williamson_form(self):
        assert symplectic_eigenvalues(thermal(3.0)).values == pytest.approx(
            (3.0,), abs=1e-12)

    def test_two_mode_squeezed_is_pure(self):
        values = symplectic_eigenvalues(two_mode_squeezed(0.5)).values
        assert np.allclose(values, 1.0, atol=1e-9)

    def test_invariant_under_symplectics(self, rng):
        base = CovarianceMatrix(np.diag([3.0, 3.0, 1.5, 1.5]))
        reference = symplectic_eigenvalues(base).values
        for _ in range(5):
            moved = apply_symplectic(base, random_symplectic(rng))
            assert np.allclose(symplectic_eigenvalues(moved).values,
                               reference, atol=1e-8)

    def test_spectrum_type_invariants(self):
        with pytest.raises(ValidationError, match="spectrum-order"):
            SymplecticSpectrum((1.0, 2.0))
        with pytest.raises(ValidationError, match="spectrum-sign"):
            SymplecticSpectrum((1.0, -0.5))


class TestGaussianEntropy:
    def test_vacuum_entropy_is_exactly_zero(self):
        assert gaussian_entropy(vacuum(1)) == 0.0
        assert gaussian_entropy(vacuum(4)) == 0.0

    def test_thermal_mode_value(self):
        assert gaussian_entropy(thermal(3.0)) == pytest.approx(2.0, abs=1e-12)

    def test_reduced_two_mode_squeezed(self):
        red = reduce_modes(two_mode_squeezed(1.0), [0])
        assert np.allclose(red.matrix, np.cosh(2.0) * np.eye(2), atol=1e-12)
        # oracle: the reduction is thermal with nbar = sinh(r)^2, whose
        # Fock-series entropy is (nbar+1)log2(nbar+1) - nbar log2(nbar)
        nbar = np.sinh(1.0) ** 2
        k = np.arange(2000, dtype=float)
        logp = k * np.log(nbar) - (k + 1) * np.log(nbar + 1.0)
        series = float(-np.sum(np.exp(logp) * logp) / np.log(2.0))
        assert series == pytest.approx(2.3369093005, abs=1e-9)
        assert gaussian_entropy(red) == pytest.approx(series, abs=1e-9)

    def test_pure_state_reductions_have_equal_entropy(self, rng):
        pure = apply_symplectic(vacuum(2), random_symplectic(rng))
        side_a = gaussian_entropy(reduce_modes(pure, [0]))
        side_b = gaussian_entropy(reduce_modes(pure, [1]))
        assert abs(side_a - side_b) < 1e-8

    def test_rejects_unphysical_input(self):
        bad = CovarianceMatrix(0.5 * np.eye(2), physical=False)
        with pytest.raises(ValidationError, match="cov-uncertainty"):
            gaussian_entropy(bad)


class TestReduceModes:
    def test_reduction_of_product_vacua(self):
        assert np.allclose(reduce_modes(vacuum(2), [1]).matrix, np.eye(2))

    def test_keep_all_is_identity_operation(self):
        t = two_mode_squeezed(0.3)
        assert np.allclose(reduce_modes(t, [0, 1]).matrix, t.matrix)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValidationError, match="mode-indices"):
            reduce_modes(vacuum(2), [5])
        with pytest.raises(ValidationError, match="mode-indices"):
            reduce_modes(vacuum(2), [])


class TestPartialTimeReversal:
    def test_separable_product_stays_physical(self):
        cov = CovarianceMatrix(np.diag([2.0, 2.0, 1.5, 1.5]))
        out = partial_time_reversal(cov, [1])
        assert out.uncertainty_margin() >= -1e-9

    def test_two_mode_squeezed_spectrum(self):
        for r in (0.3, 0.5, 1.0):
            out = partial_time_reversal(two_mode_squeezed(r), [1])
            values = symplectic_eigenvalues(out).values
            assert values == pytest.approx((math.exp(2 * r), math.exp(-2 * r)),
                                           abs=1e-9)

    def test_involution(self, rng):
        base = apply_symplectic(vacuum(2), random_symplectic(rng))
        twice = partial_time_reversal(partial_time_reversal(base, [1]), [1])
        assert np.allclose(twice.matrix, base.matrix, atol=1e-12)

    def test_acts_on_unphysical_inputs(self):
        # pure congruence; never consults the uncertainty relation
        bad = CovarianceMatrix(0.5 * np.eye(4), physical=False)
        out = partial_time_reversal(bad, [0])
        assert np.allclose(out.matrix, bad.matrix)

    def test_flips_momentum_moments(self):
        cov = CovarianceMatrix(np.eye(4), first_moments=[1.0, 2.0, 3.0, 4.0])
        out = partial_time_reversal(cov, [1])
        assert out.first_moments.tolist() == [1.0, 2.0, 3.0, -4.0]


class TestGaussianLogNegativity:
    def test_product_vacua_vanish(self):
        assert gaussian_log_negativity(vacuum(2)) == 0.0

    def test_two_mode_squeezed_line(self):
        for r in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0):
            expected = 2.0 * r * math.log2(math.e)
            assert gaussian_log_negativity(two_mode_squeezed(r)) == pytest.approx(
                expected, abs=1e-9)

    def test_classically_correlated_state_vanishes(self):
        assert gaussian_log_negativity(CovarianceMatrix(CLASSICAL)) == 0.0

    def test_rejects_bad_cut(self):
        with pytest.raises(ValidationError, match="mode-cut"):
            gaussian_log_negativity(vacuum(2), cut=2)

    def test_rejects_unphysical_input(self):
        bad = CovarianceMatrix(0.5 * np.eye(4), physical=False)
        with pytest.raises(ValidationError, match="cov-uncertainty"):
            gaussian_log_negativity(bad)


class TestGaussianIsPpt:
    def test_agrees_with_log_negativity(self):
        for cov in (vacuum(2), CovarianceMatrix(CLASSICAL), two_mode_squeezed(0.3)):
            assert gaussian_is_ppt(cov) is (gaussian_log_negativity(cov) == 0.0)

    def test_squeezed_pair_beside_a_vacuum(self):
        cov = CovarianceMatrix(np.block([[two_mode_squeezed(0.4).matrix, np.zeros((4, 2))],
                                         [np.zeros((2, 4)), np.eye(2)]]))
        assert gaussian_is_ppt(cov, cut=1) is False
        assert gaussian_is_ppt(cov, cut=2) is True

    @pytest.mark.parametrize("cut", [0, 3, -1])
    def test_rejects_vacuous_cut(self, cut):
        with pytest.raises(ValidationError, match="mode-cut"):
            gaussian_is_ppt(vacuum(3), cut=cut)

    def test_rejects_unphysical_input(self):
        bad = CovarianceMatrix(0.5 * np.eye(4), physical=False)
        with pytest.raises(ValidationError, match="cov-uncertainty"):
            gaussian_is_ppt(bad)


class TestGaussianPptSeparable:
    def test_product_vacua(self):
        assert gaussian_ppt_separable(vacuum(2)) is True

    def test_squeezed_state_is_entangled(self):
        assert gaussian_ppt_separable(two_mode_squeezed(0.3)) is False

    def test_classically_correlated_thermal_state(self):
        assert gaussian_ppt_separable(CovarianceMatrix(CLASSICAL)) is True

    @pytest.mark.parametrize("cut", ["x", 2.5, 2, 0])
    def test_two_modes_refuse_a_cut_other_than_1(self, cut):
        with pytest.raises(ValidationError, match="mode-cut"):
            gaussian_ppt_separable(two_mode_squeezed(0.3), cut=cut)

    def test_larger_systems_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            gaussian_ppt_separable(vacuum(3), cut=1)


class TestApplySymplectic:
    def test_identity_leaves_input_unchanged(self):
        t = two_mode_squeezed(0.4)
        assert np.allclose(apply_symplectic(t, np.eye(4)).matrix, t.matrix)

    def test_rotation_preserves_spectrum(self):
        rotated = apply_symplectic(thermal(2.5), mode_rotation(0.7))
        assert symplectic_eigenvalues(rotated).values == pytest.approx(
            (2.5,), abs=1e-9)

    def test_squeezer_on_vacuum_gives_squeezed_state(self):
        out = apply_symplectic(vacuum(2), two_mode_squeezer(0.8))
        assert np.allclose(out.matrix, two_mode_squeezed(0.8).matrix, atol=1e-12)

    def test_transforms_first_moments(self):
        cov = CovarianceMatrix(np.eye(2), first_moments=[1.0, 0.0])
        out = apply_symplectic(cov, mode_rotation(np.pi / 2))
        assert out.first_moments == pytest.approx([0.0, -1.0], abs=1e-12)

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValidationError, match="symplectic-form"):
            apply_symplectic(vacuum(1), 2.0 * np.eye(2))
        with pytest.raises(ValidationError, match="symplectic"):
            apply_symplectic(vacuum(1), np.diag([1.0, -1.0]))
        with pytest.raises(ValidationError, match="symplectic-shape"):
            apply_symplectic(vacuum(2), np.eye(2))


class TestConstructors:
    def test_zero_squeezing_is_vacuum(self):
        assert np.allclose(two_mode_squeezed(0.0).matrix, np.eye(4))

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValidationError, match="squeezing-domain"):
            two_mode_squeezed(-0.1)

    def test_thermal_domain(self):
        with pytest.raises(ValidationError, match="thermal-domain"):
            thermal(0.5)

    def test_symplectic_form_squares_to_minus_identity(self):
        sigma = symplectic_form(3)
        assert np.allclose(sigma @ sigma, -np.eye(6))


class TestSerialization:
    def test_roundtrip(self):
        t = two_mode_squeezed(0.4)
        back = covariance_from_dict(covariance_to_dict(t))
        assert np.allclose(back.matrix, t.matrix)

    def test_xxpp_ordering_is_permuted(self):
        t = two_mode_squeezed(0.4)
        perm = [0, 2, 1, 3]
        grouped = t.matrix[np.ix_(perm, perm)]
        cov = covariance_from_dict(
            {"modes": 2, "ordering": "xxpp", "cov": grouped.tolist()})
        assert np.allclose(cov.matrix, t.matrix)

    def test_mean_follows_the_permutation(self):
        cov = covariance_from_dict({
            "modes": 2, "ordering": "xxpp", "cov": np.eye(4).tolist(),
            "mean": [1.0, 2.0, 3.0, 4.0]})
        assert cov.first_moments.tolist() == [1.0, 3.0, 2.0, 4.0]

    @pytest.mark.parametrize("mean", [[1.0], [1.0, 2.0, 3.0, 4.0, 5.0]], ids=len)
    def test_grouped_mean_of_another_length_is_refused(self, mean):
        with pytest.raises(ValidationError, match="cov-moments"):
            covariance_from_dict({"modes": 2, "ordering": "xxpp",
                                  "cov": np.eye(4).tolist(), "mean": mean})

    def test_rejects_malformed_payloads(self):
        with pytest.raises(ValidationError, match="cov-payload"):
            covariance_from_dict({"modes": 2})
        with pytest.raises(ValidationError, match="cov-ordering"):
            covariance_from_dict(
                {"modes": 1, "ordering": "ppxx", "cov": np.eye(2).tolist()})
        with pytest.raises(ValidationError, match="cov-shape"):
            covariance_from_dict({"modes": 2, "cov": np.eye(2).tolist()})


class TestCovarianceArrays:
    def test_covariance_is_immutable(self):
        cov = vacuum(1)
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 0.25
        moved = CovarianceMatrix(np.eye(2), [1.0, -1.0])
        with pytest.raises(ValueError):
            moved.first_moments[0] = 0.0

    def test_mean_is_a_copy(self):
        mean = np.array([1.0, 2.0])
        cov = CovarianceMatrix(np.eye(2), mean)
        mean[0] = 5.0
        assert cov.first_moments.tolist() == [1.0, 2.0]

    def test_unphysical_input_is_still_checked(self):
        flipped = partial_time_reversal(two_mode_squeezed(0.5), [1])
        assert not flipped.physical
        with pytest.raises(ValidationError, match="cov-uncertainty"):
            gaussian_entropy(flipped)
        with pytest.raises(ValidationError, match="cov-uncertainty"):
            gaussian_log_negativity(flipped)
