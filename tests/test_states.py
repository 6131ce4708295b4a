"""Core state types, entropic primitives, and Kraus application."""

import json
import math

import numpy as np
import pytest

from entmeas import (
    DensityOperator,
    KrausSet,
    MeasureResult,
    PureState,
    ValidationError,
    apply_kraus,
    conditional_mutual_information,
    ghz_state,
    max_entangled,
    mutual_information,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    relative_entropy,
    state_from_dict,
    state_to_dict,
    trace_norm,
    von_neumann_entropy,
    w_state,
)
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

    def test_kraus_completeness(self):
        half = np.eye(2) / np.sqrt(2)
        with pytest.raises(ValidationError, match="kraus-completeness"):
            KrausSet([half], trace_preserving=True)
        ks = KrausSet([half, half], trace_preserving=True)
        assert len(ks) == 2

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
