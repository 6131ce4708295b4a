"""Closed-form measures: concurrence, formation, negativity, tangles."""

import math

import numpy as np
import pytest

from entmeas import (
    DensityOperator,
    PureState,
    UnsupportedCaseError,
    ValidationError,
    ghz_state,
    max_entangled,
    partial_trace,
    w_state,
)
from entmeas.closed_form import (
    binary_entropy,
    ckw_check,
    concurrence,
    eof_two_qubit,
    log_negativity,
    negativity,
    residual_tangle,
    tangle,
)
from conftest import rand_pure, rand_rho, rand_unitary


def two_qubit_pure(alpha, beta):
    vec = np.zeros(4, dtype=complex)
    vec[0], vec[3] = alpha, beta
    return PureState(vec, (2, 2))


def werner_mix(q):
    """q * Bell + (1 - q) * I/4, entangled exactly for q > 1/3."""
    bell = max_entangled(2).to_density().matrix
    return DensityOperator(q * bell + (1 - q) * np.eye(4) / 4, (2, 2))


class TestConcurrence:
    def test_pure_state_closed_form(self, rng):
        # C(a|00> + b|11>) = 2ab
        for _ in range(10):
            theta = rng.uniform(0, math.pi / 4)
            a, b = math.cos(theta), math.sin(theta)
            assert abs(concurrence(two_qubit_pure(a, b)) - 2 * a * b) < 1e-10

    def test_bell_state_is_maximal(self):
        assert abs(concurrence(max_entangled(2)) - 1.0) < 1e-12

    def test_separable_states_vanish(self, rng):
        for _ in range(10):
            a = rand_rho(rng, [2]).matrix
            b = rand_rho(rng, [2]).matrix
            sep = DensityOperator(np.kron(a, b), (2, 2))
            assert concurrence(sep) < 1e-10

    def test_werner_threshold(self):
        # C(q Bell + (1-q) I/4) = max(0, (3q - 1)/2)
        for q in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
            expected = max(0.0, (3 * q - 1) / 2)
            assert abs(concurrence(werner_mix(q)) - expected) < 1e-10

    def test_local_unitary_invariance(self, rng):
        rho = rand_rho(rng, [2, 2])
        u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (2, 2))
        assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9

    def test_rejects_wrong_dims(self, rng):
        with pytest.raises(ValidationError, match="dims"):
            concurrence(rand_rho(rng, [2, 3]))


class TestFormation:
    def test_binary_entropy_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.64) - 0.9426831892554922) < 1e-14

    def test_bell_state_is_one_bit(self):
        assert abs(eof_two_qubit(max_entangled(2)) - 1.0) < 1e-12

    def test_matches_entanglement_entropy_on_pure_states(self, rng):
        # For pure states formation equals the reduced-state entropy.
        for _ in range(10):
            theta = rng.uniform(0.05, math.pi / 4)
            a, b = math.cos(theta), math.sin(theta)
            expected = binary_entropy(a * a)
            assert abs(eof_two_qubit(two_qubit_pure(a, b)) - expected) < 1e-10

    def test_monotone_in_concurrence(self):
        values = [eof_two_qubit(werner_mix(q)) for q in np.linspace(0.4, 1.0, 7)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_separable_vanishes(self):
        assert eof_two_qubit(werner_mix(1 / 3)) < 1e-9


class TestNegativity:
    def test_bell_value(self):
        assert abs(negativity(max_entangled(2)) - 0.5) < 1e-12
        assert abs(log_negativity(max_entangled(2)) - 1.0) < 1e-12

    def test_maximally_entangled_qutrits(self):
        assert abs(negativity(max_entangled(3)) - 1.0) < 1e-12
        assert abs(log_negativity(max_entangled(3)) - math.log2(3)) < 1e-12

    def test_ppt_states_vanish(self, rng):
        for _ in range(10):
            a = rand_rho(rng, [2]).matrix
            b = rand_rho(rng, [2]).matrix
            sep = DensityOperator(np.kron(a, b), (2, 2))
            assert negativity(sep) == 0.0
            assert log_negativity(sep) == 0.0

    def test_trace_slack_is_not_entanglement(self):
        # a product state whose trace is 1 + 9e-11, inside the accepted slack
        sep = DensityOperator(np.diag([0.25, 0.25, 0.25, 0.25 + 0.9e-10]), (2, 2))
        assert negativity(sep) == 0.0
        assert log_negativity(sep) == 0.0

    def test_every_subsystem_is_not_a_cut(self):
        # transposing every subsystem is the full transpose, always positive
        with pytest.raises(ValidationError, match="bipartition"):
            negativity(max_entangled(2), (0, 1))
        with pytest.raises(ValidationError, match="bipartition"):
            log_negativity(ghz_state(3), (0, 1, 2))
        assert abs(log_negativity(ghz_state(3), (0, 2)) - 1.0) < 1e-12

    def test_additive_over_tensor_products(self, rng):
        # Log-negativity across a grouped cut adds for product states.
        for _ in range(5):
            r1 = rand_rho(rng, [2, 2])
            r2 = rand_rho(rng, [2, 2])
            joint = DensityOperator(np.kron(r1.matrix, r2.matrix), (2, 2, 2, 2))
            lhs = log_negativity(joint, transposed=(1, 3))
            rhs = log_negativity(r1, 1) + log_negativity(r2, 1)
            assert abs(lhs - rhs) < 1e-9

    def test_cut_symmetry(self, rng):
        rho = rand_rho(rng, [2, 3])
        assert abs(negativity(rho, 0) - negativity(rho, 1)) < 1e-10

    def test_pure_state_formula(self, rng):
        # N(psi) = ((sum_i sqrt(alpha_i))^2 - 1) / 2 via Schmidt coefficients
        from entmeas.locc import schmidt

        psi = rand_pure(rng, [3, 3])
        coeffs = schmidt(psi).coefficients
        expected = (np.sum(np.sqrt(coeffs)) ** 2 - 1) / 2
        assert abs(negativity(psi) - expected) < 1e-9


class TestTangle:
    def test_pure_two_qubit_equals_squared_concurrence(self, rng):
        for _ in range(10):
            psi = rand_pure(rng, [2, 2])
            assert abs(tangle(psi) - concurrence(psi) ** 2) < 1e-9

    def test_w_state_tangles(self):
        # One-to-rest tangle 8/9; pairwise tangle 4/9 for each pair.
        w = w_state(3)
        assert abs(tangle(w, qubit=0) - 8 / 9) < 1e-10
        pair = partial_trace(w.to_density(), (0, 1))
        assert abs(tangle(pair) - 4 / 9) < 1e-10

    def test_mixed_two_qubit(self):
        rho = werner_mix(0.8)
        assert abs(tangle(rho) - concurrence(rho) ** 2) < 1e-12

    def test_unsupported_mixed_case(self, rng):
        rho = rand_rho(rng, [2, 3])
        with pytest.raises(UnsupportedCaseError):
            tangle(rho)

    def test_qubit_side_must_be_qubit(self, rng):
        psi = rand_pure(rng, [3, 2])
        with pytest.raises(ValidationError, match="dims"):
            tangle(psi, qubit=0)
        assert tangle(psi, qubit=1) >= 0.0


class TestResidualTangle:
    def test_ghz_is_maximal(self):
        assert abs(residual_tangle(ghz_state(3)) - 1.0) < 1e-10

    def test_w_state_vanishes(self):
        assert abs(residual_tangle(w_state(3))) < 1e-9

    def test_pivot_independence(self, rng):
        for _ in range(10):
            psi = rand_pure(rng, [2, 2, 2])
            vals = [residual_tangle(psi, pivot=p) for p in range(3)]
            assert max(vals) - min(vals) < 1e-9

    def test_product_of_pair_and_single(self, rng):
        # (Bell x |0>) has tau(A:BC) = tau(A,B), so residual vanishes.
        bell = max_entangled(2).vector
        single = np.array([1.0, 0.0])
        psi = PureState(np.kron(bell, single), (2, 2, 2))
        assert residual_tangle(psi) < 1e-10


class TestCkwReport:
    def test_ghz_report(self):
        report = ckw_check(ghz_state(3))
        assert report.ckw_satisfied
        assert abs(report.residual - 1.0) < 1e-10
        for pair, value in report.pairwise.items():
            assert value < 1e-10
        for _, value in report.one_to_rest.items():
            assert abs(value - 1.0) < 1e-10

    def test_w_report(self):
        report = ckw_check(w_state(3))
        assert report.ckw_satisfied
        assert abs(report.residual) < 1e-9
        for value in report.pairwise.values():
            assert abs(value - 4 / 9) < 1e-9

    def test_monogamy_on_random_states(self, rng):
        for _ in range(25):
            psi = rand_pure(rng, [2, 2, 2])
            report = ckw_check(psi)
            assert report.ckw_satisfied
            assert report.residual >= 0.0

    def test_four_qubit_report(self, rng):
        report = ckw_check(ghz_state(4))
        assert report.ckw_satisfied
        assert report.residual is None
        assert len(report.pairwise) == 6

    def test_requires_qubits(self, rng):
        with pytest.raises(ValidationError, match="dims"):
            ckw_check(rand_pure(rng, [2, 3, 2]))
