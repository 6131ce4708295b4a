"""Tests for distillability bounds, Werner states, and twirling."""

import numpy as np
import pytest

from entmeas import (
    DensityOperator,
    ValidationError,
    max_entangled,
    partial_transpose,
    permute_subsystems,
)
from entmeas.bounds import (
    BoundsReport,
    bounds_report,
    conditional_entropy,
    hashing_lower_bound,
    is_ppt,
    uu_twirl_two_qubit,
    werner_state,
)
from entmeas import bounds, variational
from entmeas.closed_form import binary_entropy, log_negativity
from entmeas.variational import SolverConfig
from conftest import rand_unitary

BELL = max_entangled(2).to_density()
MIXED = DensityOperator(np.eye(4) / 4, (2, 2))
FAST = SolverConfig(max_iterations=200, gap_tolerance=1e-6, restarts=3, seed=0)


def rand_rho(rng, n=4, dims=(2, 2)):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = g @ g.conj().T
    return DensityOperator(mat / np.real(np.trace(mat)), dims)


def bell_correlated(a, b):
    mat = np.zeros((4, 4))
    mat[0, 0] = a
    mat[3, 3] = 1.0 - a
    mat[0, 3] = mat[3, 0] = b
    return DensityOperator(mat, (2, 2))


class TestConditionalEntropy:
    def test_bell_state_is_minus_one(self):
        assert conditional_entropy(BELL) == pytest.approx(-1.0, abs=1e-9)

    def test_maximally_mixed_is_plus_one(self):
        assert conditional_entropy(MIXED) == pytest.approx(1.0, abs=1e-12)

    def test_product_pure_is_zero(self):
        rho = DensityOperator(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        assert conditional_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_conditions_on_the_second_party(self):
        # |0><0| (x) I/2: S(AB) = S(B) = 1, so S(A|B) = 0 while S(B|A) = 1
        rho = DensityOperator(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
        assert conditional_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_requires_bipartite_input(self):
        with pytest.raises(ValidationError, match="bipartite"):
            conditional_entropy(DensityOperator(np.eye(8) / 8, (2, 2, 2)))


class TestHashingLowerBound:
    def test_bell_state(self):
        assert hashing_lower_bound(BELL) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert hashing_lower_bound(MIXED) == 0.0

    def test_bell_correlated_golden_value(self):
        value = hashing_lower_bound(bell_correlated(0.5, 0.3))
        assert value == pytest.approx(1.0 - binary_entropy(0.8), abs=1e-12)
        assert value == pytest.approx(0.27807, abs=5e-6)

    def test_maximizes_over_both_directions(self, rng):
        for _ in range(10):
            rho = rand_rho(rng)
            swapped = permute_subsystems(rho, (1, 0))
            expected = max(-conditional_entropy(rho),
                           -conditional_entropy(swapped), 0.0)
            assert hashing_lower_bound(rho) == pytest.approx(expected, abs=1e-12)
            assert hashing_lower_bound(rho) >= 0.0


class TestIsPpt:
    def test_separable_state(self):
        assert is_ppt(DensityOperator(np.diag([0.5, 0.2, 0.2, 0.1]), (2, 2)))

    def test_bell_state(self):
        assert not is_ppt(BELL)

    def test_boundary_mixture(self):
        # PT eigenvalue (1 - 3q)/4 vanishes at q = 1/3
        q = 1.0 / 3.0
        rho = DensityOperator((1 - q) * np.eye(4) / 4 + q * BELL.matrix, (2, 2))
        assert is_ppt(rho)

    def test_cut_choice_is_equivalent_for_bipartite(self, rng):
        rho = rand_rho(rng)
        assert is_ppt(rho, cut=0) == is_ppt(rho, cut=1)

    @pytest.mark.parametrize("low", [-5e-11, -5e-13])
    def test_one_verdict_near_the_boundary(self, low):
        # isotropic state whose least PT eigenvalue (1 - 3p)/4 is `low`
        p = (1.0 - 4.0 * low) / 3.0
        rho = DensityOperator(p * BELL.matrix + (1.0 - p) * np.eye(4) / 4, (2, 2))
        ppt = low > -1e-12
        assert is_ppt(rho) is ppt
        report = bounds_report(rho, skip=("rains", "ree"))
        assert report.ppt is ppt
        assert report.notes["witness"].endswith("no violation found") is ppt
        assert (report.upper["log_negativity"] == 0.0) is ppt
        assert ("distillable" in report.upper) is ppt

    def test_raw_arrays_need_dims(self):
        assert is_ppt(np.diag([0.5, 0.2, 0.2, 0.1]), dims=(2, 2))
        assert not is_ppt(BELL.matrix, 1, dims=(2, 2))
        with pytest.raises(ValidationError, match="dims-required"):
            is_ppt(BELL.matrix)

    def test_every_subsystem_is_not_a_cut(self):
        # transposing every subsystem is the full transpose, always positive
        with pytest.raises(ValidationError, match="bipartition"):
            is_ppt(max_entangled(2), (0, 1))
        with pytest.raises(ValidationError, match="bipartition"):
            is_ppt(BELL.matrix, (1, 0), dims=(2, 2))
        assert not is_ppt(max_entangled(2), (0,))


class TestWernerState:
    def test_singlet_at_full_antisymmetric_weight(self):
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        w = werner_state(2, 1.0)
        assert np.allclose(w.matrix, np.outer(singlet, singlet), atol=1e-12)

    def test_symmetric_projector_shape(self):
        w = werner_state(3, 0.0)
        assert np.real(np.trace(w.matrix)) == pytest.approx(1.0, abs=1e-12)
        eigs = np.linalg.eigvalsh(w.matrix)
        assert np.sum(eigs > 1e-12) == 6

    def test_uu_invariance(self, rng):
        for d in (2, 3):
            w = werner_state(d, 0.7)
            for _ in range(3):
                u = rand_unitary(rng, d)
                local = np.kron(u, u)
                rotated = local @ w.matrix @ local.conj().T
                fidelity = np.real(np.trace(rotated @ w.matrix))
                reference = np.real(np.trace(w.matrix @ w.matrix))
                assert abs(fidelity - reference) < 1e-9
                assert np.allclose(rotated, w.matrix, atol=1e-9)

    def test_pt_eigenvalue_sign_flips_once(self):
        for d in (2, 3, 4):
            signs = []
            for p in np.linspace(0.0, 1.0, 41):
                low = np.linalg.eigvalsh(
                    partial_transpose(werner_state(d, p), 0))[0]
                if abs(low) > 1e-12:
                    signs.append(np.sign(low))
            flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert flips == 1

    def test_domain_validation(self):
        with pytest.raises(ValidationError, match="werner-dimension"):
            werner_state(1, 0.5)
        with pytest.raises(ValidationError, match="werner-weight"):
            werner_state(2, 1.5)


class TestUuTwirlTwoQubit:
    def test_invariant_states_are_fixed(self):
        singlet = werner_state(2, 1.0)
        assert np.allclose(uu_twirl_two_qubit(singlet).matrix, singlet.matrix,
                           atol=1e-12)
        assert np.allclose(uu_twirl_two_qubit(MIXED).matrix, MIXED.matrix,
                           atol=1e-12)

    def test_product_basis_state_maps_to_symmetric_projector(self):
        rho = DensityOperator(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        out = uu_twirl_two_qubit(rho)
        assert np.allclose(out.matrix, werner_state(2, 0.0).matrix, atol=1e-12)

    def test_idempotent_and_trace_preserving(self, rng):
        rho = rand_rho(rng)
        once = uu_twirl_two_qubit(rho)
        twice = uu_twirl_two_qubit(once)
        assert np.allclose(once.matrix, twice.matrix, atol=1e-12)
        assert np.real(np.trace(once.matrix)) == pytest.approx(1.0, abs=1e-12)

    def test_output_commutes_with_local_rotations(self, rng):
        out = uu_twirl_two_qubit(rand_rho(rng))
        for _ in range(5):
            u = rand_unitary(rng, 2)
            local = np.kron(u, u)
            assert np.allclose(local @ out.matrix,
                               out.matrix @ local, atol=1e-9)

    def test_never_increases_log_negativity(self, rng):
        for _ in range(20):
            rho = rand_rho(rng)
            assert (log_negativity(uu_twirl_two_qubit(rho))
                    <= log_negativity(rho) + 1e-9)

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValidationError, match="twirl-dims"):
            uu_twirl_two_qubit(DensityOperator(np.eye(9) / 9, (3, 3)))


class TestBoundsReport:
    def test_bell_state_sandwich(self):
        rep = bounds_report(BELL, config=FAST)
        assert not rep.ppt
        assert rep.lower["hashing"] == pytest.approx(1.0, abs=1e-9)
        assert rep.upper["log_negativity"] == pytest.approx(1.0, abs=1e-12)
        assert rep.upper["ree"] == pytest.approx(1.0, abs=1e-3)
        assert rep.notes["log_negativity"] == "exact"
        assert "distillable" not in rep.upper

    def test_maximally_mixed_pins_distillable(self):
        rep = bounds_report(MIXED, config=FAST)
        assert rep.ppt
        assert rep.lower["hashing"] == 0.0
        assert rep.upper["distillable"] == 0.0
        assert all(v <= 1e-6 for v in rep.upper.values())

    def test_ppt_state_declares_zero_distillable(self):
        rho = DensityOperator((2 / 3) * np.eye(4) / 4 + (1 / 3) * BELL.matrix,
                              (2, 2))
        rep = bounds_report(rho, config=FAST)
        assert rep.ppt
        assert rep.upper["distillable"] == 0.0
        assert rep.lower["hashing"] == 0.0

    def test_skip_removes_entries(self):
        rep = bounds_report(BELL, config=FAST, skip=("rains",))
        assert "rains" not in rep.upper
        rep = bounds_report(BELL, config=FAST, skip=("rains", "ree"))
        assert set(rep.upper) == {"log_negativity"}

    def test_witness_violation_is_a_note_not_a_bound(self):
        rep = bounds_report(BELL, config=FAST, skip=("rains", "ree"))
        assert "witness" not in rep.lower
        assert rep.notes["witness"] == "exact; violation 0.5"

    def test_raw_array_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="state-type"):
            bounds_report(np.eye(4) / 4)

    def test_rejects_unknown_skip_names(self):
        with pytest.raises(ValidationError, match="skip-names"):
            bounds_report(BELL, skip=("squashed",))

    def test_lower_bounds_never_exceed_certified_uppers(self, rng):
        for _ in range(3):
            rep = bounds_report(rand_rho(rng), config=FAST)
            certified = [v for k, v in rep.upper.items()
                         if rep.notes[k].startswith(("exact", "converged"))]
            for low in rep.lower.values():
                assert all(low <= up + 1e-3 for up in certified)

    def test_report_invariants_are_enforced(self):
        with pytest.raises(ValidationError, match="bounds-order"):
            BoundsReport(lower={"hashing": 1.0}, upper={"ree": 0.5},
                         ppt=False, notes={"ree": "converged"})
        with pytest.raises(ValidationError, match="ppt-hashing"):
            BoundsReport(lower={"hashing": 0.2}, upper={"distillable": 0.0},
                         ppt=True, notes={})
        with pytest.raises(ValidationError, match="ppt-distillable"):
            BoundsReport(lower={"hashing": 0.0}, upper={}, ppt=True, notes={})


class TestOneReePerReport:
    @pytest.fixture
    def ree_calls(self, monkeypatch):
        calls = []
        original = variational.relative_entropy_of_entanglement

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(variational, "relative_entropy_of_entanglement", counted)
        monkeypatch.setattr(bounds, "relative_entropy_of_entanglement", counted)
        return calls

    def test_report_computes_ree_once(self, ree_calls):
        rep = bounds_report(BELL, config=FAST)
        assert len(ree_calls) == 1
        assert {"ree", "rains"} <= set(rep.upper)

    def test_skipping_ree_keeps_rains(self, ree_calls):
        rep = bounds_report(BELL, config=FAST, skip=("ree",))
        assert "ree" not in rep.upper
        assert rep.upper["rains"] == pytest.approx(1.0, abs=1e-3)
        assert len(ree_calls) == 0


class TestSandwichProperty:
    def test_hashing_below_log_negativity(self, rng):
        for _ in range(100):
            rho = rand_rho(rng)
            assert hashing_lower_bound(rho) <= log_negativity(rho) + 1e-6


class TestReportLimit:
    SIX = DensityOperator(0.5 * max_entangled(6).to_density().matrix + 0.5 * np.eye(36) / 36,
                          (6, 6))

    def test_refused_before_any_entry_runs(self, monkeypatch):
        def never(*_args, **_kwargs):
            raise AssertionError("the REE ran on a state the report refuses")

        monkeypatch.setattr(bounds, "relative_entropy_of_entanglement", never)
        with pytest.raises(ValidationError, match="^dimension-limit"):
            bounds_report(self.SIX, config=FAST)

    def test_limit_follows_the_entries_that_run(self):
        seven = DensityOperator(np.eye(49) / 49, (7, 7))
        with pytest.raises(ValidationError, match="^dimension-limit"):
            bounds_report(seven, skip=("rains",))
        rep = bounds_report(seven, skip=("rains", "ree"))
        assert rep.ppt and set(rep.upper) == {"log_negativity", "distillable"}


class TestReportCertifiesWithoutSdp:
    """A 2x2 report's REE and Rains bound certify at the barrier's central
    point: no certificate SDP runs."""

    BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)
    PURE = np.array([0.8, 0.3, 0.1j, 0.5])

    @pytest.mark.parametrize("state", [
        DensityOperator((BELL_BASIS.T * [0.6, 0.2, 0.15, 0.05]) @ BELL_BASIS, (2, 2)),
        DensityOperator(np.outer(PURE, PURE.conj()) / np.vdot(PURE, PURE).real, (2, 2)),
    ], ids=["bell-diagonal", "pure"])
    def test_no_sdp_solve(self, monkeypatch, state):
        calls = []
        solve = variational.sdp_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(variational, "sdp_solve", counted)
        rep = bounds_report(state, config=FAST)
        assert calls == []
        assert rep.notes["ree"] == rep.notes["rains"] == "converged"


class TestOneSpectrumPerReport:
    """A report decomposes the partial transpose once, by ``eigvalsh``, and
    once more, by ``eigh``, only for the witness of an NPT state."""

    @pytest.mark.parametrize("p, npt", [(0.3, False), (0.8, True)], ids=["ppt", "npt"])
    def test_partial_transpose_is_decomposed_once(self, monkeypatch, p, npt):
        rho = werner_state(2, p)
        transposed = partial_transpose(rho, 1)
        calls = []
        for name in ("eigvalsh", "eigh"):
            def counted(mat, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                if np.shape(mat) == transposed.shape and np.array_equal(mat, transposed):
                    calls.append(_name)
                return _original(mat, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        report = bounds_report(rho, skip=("ree", "rains"))
        assert calls == ["eigvalsh"] + ["eigh"] * npt
        assert report.ppt is not npt
        assert report.upper["log_negativity"] == log_negativity(rho)
