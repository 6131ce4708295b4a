"""Pure inputs in closed form: the REE and the Rains bound are the entropy of
entanglement E(psi), both robustnesses are ``(sum_i s_i)^2 - 1`` over the
Schmidt coefficients s, and the best separable approximation removes all of
an entangled psi, each ``"exact"`` with no solver run; a density operator
within the gap tolerance of a pure state gets the REE from a continuity
bound."""

import math

import numpy as np
import pytest

from entmeas import DensityOperator, PureState, is_ppt, partial_transpose, relative_entropy
from entmeas import variational
from entmeas.states import PPT_TOL
from entmeas.variational import (
    SolverConfig,
    best_separable_approximation,
    rains_bound,
    relative_entropy_of_entanglement,
    robustness,
)
from conftest import rand_pure

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

DIMS = [(2, 2), (2, 3), (3, 3), (3, 4)]


def schmidt_values(psi):
    return np.linalg.svd(psi.vector.reshape(psi.dims), compute_uv=False)


def entropy(psi):
    probs = schmidt_values(psi) ** 2
    probs = probs[probs > 0.0]
    return float(-probs @ np.log2(probs))


def pure_robustness(psi):
    return float(schmidt_values(psi).sum()) ** 2 - 1.0


def distances(psi):
    return relative_entropy_of_entanglement(psi), rains_bound(psi)


def robustnesses(psi):
    return robustness(psi, "global"), robustness(psi, "separable")


def least_pt_eigenvalue(mat, dims):
    return float(np.linalg.eigvalsh(partial_transpose(mat, 1, dims))[0])


@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), dims=st.sampled_from(DIMS))
def test_pure_states_take_their_closed_forms(seed, dims):
    psi = rand_pure(np.random.default_rng(seed), dims)
    for res in distances(psi):
        assert res.status == "exact" and res.gap == 0.0 and res.iterations == 0
        assert res.value == pytest.approx(entropy(psi), abs=1e-12)
        assert res.witness_payload["certificate"] == "closed-form"
        assert res.witness_payload["lower_bound"] == res.value
    for res in robustnesses(psi):
        assert res.status == "exact" and res.gap == 0.0 and res.iterations == 0
        assert res.value == pytest.approx(pure_robustness(psi), abs=1e-12)
        assert res.witness_payload["relaxation"] == "exact"
    bsa = best_separable_approximation(psi)
    assert (bsa.weight, bsa.status, bsa.gap, bsa.iterations) == (1.0, "exact", 0.0, 0)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), dims=st.sampled_from(DIMS))
def test_closed_forms_lie_within_the_engines_gaps(seed, dims):
    """On the same state as a density operator: the SDP for the
    robustnesses and the BSA, the barrier for the Rains bound."""
    psi = rand_pure(np.random.default_rng(seed), dims)
    rho = psi.to_density()
    for noise in ("global", "separable"):
        res = robustness(rho, noise)
        assert abs(res.value - pure_robustness(psi)) <= res.gap + 1e-9
    bsa = best_separable_approximation(rho)
    assert abs(bsa.weight - 1.0) <= bsa.gap + 1e-9
    res = rains_bound(rho)
    assert res.witness_payload["certificate"] in ("central-point", "sdp")
    assert res.value - res.gap - 1e-9 <= entropy(psi) <= res.value + 1e-9


@pytest.mark.parametrize("dims", DIMS)
def test_pure_states_run_no_solver(monkeypatch, dims):
    def never(*_args, **_kwargs):
        raise AssertionError("a solver ran on a pure state")

    monkeypatch.setattr(variational, "sdp_solve", never)
    monkeypatch.setattr(variational, "_barrier_newton", never)
    psi = rand_pure(np.random.default_rng(3), dims)
    for res in distances(psi) + robustnesses(psi):
        assert res.status == "exact"
    assert best_separable_approximation(psi).status == "exact"


@pytest.mark.parametrize("dims", DIMS)
def test_closed_form_witnesses(dims):
    """sigma* is a separable state at relative entropy E(psi) from psi, and
    the noise is a separable state that washes psi's entanglement out."""
    psi = rand_pure(np.random.default_rng(5), dims)
    ree = relative_entropy_of_entanglement(psi).witness_payload
    sigma = ree["closest_state"]
    assert ree["separable_set"] == "exact"
    assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(sigma)[0] >= -1e-12
    assert least_pt_eigenvalue(sigma, dims) >= -1e-12
    assert relative_entropy(psi, sigma) == pytest.approx(entropy(psi), abs=1e-9)
    assert rains_bound(psi).witness_payload["minimizing_state"] == pytest.approx(sigma)
    for res in robustnesses(psi):
        noise = res.witness_payload["noise_state"]
        assert np.trace(noise).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(noise)[0] >= -1e-12
        assert least_pt_eigenvalue(noise, dims) >= -1e-12
        mixed = psi.to_density().matrix + res.value * noise
        assert least_pt_eigenvalue(mixed, dims) >= -1e-12
    bsa = best_separable_approximation(psi)
    assert np.array_equal(bsa.remainder, np.outer(psi.vector, psi.vector.conj()))
    assert not bsa.separable_part.any()


def test_product_state_is_zero_everywhere():
    psi = PureState(np.kron([0.6, 0.8j], [1.0, 1.0, 1.0]) / math.sqrt(3.0), (2, 3))
    for res in distances(psi) + robustnesses(psi):
        assert (res.value, res.status, res.gap) == (0.0, "exact", 0.0)
    for res in robustnesses(psi):
        assert res.witness_payload["noise_state"] is None
    assert relative_entropy_of_entanglement(psi).witness_payload["closest_state"] == \
        pytest.approx(psi.to_density().matrix)
    bsa = best_separable_approximation(psi)
    assert (bsa.weight, bsa.status) == (0.0, "exact")
    assert np.array_equal(bsa.separable_part, np.outer(psi.vector, psi.vector.conj()))
    assert not bsa.remainder.any()


@pytest.mark.parametrize("product", [0.5 * PPT_TOL, 2.0 * PPT_TOL])
def test_entanglement_follows_the_ppt_rule(product):
    """``(psi psi^H)^Gamma`` has least eigenvalue ``-s_1 s_2``: psi is
    entangled exactly when is_ppt refuses it."""
    small = product  # s_2 with s_1 within 1e-24 of 1
    psi = PureState([math.sqrt(1.0 - small ** 2), 0.0, 0.0, small], (2, 2))
    entangled = not is_ppt(psi.to_density(), 0)
    assert entangled == (product > PPT_TOL)
    assert (relative_entropy_of_entanglement(psi).value > 0.0) == entangled
    assert (robustness(psi).value > 0.0) == entangled
    assert best_separable_approximation(psi).weight == float(entangled)


def test_rank_one_density_operator_takes_the_continuity_bound(monkeypatch):
    def never(*_args, **_kwargs):
        raise AssertionError("the barrier ran on a pure density operator")

    monkeypatch.setattr(variational, "_barrier_newton", never)
    for dims in DIMS:
        psi = rand_pure(np.random.default_rng(7), dims)
        res = relative_entropy_of_entanglement(psi.to_density())
        assert res.status == "converged" and res.iterations == 0
        assert res.gap <= 1e-12
        assert res.witness_payload["certificate"] == "continuity"
        assert res.witness_payload["lower_bound"] == pytest.approx(res.value - res.gap, abs=1e-15)
        assert res.value - res.gap <= entropy(psi) <= res.value


def test_noisy_pure_state_still_takes_the_barrier():
    psi = rand_pure(np.random.default_rng(9), (2, 3))
    rho = DensityOperator(0.999 * psi.to_density().matrix + 0.001 * np.eye(6) / 6, (2, 3))
    res = relative_entropy_of_entanglement(rho)
    assert res.status == "converged"
    assert res.iterations > 0
    assert res.witness_payload["certificate"] in ("central-point", "sdp")


def test_continuity_bound_follows_the_gap_tolerance():
    """``2 delta <= gap_tolerance`` decides: at eps = 7.5e-5 the bound
    ``delta = eps log2 2 + g(eps)`` is about 1.2e-3.  Both brackets hold
    the REE."""
    psi = rand_pure(np.random.default_rng(11), (2, 2))
    rho = DensityOperator(0.9999 * psi.to_density().matrix + 0.0001 * np.eye(4) / 4, (2, 2))
    loose = relative_entropy_of_entanglement(rho, config=SolverConfig(gap_tolerance=1e-2))
    assert loose.witness_payload["certificate"] == "continuity"
    assert 2e-3 < loose.gap <= 1e-2
    tight = relative_entropy_of_entanglement(rho)
    assert tight.witness_payload["certificate"] in ("central-point", "sdp")
    assert loose.value - loose.gap <= tight.value
    assert tight.value - tight.gap <= loose.value
