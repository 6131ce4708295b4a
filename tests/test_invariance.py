"""Property tests: the certified distance measures are local-unitary invariant,
the Rains bound sits in the chain hashing <= Rains <= REE, log-negativity,
the robustnesses in the chain negativity <= global <= separable noise,
the partial transpose of a raw operator is a trace- and
Hermiticity-preserving involution, is_ppt, negativity and the
partial-transpose witness give one PPT verdict, and the REE and Rains bound
bracket their closed forms on T-states and pure states, with the barrier's
central-point bound below the certificate SDP's optimum."""

import numpy as np
import pytest

from entmeas import DensityOperator, is_ppt, partial_transpose, variational
from entmeas.bounds import bounds_report, hashing_lower_bound
from entmeas.closed_form import log_negativity, negativity
from entmeas.sdp import sdp_solve
from entmeas.states import PPT_TOL
from entmeas.variational import (
    minimize_over_ppt_states,
    rains_bound,
    relative_entropy_of_entanglement,
    robustness,
    witness_violation,
)
from conftest import rand_pure, rand_rho, rand_unitary

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=15, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       rank=st.integers(min_value=1, max_value=4))
def test_two_qubit_distances_are_local_unitary_invariant(seed, rank):
    rng = np.random.default_rng(seed)
    rho = rand_rho(rng, (2, 2), rank)
    u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
    rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (2, 2))
    for measure in (relative_entropy_of_entanglement, rains_bound):
        before, after = measure(rho), measure(rotated)
        assert abs(before.value - after.value) <= before.gap + after.gap + 1e-9


@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       rank=st.integers(min_value=1, max_value=9))
def test_rains_bound_sits_in_the_bound_chain(seed, dims, rank):
    rho = rand_rho(np.random.default_rng(seed), dims, min(rank, dims[0] * dims[1]))
    rains = rains_bound(rho)
    ree = relative_entropy_of_entanglement(rho)
    assert hashing_lower_bound(rho) <= rains.value
    assert rains.value - rains.gap <= ree.value
    assert rains.value - rains.gap <= log_negativity(rho) + 1e-9


@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       rank=st.integers(min_value=1, max_value=9))
def test_robustnesses_sit_in_the_negativity_chain(seed, dims, rank):
    rho = rand_rho(np.random.default_rng(seed), dims, min(rank, dims[0] * dims[1]))
    glob, sep = robustness(rho, "global"), robustness(rho, "separable")
    assert negativity(rho) - 1e-7 <= glob.value
    # each value lies above its own optimum by at most its gap
    assert glob.value <= sep.value + glob.gap + sep.gap


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       da=st.integers(min_value=2, max_value=3),
       db=st.integers(min_value=2, max_value=4),
       parties=st.sampled_from([0, 1, (0, 1)]))
def test_partial_transpose_is_a_hermitian_involution(seed, da, db, parties):
    rng = np.random.default_rng(seed)
    n = da * db
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g + g.conj().T
    pt = partial_transpose(h, parties, dims=(da, db))
    assert np.array_equal(partial_transpose(pt, parties, dims=(da, db)), h)
    assert np.trace(pt) == np.trace(h)
    assert np.array_equal(pt, pt.conj().T)


def _mixed_at_margin(rng, dims, margin):
    """A random pure state psi and t psi + (1 - t) I/n, whose partial transpose
    has least eigenvalue t low + (1 - t)/n = margin (low: that of psi)."""
    n = dims[0] * dims[1]
    psi = rand_pure(rng, dims).to_density().matrix
    low = np.linalg.eigvalsh(partial_transpose(psi, 1, dims))[0]
    hypothesis.assume(low < margin)
    t = (1.0 / n - margin) / (1.0 / n - low)
    return psi, t * psi + (1.0 - t) * np.eye(n) / n


def _assert_one_ppt_verdict(state):
    ppt = is_ppt(state, 1)
    assert (negativity(state) == 0.0) is ppt
    assert (witness_violation(state)[0] is None) is ppt
    assert bounds_report(state, skip=("ree", "rains")).ppt is ppt


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       exponent=st.floats(min_value=-15.0, max_value=-2.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_one_ppt_decision_across_the_boundary(seed, dims, exponent, sign):
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1]
    psi, mixed = _mixed_at_margin(rng, dims, sign * 10.0 ** exponent)
    u = np.kron(rand_unitary(rng, dims[0]), rand_unitary(rng, dims[1]))
    rho = DensityOperator(mixed, dims)
    rotated = DensityOperator(u @ mixed @ u.conj().T, dims)
    for state in (rho, rotated):
        _assert_one_ppt_verdict(state)
    assert abs(negativity(rho) - negativity(rotated)) <= 1e-12

    # tr(W sigma) = <eta|sigma^Gamma|eta> >= 0 for the witness W of an NPT
    # state and any PPT sigma, here the linear minimizer of a random objective
    witness, _ = witness_violation(DensityOperator(psi, dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    _, sigma = minimize_over_ppt_states(g + g.conj().T, dims)
    assert np.real(np.vdot(witness, sigma)) >= -1e-9


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       offset=st.floats(min_value=-1e-13, max_value=1e-13))
def test_one_ppt_rule_at_its_tolerance(seed, dims, offset):
    """The least partial-transpose eigenvalue within 1e-13 of -PPT_TOL.  Here
    the negativity jumps between 0 and about PPT_TOL, so a rotated copy may
    fall on the other side and only the one state's verdicts are compared."""
    _, mixed = _mixed_at_margin(np.random.default_rng(seed), dims, offset - PPT_TOL)
    _assert_one_ppt_verdict(DensityOperator(mixed, dims))


BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)


def entropy_bits(probs):
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log2(probs)))


def assert_brackets(oracle, res):
    """The closed form lies between the certified bound and the value."""
    assert res.value - res.gap - 1e-9 <= oracle <= res.value + 1e-9


@settings(max_examples=15, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_t_state_distances_match_the_closed_form(seed):
    """A T-state (Bell-diagonal, weights lam) in a random local frame has REE
    and Rains bound ``1 - h(lam_max)``, 0 when ``lam_max <= 1/2``."""
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(4))
    top = float(lam.max())
    oracle = 1.0 - entropy_bits(np.array([top, 1.0 - top])) if top > 0.5 else 0.0
    u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
    rho = DensityOperator(u @ ((BELL_BASIS.T * lam) @ BELL_BASIS) @ u.conj().T, (2, 2))
    for measure in (relative_entropy_of_entanglement, rains_bound):
        assert_brackets(oracle, measure(rho))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       dims=st.sampled_from([(2, 2), (2, 3)]))
def test_pure_state_distances_are_the_entanglement_entropy(seed, dims):
    psi = rand_pure(np.random.default_rng(seed), dims)
    schmidt = np.linalg.svd(psi.vector.reshape(dims), compute_uv=False) ** 2
    oracle = entropy_bits(schmidt)
    for measure in (relative_entropy_of_entanglement, rains_bound):
        assert_brackets(oracle, measure(psi))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       dims=st.sampled_from([(2, 2), (2, 3)]),
       rank=st.integers(min_value=1, max_value=6))
def test_central_point_bound_stays_below_the_sdp_optimum(seed, dims, rank):
    """At the same gradient, the bound from the barrier's central point never
    exceeds the certificate SDP's primal value, an upper bound on the
    linear minimum it bounds from below."""
    rho = rand_rho(np.random.default_rng(seed), dims, min(rank, dims[0] * dims[1]))
    central, seen = variational._central_bound, []

    def recording(problem, *args):
        seen.append((problem, central(problem, *args)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variational, "_central_bound", recording)
        for measure in (relative_entropy_of_entanglement, rains_bound):
            measure(rho)
    for problem, bound in seen:
        sol = sdp_solve(problem)
        assert sol.status == "optimal"
        assert bound <= sol.value + 1e-9 * (1.0 + abs(sol.value))
