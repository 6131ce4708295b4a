"""Property tests: the certified distance measures are local-unitary invariant,
the Rains bound sits in the chain hashing <= Rains <= REE, log-negativity,
the robustnesses in the chain negativity <= global <= separable noise,
and the partial transpose of a raw operator is a trace- and
Hermiticity-preserving involution."""

import numpy as np
import pytest

from entmeas import DensityOperator, partial_transpose
from entmeas.bounds import hashing_lower_bound
from entmeas.closed_form import log_negativity, negativity
from entmeas.variational import rains_bound, relative_entropy_of_entanglement, robustness
from conftest import rand_rho, rand_unitary

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
