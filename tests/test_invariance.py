"""Property tests: the certified distance measures are local-unitary invariant."""

import numpy as np
import pytest

from entmeas import DensityOperator
from entmeas.variational import rains_bound, relative_entropy_of_entanglement
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
