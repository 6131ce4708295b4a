"""Property test over the CLI's state-file intake: whatever JSON values a
state file holds in ``dims`` and ``matrix`` or ``vector``, ``measure
logneg`` ends with exit code 0 or 2 and never raises out of ``cli.run``."""

import json

import pytest

from entmeas.cli import RunConfig, run

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# floats include NaN and the infinities; pairs of small numbers make some
# files valid states
SMALL = st.sampled_from([0, 0.5, 1, -1])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2) | SMALL
JSON = st.recursive(SCALARS, lambda children: st.lists(children, max_size=4), max_leaves=24)
SIDE = st.sampled_from([1, 2, 4])


def _shaped(field, leaf):
    """``[re, im]`` pairs of ``leaf``: n of them for a vector, n rows of n
    for a matrix."""
    pair = st.lists(leaf, min_size=2, max_size=2)

    def nest(n):
        row = st.lists(pair, min_size=n, max_size=n)
        return row if field == "vector" else st.lists(row, min_size=n, max_size=n)
    return SIDE.flatmap(nest)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(dims=st.sampled_from([[1], [2], [4], [2, 2]]) | JSON,
       field=st.sampled_from(["matrix", "vector"]),
       data=st.data())
def test_state_file_ends_in_exit_0_or_2(tmp_path_factory, dims, field, data):
    value = data.draw(_shaped(field, SMALL) | _shaped(field, SCALARS) | JSON, label=field)
    path = tmp_path_factory.getbasetemp() / "fuzz-state.json"
    path.write_text(json.dumps({"dims": dims, field: value}))
    code, text = run(RunConfig(command="measure", state=str(path), measure="logneg"))
    assert code in (0, 2), text
