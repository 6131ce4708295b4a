"""Property tests over the CLI's intake.  Whatever JSON values a state file
holds in ``dims`` and ``matrix`` or ``vector``, ``measure logneg`` ends with
exit code 0 or 2; whatever a ``RunConfig`` holds in its command, paths and
names, ``cli.run`` returns an exit code and a text.  Neither raises out of
``cli.run``."""

import json
import os

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


COMMANDS = ["measure", "bounds", "convert", "gaussian", "batch", "frobnicate"]
PATH_FIELDS = ("state", "source", "target", "cov", "manifest")
# what each path field holds; "fd" is an open descriptor, "file" a valid file
PATHS = st.sampled_from([None, 1.5, "fd", "missing", "file"])


def _fixtures(root):
    """A valid file for each path field, written once under ``root``."""
    bell = [[0.5 ** 0.5, 0], [0, 0], [0, 0], [0.5 ** 0.5, 0]]
    files = {"state": root / "intake-state.json", "cov": root / "intake-cov.json",
             "manifest": root / "intake-manifest.json"}
    if not files["manifest"].exists():
        files["state"].write_text(json.dumps({"dims": [2, 2], "vector": bell}))
        files["cov"].write_text(json.dumps({"modes": 1, "cov": [[1, 0], [0, 1]]}))
        files["manifest"].write_text(json.dumps([{"state": str(files["state"]),
                                                  "measure": "logneg"}]))
    return {field: str(files.get(field, files["state"])) for field in PATH_FIELDS}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(command=st.sampled_from(COMMANDS),
       paths=st.fixed_dictionaries({field: PATHS for field in PATH_FIELDS}),
       measure=st.sampled_from(["logneg", "negativity", "frobnicate"]),
       op=st.sampled_from(["entropy", "frobnicate"]),
       fmt=st.sampled_from(["json", "table", "yaml"]))
def test_run_config_ends_in_an_exit_code(tmp_path_factory, command, paths, measure, op, fmt):
    root = tmp_path_factory.getbasetemp()
    valid = _fixtures(root)
    fd = os.open(valid["state"], os.O_RDONLY)
    try:
        given_paths = {field: {"fd": fd, "missing": str(root / "missing.json"),
                               "file": valid[field]}.get(kind, kind)
                       for field, kind in paths.items()}
        config = RunConfig(command=command, measure=measure, op=op, fmt=fmt,
                           skip=("rains", "ree") if command == "bounds" else (),
                           **given_paths)
        code, text = run(config)
        assert code in (0, 2, 3) and isinstance(text, str), text
        os.fstat(fd)  # OSError once the descriptor is closed
    finally:
        os.close(fd)
