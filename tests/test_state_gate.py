"""The one intake for state arguments, ``states._state``: every function it
serves refuses a wrong type as ``state-type``, a wrong party count or shape
under that function's own invariant, and a state over its size limit as
``dimension-limit``, checked in that order."""

import numpy as np
import pytest

from entmeas import (
    ConeSpec,
    DensityOperator,
    KrausSet,
    PureState,
    ValidationError,
    apply_kraus,
    base_norm,
    best_separable_approximation,
    bounds_report,
    ckw_check,
    concurrence,
    conditional_entropy,
    conditional_mutual_information,
    entropy_of_entanglement,
    eof_convex_roof,
    eof_two_qubit,
    geometric_measure,
    hashing_lower_bound,
    log_negativity,
    minimize_over_ppt_states,
    mutual_information,
    negativity,
    partial_trace,
    permute_subsystems,
    rains_bound,
    relative_entropy_of_entanglement,
    residual_tangle,
    robustness,
    save_state,
    schmidt,
    squashed_eval,
    tangle,
    uu_twirl_two_qubit,
    witness_violation,
)
from entmeas.cli import MEASURES, RunConfig, run


def mixed(*dims):
    d = int(np.prod(dims))
    return DensityOperator(np.eye(d) / d, dims)


def flat(*dims):
    d = int(np.prod(dims))
    return PureState(np.ones(d) / np.sqrt(d), dims)


RAW = np.eye(4) / 4
PAIR = mixed(2, 2)
TRIPLE = mixed(2, 2, 2)
PPT = ConeSpec("PPT-operators")
IDENTITY = KrausSet([np.eye(4)])

# (function, arguments, invariant); the state is the first argument
CASES = [
    (partial_trace, (RAW, 0), "state-type"),
    (permute_subsystems, (RAW, (1, 0)), "state-type"),
    (apply_kraus, (IDENTITY, RAW), "state-type"),
    (negativity, (RAW,), "state-type"),
    (log_negativity, (RAW,), "state-type"),
    (tangle, (RAW,), "state-type"),
    (schmidt, (PAIR,), "state-type"),
    (entropy_of_entanglement, (PAIR,), "state-type"),
    (ckw_check, (TRIPLE,), "state-type"),
    (mutual_information, (RAW,), "state-type"),
    (mutual_information, (TRIPLE,), "dims"),
    (conditional_mutual_information, (RAW,), "state-type"),
    (conditional_mutual_information, (PAIR,), "dims"),
    (concurrence, (RAW,), "state-type"),
    (concurrence, (mixed(3, 3),), "dims"),
    (eof_two_qubit, (RAW,), "state-type"),
    (eof_two_qubit, (TRIPLE,), "dims"),
    (residual_tangle, (TRIPLE,), "state-type"),
    (residual_tangle, (flat(2, 2),), "dims"),
    (conditional_entropy, (RAW,), "state-type"),
    (conditional_entropy, (TRIPLE,), "bipartite"),
    (hashing_lower_bound, (RAW,), "state-type"),
    (hashing_lower_bound, (TRIPLE,), "bipartite"),
    (uu_twirl_two_qubit, (RAW,), "state-type"),
    (uu_twirl_two_qubit, (mixed(3, 3),), "twirl-dims"),
    (bounds_report, (RAW,), "state-type"),
    (bounds_report, (TRIPLE,), "bipartite"),
    (bounds_report, (mixed(6, 6),), "dimension-limit"),
    (relative_entropy_of_entanglement, (RAW,), "state-type"),
    (relative_entropy_of_entanglement, (TRIPLE,), "bipartite"),
    (relative_entropy_of_entanglement, (mixed(7, 7),), "dimension-limit"),
    (robustness, (RAW,), "state-type"),
    (robustness, (TRIPLE,), "bipartite"),
    (robustness, (mixed(7, 7),), "dimension-limit"),
    (best_separable_approximation, (RAW,), "state-type"),
    (best_separable_approximation, (TRIPLE,), "bipartite"),
    (best_separable_approximation, (mixed(7, 7),), "dimension-limit"),
    (base_norm, (TRIPLE, PPT, PPT), "bipartite"),
    (base_norm, (mixed(7, 7), PPT, PPT), "dimension-limit"),
    (base_norm, (np.eye(8) / 8, PPT, PPT, (2, 2, 2)), "bipartite"),
    (base_norm, (np.eye(49) / 49, PPT, PPT, (7, 7)), "dimension-limit"),
    (minimize_over_ppt_states, (np.eye(8), (2, 2, 2)), "bipartite"),
    (minimize_over_ppt_states, (np.eye(49), (7, 7)), "dimension-limit"),
    (eof_convex_roof, (RAW,), "state-type"),
    (eof_convex_roof, (TRIPLE,), "bipartite"),
    (eof_convex_roof, (mixed(5, 5),), "dimension-limit"),
    (geometric_measure, (PAIR,), "state-type"),
    (geometric_measure, (flat(9, 9),), "dimension-limit"),
    (rains_bound, (RAW,), "state-type"),
    (rains_bound, (TRIPLE,), "bipartite"),
    (rains_bound, (mixed(6, 6),), "dimension-limit"),
    (witness_violation, (RAW,), "state-type"),
    (witness_violation, (TRIPLE,), "bipartite"),
    (squashed_eval, (RAW,), "state-type"),
    (squashed_eval, (PAIR,), "tripartite"),
    (squashed_eval, (TRIPLE, RAW), "state-type"),
]


@pytest.mark.parametrize("function, args, invariant", CASES,
                         ids=[f"{f.__name__}-{inv}-{k}" for k, (f, _, inv) in enumerate(CASES)])
def test_each_served_function_names_its_invariant(function, args, invariant):
    with pytest.raises(ValidationError) as err:
        function(*args)
    assert err.value.invariant == invariant


@pytest.mark.parametrize("function, limit", [
    (relative_entropy_of_entanglement, 36),
    (rains_bound, 25),
    (eof_convex_roof, 16),
    (geometric_measure, 64),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_pure_state_is_refused_before_it_is_expanded(monkeypatch, function, limit):
    def expand(_self):
        raise AssertionError("an oversized pure state was expanded")

    monkeypatch.setattr(PureState, "to_density", expand)
    side = int(np.sqrt(limit)) + 1
    with pytest.raises(ValidationError, match="^dimension-limit"):
        function(flat(side, side))


def test_shape_is_checked_before_size():
    # a three-party state over the limit is refused for its party count
    with pytest.raises(ValidationError, match="^bipartite"):
        relative_entropy_of_entanglement(mixed(7, 7, 1))


# ------------------------------------------------------------- CLI


@pytest.fixture(scope="module")
def odd_states(tmp_path_factory):
    root = tmp_path_factory.mktemp("gate")
    paths = {}
    for name, state in (("one-party", mixed(2)), ("2x2x2", flat(2, 2, 2)),
                        ("7x7", mixed(7, 7))):
        paths[name] = str(root / f"{name}.json")
        save_state(state, paths[name])
    return paths


@pytest.mark.parametrize("shape", ["one-party", "2x2x2", "7x7"])
@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_cli_measures_refuse_or_answer_every_shape(odd_states, measure, shape):
    code, text = run(RunConfig(command="measure", state=odd_states[shape], measure=measure,
                               fmt="json"))
    assert code in (0, 2), text
