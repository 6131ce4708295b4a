"""Batch command-line front end.

Subcommands: ``measure`` evaluates a single entanglement measure on a
state file, ``bounds`` emits the aggregated distillability report,
``convert`` answers pure-state conversion queries, ``gaussian`` operates
on covariance files, and ``batch`` runs a manifest of measure jobs one
after another, in manifest order.  All numeric output is rounded to 12
significant digits and every run is reproducible: the random seed defaults
to 0.

Exit codes: 0 on success, 2 on validation failures (the diagnostic names
the violated invariant) and on numerical solver failures (``error:
solver: ...``), 3 when ``--strict`` is set and a solver result is not
certified.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass

import numpy as np

from .bounds import _SKIPPABLE, bounds_report
from .closed_form import (
    concurrence,
    eof_two_qubit,
    log_negativity,
    negativity,
    residual_tangle,
    tangle,
)
from .errors import UnsupportedCaseError, ValidationError
from .gaussian import (
    UNCERTAINTY_TOLERANCE,
    covariance_from_dict,
    gaussian_entropy,
    gaussian_is_ppt,
    gaussian_log_negativity,
    gaussian_ppt_separable,
    symplectic_eigenvalues,
)
from .locc import catalysis_search, optimal_conversion_probability, schmidt
from .states import _CERTIFIED, PureState, _choice, _path, load_state
from .variational import (
    SolverConfig,
    best_separable_approximation,
    eof_convex_roof,
    geometric_measure,
    rains_bound,
    relative_entropy_of_entanglement,
    robustness,
    witness_violation,
)

__all__ = ["RunConfig", "main", "run"]

COMMANDS = ("measure", "bounds", "convert", "gaussian", "batch")
GAUSSIAN_OPS = ("validate", "spectrum", "entropy", "logneg", "ppt")
FORMATS = ("table", "json")
# solver overrides, as RunConfig fields and manifest keys -> SolverConfig fields
_OVERRIDES = {"gap": "gap_tolerance", "restarts": "restarts", "seed": "seed"}
# what a command or a batch entry reports as an error instead of a result
_FAILURES = (ValidationError, UnsupportedCaseError, OSError, json.JSONDecodeError,
             np.linalg.LinAlgError)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one CLI invocation.

    Attributes
    ----------
    command : str
        One of ``measure``, ``bounds``, ``convert``, ``gaussian``,
        ``batch``.
    state, source, target, cov, manifest : str or None
        Input file paths, as required by the command; a needed path that
        is None or not a ``str`` or ``os.PathLike`` exits 2 naming ``path``.
    measure : str or None
        Measure name for the ``measure`` command.
    op : str or None
        Gaussian operation name.
    cut : int
        Mode cut for Gaussian bipartitions.
    catalyst_rank : int or None
        When set, ``convert`` also searches for a catalyst of this rank.
    skip : tuple of str
        Bound names omitted from ``bounds`` reports.
    gap, restarts, seed : float or int or None
        Solver overrides; None keeps each measure's own default.  The
        effective seed is always 0 unless overridden.
    fmt : str
        ``table`` or ``json``; both render identical values.  Anything else
        exits 2 naming ``format``.
    strict : bool
        Exit 3 instead of 0 when a result's status or a ``bounds`` note is
        not certified.
    """

    command: str
    state: str | None = None
    source: str | None = None
    target: str | None = None
    cov: str | None = None
    manifest: str | None = None
    measure: str | None = None
    op: str | None = None
    cut: int = 1
    catalyst_rank: int | None = None
    skip: tuple[str, ...] = ()
    gap: float | None = None
    restarts: int | None = None
    seed: int | None = None
    fmt: str = "table"
    strict: bool = False


def _entry(value, status: str = "exact", gap: float = 0.0, iterations: int = 0) -> dict:
    """One result entry; a closed form is exact, with no gap and no iterations."""
    return {"value": float(value), "status": status, "gap": float(gap),
            "iterations": int(iterations)}


def _from_result(result) -> dict:
    return _entry(result.value, result.status, result.gap, result.iterations)


def _witness_entry(state, _cfg) -> dict:
    _, violation = witness_violation(state)
    return {**_entry(violation), "detected": bool(violation > 0.0)}


def _bsa_entry(state, cfg) -> dict:
    res = best_separable_approximation(state, config=cfg)
    return _entry(res.weight, res.status, res.gap, res.iterations)


MEASURES = {
    "concurrence": lambda s, _c: _entry(concurrence(s)),
    "eof2": lambda s, _c: _entry(eof_two_qubit(s)),
    "negativity": lambda s, _c: _entry(negativity(s)),
    "logneg": lambda s, _c: _entry(log_negativity(s)),
    "tangle": lambda s, _c: _entry(tangle(s)),
    "tau3": lambda s, _c: _entry(residual_tangle(s)),
    "ree": lambda s, c: _from_result(relative_entropy_of_entanglement(s, config=c)),
    "robustness": lambda s, c: _from_result(robustness(s, "separable", config=c)),
    "global-robustness": lambda s, c: _from_result(robustness(s, "global", config=c)),
    "bsa": _bsa_entry,
    "eof-roof": lambda s, c: _from_result(eof_convex_roof(s, config=c)),
    "geometric": lambda s, c: _from_result(geometric_measure(s, config=c)),
    "rains": lambda s, c: _from_result(rains_bound(s, config=c)),
    "witness": _witness_entry,
}


def _solver_config(overrides: dict) -> SolverConfig | None:
    """The overrides as a SolverConfig, which checks them; None without any."""
    given = {_OVERRIDES[key]: value for key, value in overrides.items() if value is not None}
    return SolverConfig(**given) if given else None


def _measure_payload(state_path: str, name: str, cfg) -> dict:
    name = _choice(name, MEASURES, "measure-name", "measure")
    return MEASURES[name](load_state(state_path), cfg)


def _convert_payload(config: RunConfig) -> dict:
    coeffs = []
    for path in (config.source, config.target):
        state = load_state(path)
        if not isinstance(state, PureState):
            raise ValidationError(
                "pure-state", detail=f"conversion inputs must be pure, got {path}")
        coeffs.append(schmidt(state).coefficients)
    verdict = optimal_conversion_probability(*coeffs)
    payload = {
        "deterministic": verdict.deterministic,
        "probability": verdict.probability,
        "limiting_index": verdict.limiting_index,
    }
    if config.catalyst_rank is not None:
        if verdict.deterministic:
            payload["catalyst"] = None
            payload["catalyst_note"] = "not needed; conversion is deterministic"
        else:
            found = catalysis_search(*coeffs, catalyst_rank=config.catalyst_rank)
            payload["catalyst"] = None if found is None else found.tolist()
            payload["catalyst_note"] = ("grid search found no catalyst"
                                        if found is None else "verified")
    return payload


def _gaussian_payload(config: RunConfig) -> dict:
    op = _choice(config.op, GAUSSIAN_OPS, "gaussian-op", "op")
    with open(_path(config.cov, "covariance file"), "r", encoding="utf-8") as fh:
        cov = covariance_from_dict(json.load(fh))
    if op == "validate":
        margin = cov.uncertainty_margin()
        return {"modes": cov.n_modes, "physical": bool(margin >= -UNCERTAINTY_TOLERANCE),
                "uncertainty_margin": margin}
    if op == "spectrum":
        return {"values": list(symplectic_eigenvalues(cov).values)}
    if op == "entropy":
        return {"value": gaussian_entropy(cov)}
    if op == "logneg":
        return {"value": gaussian_log_negativity(cov, cut=config.cut)}
    try:
        return {"separable": gaussian_ppt_separable(cov, cut=config.cut),
                "criterion": "exact"}
    except UnsupportedCaseError:
        return {"ppt": gaussian_is_ppt(cov, cut=config.cut),
                "criterion": "necessary-condition"}


def _batch_payload(config: RunConfig) -> list:
    with open(_path(config.manifest, "manifest"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, list):
        raise ValidationError("manifest", detail="manifest must be a JSON array")

    def one(entry):
        try:
            if not isinstance(entry, dict):
                raise ValidationError("manifest-entry",
                                      detail="entries must be objects")
            missing = {"state", "measure"} - set(entry)
            if missing:
                raise ValidationError(
                    "manifest-entry", detail=f"missing keys {sorted(missing)}")
            if not all(isinstance(entry[key], str) for key in ("state", "measure")):
                raise ValidationError(
                    "manifest-entry", detail="'state' and 'measure' must be strings")
            overrides = entry.get("overrides", {})
            if not isinstance(overrides, dict):
                raise ValidationError(
                    "manifest-entry", detail="'overrides' must be an object")
            unknown = set(overrides) - set(_OVERRIDES)
            if unknown:
                raise ValidationError(
                    "manifest-entry",
                    detail=f"unknown override keys {sorted(unknown)}")
            result = _measure_payload(entry["state"], entry["measure"],
                                      _solver_config(overrides))
            return {"state": entry["state"], "measure": entry["measure"], **result}
        except _FAILURES as exc:
            out = {"error": _error_text(exc)}
            if isinstance(entry, dict):
                out = {"state": entry.get("state"),
                       "measure": entry.get("measure"), **out}
            return out

    return [one(entry) for entry in manifest]


def _error_text(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
    if isinstance(exc, np.linalg.LinAlgError):
        return f"solver: {exc}"
    return str(exc)


def _dispatch(config: RunConfig):
    command = _choice(config.command, COMMANDS, "command", "command")
    _choice(config.fmt, FORMATS, "format", "format")
    cfg = _solver_config({key: getattr(config, key) for key in _OVERRIDES})
    if command == "measure":
        return _measure_payload(config.state, config.measure, cfg)
    if command == "bounds":
        report = bounds_report(load_state(config.state), config=cfg,
                               skip=tuple(config.skip))
        return {"lower": dict(report.lower), "upper": dict(report.upper),
                "ppt": report.ppt, "notes": dict(report.notes)}
    if command == "convert":
        return _convert_payload(config)
    if command == "gaussian":
        return _gaussian_payload(config)
    return _batch_payload(config)


def _round12(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _table_lines(data, prefix=""):
    lines = []
    if isinstance(data, dict):
        for key, val in data.items():
            name = f"{prefix}{key}"
            if isinstance(val, dict):
                lines.extend(_table_lines(val, prefix=f"{name}."))
            elif isinstance(val, str):
                lines.append(f"{name}: {val}")
            else:
                lines.append(f"{name}: {json.dumps(val)}")
    elif isinstance(data, list):
        for idx, val in enumerate(data):
            lines.extend(_table_lines(val, prefix=f"{prefix}{idx}."))
            if isinstance(val, dict) and idx + 1 < len(data):
                lines.append("")
    else:
        lines.append(json.dumps(data))
    return lines


def _render(payload, fmt: str) -> str:
    data = _round12(payload)
    if fmt == "json":
        return json.dumps(data)
    return "\n".join(_table_lines(data))


def _has_uncertified(payload) -> bool:
    """Whether a result's status or a ``bounds`` note is not certified."""
    entries = payload if isinstance(payload, list) else [payload]
    marks = [entry["status"] for entry in entries if "status" in entry]
    marks += [note for entry in entries for note in entry.get("notes", {}).values()]
    return not all(mark.startswith(_CERTIFIED) for mark in marks)


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one CLI invocation.

    Parameters
    ----------
    config : RunConfig
        Resolved command description.

    Returns
    -------
    tuple
        ``(exit_code, text)`` where text is the rendered report or a
        diagnostic beginning with ``error:``.
    """
    try:
        payload = _dispatch(config)
    except _FAILURES as exc:
        return 2, f"error: {_error_text(exc)}"
    text = _render(payload, config.fmt)
    if config.strict and _has_uncertified(payload):
        return 3, text
    return 0, text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmeas",
        description="Entanglement measures, bounds, and Gaussian tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver=False):
        p.add_argument("--format", dest="fmt", choices=FORMATS,
                       default="table", help="output rendering")
        if solver:
            p.add_argument("--gap", type=float, default=None,
                           help="certified-gap tolerance of ree, rains, "
                                "robustness and bsa")
            p.add_argument("--restarts", type=int, default=None,
                           help="random restarts of eof-roof and geometric")
            p.add_argument("--seed", type=int, default=None,
                           help="random seed of eof-roof and geometric (default 0)")
            p.add_argument("--strict", action="store_true",
                           help="exit 3 when any result is best-effort")

    p = sub.add_parser("measure", help="evaluate one measure on a state file")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--measure", required=True,
                   help=f"one of: {', '.join(sorted(MEASURES))}")
    add_common(p, solver=True)

    p = sub.add_parser("bounds", help="aggregated distillability bounds")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--skip", action="append", default=[],
                   choices=sorted(_SKIPPABLE), help="omit an upper bound")
    add_common(p, solver=True)

    p = sub.add_parser("convert", help="pure-state LOCC conversion verdict")
    p.add_argument("--source", required=True, help="source state JSON file")
    p.add_argument("--target", required=True, help="target state JSON file")
    p.add_argument("--catalyst-rank", type=int, default=None,
                   help="also search for a catalyst of this rank")
    add_common(p)

    p = sub.add_parser("gaussian", help="covariance-matrix operations")
    p.add_argument("--cov", required=True, help="covariance JSON file")
    p.add_argument("--op", required=True, help=f"one of: {', '.join(GAUSSIAN_OPS)}")
    p.add_argument("--cut", type=int, default=1,
                   help="modes on party A (default 1)")
    add_common(p)

    p = sub.add_parser("batch", help="run a manifest of measure jobs")
    p.add_argument("--manifest", required=True, help="manifest JSON file")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any result is best-effort")
    p.add_argument("--format", dest="fmt", choices=FORMATS,
                   default="json", help="output rendering")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if k != "skip"}
    if getattr(args, "skip", None):
        fields["skip"] = tuple(args.skip)
    return RunConfig(**fields)


def main(argv=None) -> int:
    """Console entry point; parses arguments, runs, prints the report."""
    args = _build_parser().parse_args(argv)
    code, text = run(_config_from_args(args))
    print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
