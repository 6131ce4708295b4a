"""Finite-dimensional quantum states and the entropic primitives built on them.

All entropies and logarithms are base 2, so every quantity is reported in
bits.  Subsystems are ordered left to right in row-major (C) tensor order,
matching ``numpy.kron``.  Each kind of value taken from outside has one
intake here, returning it as a plain type or refusing it with a
``ValidationError``: ``_numbers`` for arrays, ``_choice`` for names,
``_count`` for counts, ``_real`` for real scalars, ``_path`` for file
paths and ``_state`` for state arguments (type, party count or dims, and
size limit).  The predicates ``_is_integer`` and ``_is_finite_real`` remain for
the element tests of sequences and for refusals that split by kind.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
NORM_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
SPECTRUM_CUTOFF = 1e-12
OUTCOME_CUTOFF = 1e-14
CMI_TOL = 1e-9
PPT_TOL = 1e-12

# the largest total dimension of a state built from a count alone
# (``max_entangled``, ``ghz_state``, ``w_state``, ``bounds.werner_state``):
# its density matrix holds 16 MB, and each count is refused above it before
# anything is allocated
STATE_DIM_LIMIT = 1024
_QUBIT_LIMIT = STATE_DIM_LIMIT.bit_length() - 1
_PAIR_SIDE_LIMIT = math.isqrt(STATE_DIM_LIMIT)

_STATUSES = ("exact", "converged", "best_effort")
# a status, or a note that starts with one of these, is certified
_CERTIFIED = ("exact", "converged")
# the largest float, exactly, as an int
_FLOAT_MAX = int(sys.float_info.max)


def _numbers(data, name: str, dtype=complex, invariant: str = "non-finite") -> np.ndarray:
    """``data`` as a ``dtype`` array: a rectangular nest of integers or floats,
    and of complex numbers when ``dtype`` is complex.  Strings, bools, None,
    objects, ragged rows and NaN or infinite entries name ``invariant``."""
    try:
        arr = np.asarray(data)
    except ValueError:  # ragged rows
        arr = np.asarray(None)
    if arr.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        what = "numbers" if dtype is complex else "real numbers"
        raise ValidationError(invariant, detail=f"{name} must be an array of {what}")
    arr = np.asarray(arr, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ValidationError(invariant, detail=f"{name} has NaN or infinite entries")
    return arr


def _shown(value) -> str:
    """``repr(value)`` for a refusal text.  Python refuses to write an int of
    more than ``sys.get_int_max_str_digits()`` digits, alone or inside a
    container, so such a value is named by its type instead."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _choice(value, options, invariant: str, what: str):
    """``value`` when it is a string among ``options``; anything else is
    refused naming ``invariant``, with the valid options listed."""
    if isinstance(value, str) and value in options:
        return value
    raise ValidationError(
        invariant,
        detail=f"unknown {what} {_shown(value)}; valid {what}s: {', '.join(sorted(options))}")


def _count(value, name: str, invariant: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, in
    ``[low, high]``; anything else is refused naming ``invariant``."""
    if _is_integer(value) and low <= value and (high is None or value <= high):
        return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValidationError(
        invariant, detail=f"{name} must be an integer {bound}, got {_shown(value)}")


def _real(value, name: str, invariant: str, low: float = -math.inf,
          high: float = math.inf) -> float:
    """``value`` as a float: a finite real number, not a bool, in the closed
    interval ``[low, high]``; anything else is refused naming ``invariant``."""
    if _is_finite_real(value) and low <= value <= high:
        return float(value)
    bound = "" if (low, high) == (-math.inf, math.inf) else f" in [{low}, {high}]"
    raise ValidationError(
        invariant, detail=f"{name} must be a finite real number{bound}, got {_shown(value)}")


def _path(value, name: str):
    """``value`` when it is a file path, a ``str`` or ``os.PathLike``; an int
    file descriptor, which ``open`` would read and close, or anything else
    is refused naming ``path``."""
    if isinstance(value, (str, os.PathLike)):
        return value
    raise ValidationError("path", detail=f"{name} must be a file path, got {_shown(value)}")


def _square(data, name: str, size: int | None = None) -> np.ndarray:
    mat = _numbers(data, name)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or size not in (None, mat.shape[0]):
        want = "square" if size is None else f"{size}x{size}"
        raise ValidationError("shape", detail=f"{name} must be {want}, got {mat.shape}")
    return mat


def _hermitian(data, name: str = "matrix", size: int | None = None) -> np.ndarray:
    """Validate a Hermitian operator given from outside; return its symmetrized copy.

    Takes finite numbers only (``_numbers``), checks the shape (``size x
    size`` when given), then requires ``max|M - M^H| <= 1e-10`` and a
    symmetrized copy that does not overflow.
    """
    mat = _square(data, name, size)
    # finite entries can still overflow in the residual and the symmetrization,
    # where a complex infinity halved is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.abs(mat - mat.conj().T).max()) if mat.size else 0.0
        sym = (mat + mat.conj().T) / 2.0
    if not resid <= HERMITICITY_TOL:
        raise ValidationError("hermiticity", resid, HERMITICITY_TOL, detail=name)
    if not np.isfinite(sym).all():
        raise ValidationError("non-finite", detail=f"{name} has overflowing entries")
    return sym


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; bools are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """True for a finite real number, Python or numpy, that a float holds;
    bools are not numbers.  An integer is compared as an integer, so a
    Python int past the float range is refused instead of overflowing."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    if isinstance(value, numbers.Integral):
        return abs(int(value)) <= _FLOAT_MAX
    return abs(value) < math.inf


def _check_dims(dims: Sequence[int], size: int) -> tuple[int, ...]:
    """Subsystem dimensions as ints: a sequence of positive integers whose
    product is ``size``; bools and floats, fractional or not, are refused."""
    try:
        values = tuple(dims)
    except TypeError:
        values = None
    if values is None or not all(_is_integer(d) for d in values):
        raise ValidationError(
            "dims",
            detail=f"subsystem dimensions must be a sequence of integers, got {_shown(dims)}")
    dims = tuple(int(d) for d in values)
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(
            "dims", detail=f"subsystem dimensions must be positive, got {_shown(dims)}")
    if math.prod(dims) != size:
        raise ValidationError(
            "dims", detail=f"product of dims {_shown(dims)} does not match size {size}")
    return dims


class DensityOperator:
    """A validated density operator over an ordered list of subsystems.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix.  Hermiticity, unit trace, and positive
        semidefiniteness are enforced at construction; the stored matrix
        is the symmetrized copy and is marked read-only.
    dims : sequence of int
        Subsystem dimensions whose product equals the matrix size.

    Raises
    ------
    ValidationError
        Naming the violated invariant together with the measured residual.
    """

    __slots__ = ("matrix", "dims")

    def __init__(self, matrix, dims: Sequence[int]):
        mat = _hermitian(matrix)
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError("unit-trace", abs(tr - 1.0), TRACE_TOL)
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -POSITIVITY_TOL:
            raise ValidationError("positivity", -lo, POSITIVITY_TOL)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", _check_dims(dims, mat.shape[0]))

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityOperator(dims={list(self.dims)})"


class PureState:
    """A validated state vector over an ordered list of subsystems.

    Parameters
    ----------
    vector : array_like
        Complex vector with unit norm (tolerance 1e-10).
    dims : sequence of int
        Subsystem dimensions whose product equals the vector length.
    """

    __slots__ = ("vector", "dims")

    def __init__(self, vector, dims: Sequence[int]):
        vec = _numbers(vector, "vector").reshape(-1).copy()
        with np.errstate(over="ignore"):  # huge finite entries overflow to an infinite norm
            nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValidationError("normalization", abs(nrm - 1.0), NORM_TOL)
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "dims", _check_dims(dims, vec.size))

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self) -> int:
        return self.vector.size

    def to_density(self) -> DensityOperator:
        """Return the projector onto this vector as a density operator."""
        return DensityOperator(np.outer(self.vector, self.vector.conj()), self.dims)

    def __repr__(self) -> str:
        return f"PureState(dims={list(self.dims)})"


class KrausSet:
    """A finite collection of Kraus operators acting on a common input space.

    Parameters
    ----------
    operators : sequence of array_like
        Operators with a shared number of columns (the input dimension);
        output dimensions may differ only for selective ``apply_kraus``.
    trace_preserving : bool, optional
        When True (default), completeness ``sum_i A_i^dag A_i = 1`` is
        enforced within 1e-9.
    """

    __slots__ = ("operators", "trace_preserving")

    def __init__(self, operators: Sequence, trace_preserving: bool = True):
        if not isinstance(operators, Iterable):
            raise ValidationError(
                "kraus-set", detail=f"operators must be a sequence, got {_shown(operators)}")
        ops = [_numbers(op, f"Kraus operator {k}").copy() for k, op in enumerate(operators)]
        if not ops:
            raise ValidationError("kraus-set", detail="at least one operator is required")
        for op in ops:
            if op.ndim != 2 or op.shape[1] != ops[0].shape[1]:
                raise ValidationError(
                    "kraus-set", detail="operators must be matrices with a common input dimension")
            op.setflags(write=False)
        d_in = ops[0].shape[1]
        if trace_preserving:
            total = sum(op.conj().T @ op for op in ops)
            resid = float(np.max(np.abs(total - np.eye(d_in))))
            if not resid <= COMPLETENESS_TOL:
                raise ValidationError("kraus-completeness", resid, COMPLETENESS_TOL)
        object.__setattr__(self, "operators", tuple(ops))
        object.__setattr__(self, "trace_preserving", bool(trace_preserving))

    def __setattr__(self, name, value):
        raise AttributeError("KrausSet is immutable")

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Outcome of a measure evaluation.

    Attributes
    ----------
    value : float
        Nonnegative value in bits; ``math.inf`` encodes an infinite result.
    status : str
        One of ``"exact"``, ``"converged"``, ``"best_effort"``.
    gap : float
        Certified optimality gap; zero whenever ``status == "exact"``.
    iterations : int
        Iterations consumed by the underlying solver, if any.
    witness_payload : dict or None
        Optional certificate data (closest states, witness operators, ...).
    """

    value: float
    status: str
    gap: float = 0.0
    iterations: int = 0
    witness_payload: dict | None = None

    def __post_init__(self):
        _choice(self.status, _STATUSES, "status", "status value")
        if not self.value >= 0.0:
            raise ValidationError("value", detail="measure values must be nonnegative")
        if self.status == "exact" and self.gap != 0.0:
            raise ValidationError("gap", detail="exact results must report a zero gap")
        if self.gap < 0.0:
            raise ValidationError("gap", detail="gap must be nonnegative")


def _mat_of(state) -> np.ndarray:
    if isinstance(state, PureState):
        return np.outer(state.vector, state.vector.conj())
    if isinstance(state, DensityOperator):
        return state.matrix
    return _hermitian(state, "operator")


def _shape(dims: tuple[int, ...], context: str, parties: int | None = None,
           exact: tuple[int, ...] | None = None, limit: float = math.inf,
           invariant: str | None = None) -> tuple[int, ...]:
    """``dims`` when they are ``parties`` subsystems, or exactly ``exact``,
    refused naming ``invariant`` (by default ``bipartite`` or ``tripartite``,
    or ``dims``), and multiply to at most ``limit`` (``dimension-limit``)."""
    if exact is not None and dims != exact:
        raise ValidationError(invariant or "dims",
                              detail=f"{context} needs dims {exact}, got {dims}")
    if parties is not None and len(dims) != parties:
        raise ValidationError(
            invariant or ("bipartite" if parties == 2 else "tripartite"),
            detail=f"{context} needs exactly {parties} subsystems, got dims {dims}")
    if math.prod(dims) > limit:
        raise ValidationError(
            "dimension-limit", detail=f"{context} supports total dimension <= {limit}")
    return dims


def _state(state, context: str, pure: bool = False, parties: int | None = None,
           dims: tuple[int, ...] | None = None, limit: float = math.inf,
           invariant: str | None = None):
    """The one intake for a state argument: a ``PureState``, or when not
    ``pure`` also a ``DensityOperator`` (``state-type``), whose dims pass
    ``_shape``.  Returns the ``PureState`` when ``pure``, and otherwise the
    density operator, expanding a pure state only after every check."""
    if not isinstance(state, PureState if pure else (DensityOperator, PureState)):
        want = "a PureState" if pure else "a DensityOperator or PureState"
        raise ValidationError(
            "state-type", detail=f"{context} expects {want}, got {type(state).__name__}")
    _shape(state.dims, context, parties, dims, limit, invariant)
    return state if pure or isinstance(state, DensityOperator) else state.to_density()


def _subsystems(indices: Iterable[int] | int, n: int, name: str,
                invariant: str = "subsystem-index") -> tuple[int, ...]:
    """Sorted distinct subsystem indices, at least one, each in ``range(n)``;
    a failure names ``invariant``."""
    # a 0-d array is iterable by type but not in fact, and is no integer
    iterable = isinstance(indices, Iterable) and getattr(indices, "ndim", 1) > 0
    values = tuple(indices) if iterable else (indices,)
    if not all(_is_integer(k) for k in values):
        raise ValidationError(invariant, detail=f"{name}={_shown(indices)} must be integers")
    indices = tuple(sorted(set(int(k) for k in values)))
    if not indices or any(k < 0 or k >= n for k in indices):
        raise ValidationError(invariant,
                              detail=f"{name}={_shown(indices)} out of range for {n} subsystems")
    return indices


def _bipartition(side: Iterable[int] | int, n: int, name: str) -> tuple[int, ...]:
    """One side of a proper cut of n subsystems: ``_subsystems`` that leaves
    at least one subsystem on the other side; a failure names
    ``bipartition``."""
    side = _subsystems(side, n, name, "bipartition")
    if len(side) == n:
        raise ValidationError(
            "bipartition", detail=f"{name}={side} is not a proper cut of {n} subsystems")
    return side


def partial_trace(rho: DensityOperator, keep: Iterable[int] | int) -> DensityOperator:
    """Trace out all subsystems except ``keep``.

    Parameters
    ----------
    rho : DensityOperator or PureState
    keep : int or iterable of int
        Indices of the subsystems to retain, in their original order.

    Returns
    -------
    DensityOperator
        Reduced operator whose ``dims`` are the retained dimensions.
    """
    rho = _state(rho, "partial_trace")
    dims = tuple(rho.dims)
    n = len(dims)
    keep = _subsystems(keep, n, "keep")
    tensor = rho.matrix.reshape(dims + dims)
    traced = [k for k in range(n) if k not in keep]
    for offset, k in enumerate(traced):
        axis = k - offset
        tensor = np.trace(tensor, axis1=axis, axis2=axis + tensor.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return DensityOperator(tensor.reshape(d_keep, d_keep), [dims[k] for k in keep])


def partial_transpose(rho, parties: Iterable[int] | int,
                      dims: Sequence[int] | None = None) -> np.ndarray:
    """Transpose the given subsystem(s) of an operator.

    Parameters
    ----------
    rho : DensityOperator, PureState, or ndarray
        A raw square array of finite numbers is transposed as it is,
        Hermitian or not, and needs ``dims``.
    parties : int or iterable of int
        Subsystem indices to transpose.
    dims : sequence of int, optional
        Subsystem dimensions of a raw array; states carry their own.

    Returns
    -------
    ndarray
        Operator of the same shape and trace; Hermitian input gives
        Hermitian output, not necessarily positive.
    """
    if isinstance(rho, (DensityOperator, PureState)):
        mat, dims = _mat_of(rho), tuple(rho.dims)
    elif dims is None:
        raise ValidationError("dims-required", detail="raw operators need explicit dims")
    else:
        mat = _square(rho, "operator")
        dims = _check_dims(dims, mat.shape[0])
    n = len(dims)
    axes = list(range(2 * n))
    for p in _subsystems(parties, n, "parties"):
        axes[p], axes[n + p] = axes[n + p], axes[p]
    return mat.reshape(dims + dims).transpose(axes).reshape(mat.shape)


def is_ppt(rho, cut: Iterable[int] | int = 0, dims: Sequence[int] | None = None) -> bool:
    """True iff the partial transpose over ``cut`` has least eigenvalue >= -1e-12.

    The one PPT decision for density operators, at tolerance ``PPT_TOL``.
    ``rho``, ``cut`` and ``dims`` are taken as by ``partial_transpose``, so
    a raw array needs ``dims``; ``cut`` must be one side of a proper cut,
    since transposing every subsystem is the full transpose, which is
    always positive.
    """
    transposed = partial_transpose(rho, cut, dims)
    _bipartition(cut, len(getattr(rho, "dims", dims)), "cut")
    return _ppt_spectrum(transposed)[0]


def _ppt_spectrum(transposed: np.ndarray) -> tuple[bool, np.ndarray]:
    """The PPT rule on a partial transpose, least eigenvalue >= ``-PPT_TOL``,
    and its ascending eigenvalues; every PPT decision reads this one rule."""
    eigs = np.linalg.eigvalsh(transposed)
    return bool(eigs[0] >= -PPT_TOL), eigs


def permute_subsystems(state, order: Sequence[int]):
    """Reorder the subsystems of a state.

    Parameters
    ----------
    state : DensityOperator or PureState
    order : sequence of int
        Permutation such that new subsystem ``k`` is old subsystem
        ``order[k]``.

    Returns
    -------
    Same type as ``state`` with permuted dims.
    """
    state = state if isinstance(state, PureState) else _state(state, "permute_subsystems")
    dims = tuple(state.dims)
    order = tuple(order) if isinstance(order, Iterable) else (order,)
    if not all(_is_integer(p) for p in order) or sorted(order) != list(range(len(dims))):
        raise ValidationError("permutation", detail=f"{order} is not a permutation")
    new_dims = [dims[p] for p in order]
    if isinstance(state, PureState):
        vec = state.vector.reshape(dims).transpose(order).reshape(-1)
        return PureState(vec, new_dims)
    n = len(dims)
    axes = list(order) + [n + p for p in order]
    d = int(np.prod(dims))
    mat = state.matrix.reshape(dims + dims).transpose(axes).reshape(d, d)
    return DensityOperator(mat, new_dims)


def _entropy_of_spectrum(eigs: np.ndarray) -> float:
    probs = eigs[eigs > SPECTRUM_CUTOFF]
    if probs.size == 0:
        return 0.0
    return float(-np.sum(probs * np.log2(probs)))


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits.

    Eigenvalues below 1e-12 are discarded before taking logarithms.

    Parameters
    ----------
    rho : DensityOperator, PureState, or ndarray
        A raw array must be Hermitian within 1e-10.

    Returns
    -------
    float
        Entropy in bits, nonnegative.
    """
    if isinstance(rho, PureState):
        return 0.0
    return max(0.0, _entropy_of_spectrum(np.linalg.eigvalsh(_mat_of(rho))))


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy ``S(rho || sigma)`` in bits.

    Returns ``math.inf`` when the support of ``rho`` is not contained in
    the support of ``sigma`` (support detected with eigenvalue cutoff
    1e-12).

    Parameters
    ----------
    rho, sigma : DensityOperator, PureState, or ndarray
        A raw array must be Hermitian within 1e-10.

    Returns
    -------
    float
        Nonnegative, possibly ``inf``.
    """
    r = _mat_of(rho)
    s = _mat_of(sigma)
    if r.shape != s.shape:
        raise ValidationError("shape", detail="operators must share a dimension")
    s_eigs, s_vecs = np.linalg.eigh(s)
    support = s_eigs > SPECTRUM_CUTOFF
    if not np.all(support):
        null_vecs = s_vecs[:, ~support]
        mass = float(np.real(np.einsum("ij,jk,ki->", null_vecs.conj().T, r, null_vecs)))
        if mass > SPECTRUM_CUTOFF:
            return np.inf
    r_eigs = np.linalg.eigvalsh(r)
    first = _entropy_of_spectrum(r_eigs)
    kept_vecs = s_vecs[:, support]
    kept_eigs = s_eigs[support]
    overlaps = np.real(np.einsum("ji,jk,ki->i", kept_vecs.conj(), r, kept_vecs))
    cross = float(-np.sum(overlaps * np.log2(kept_eigs)))
    return max(0.0, -first + cross)


def trace_norm(operator) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian operator.

    Parameters
    ----------
    operator : ndarray or DensityOperator
        Hermitian within 1e-10; the symmetrized matrix is used.

    Returns
    -------
    float
    """
    mat = _mat_of(operator)
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))


def mutual_information(rho: DensityOperator | PureState) -> float:
    """Quantum mutual information ``S(A) + S(B) - S(AB)`` in bits.

    Parameters
    ----------
    rho : DensityOperator or PureState
        Bipartite state (exactly two subsystems).

    Returns
    -------
    float
        Nonnegative.
    """
    rho = _state(rho, "mutual_information", parties=2, invariant="dims")
    s_a = von_neumann_entropy(partial_trace(rho, 0))
    s_b = von_neumann_entropy(partial_trace(rho, 1))
    s_ab = von_neumann_entropy(rho)
    return max(0.0, s_a + s_b - s_ab)


def conditional_mutual_information(rho: DensityOperator | PureState) -> float:
    """Conditional mutual information ``I(A;B|E)`` of a tripartite state.

    Computed as ``S(AE) + S(BE) - S(ABE) - S(E)``; values within 1e-9
    below zero are clamped to zero.

    Parameters
    ----------
    rho : DensityOperator or PureState
        Tripartite state with subsystem order (A, B, E).

    Returns
    -------
    float
        Nonnegative.
    """
    rho = _state(rho, "conditional_mutual_information", parties=3, invariant="dims")
    s_ae = von_neumann_entropy(partial_trace(rho, (0, 2)))
    s_be = von_neumann_entropy(partial_trace(rho, (1, 2)))
    s_abe = von_neumann_entropy(rho)
    s_e = von_neumann_entropy(partial_trace(rho, 2))
    value = s_ae + s_be - s_abe - s_e
    if value < -CMI_TOL:
        raise ValidationError("strong-subadditivity", -value, CMI_TOL)
    return max(0.0, value)


def apply_kraus(kraus: KrausSet, rho: DensityOperator | PureState, mode: str = "averaged"):
    """Apply a Kraus operation to a state.

    Parameters
    ----------
    kraus : KrausSet
    rho : DensityOperator or PureState
    mode : {"averaged", "selective"}
        ``"averaged"`` returns the channel output ``sum_i A_i rho A_i^dag``
        (renormalized by its trace to absorb roundoff); its operators need
        one common output dimension (``kraus-set``).  ``"selective"``
        returns the list of ``(probability, post-measurement state)``
        pairs; outcomes with probability below 1e-14 are dropped.

    Returns
    -------
    DensityOperator or list of (float, DensityOperator)
    """
    rho = _state(rho, "apply_kraus")
    if not isinstance(kraus, KrausSet):
        raise ValidationError(
            "kraus-set", detail=f"apply_kraus expects a KrausSet, got {type(kraus).__name__}")
    mode = _choice(mode, ("averaged", "selective"), "mode", "mode")
    if kraus.operators[0].shape[1] != rho.dim:
        raise ValidationError("shape", detail="Kraus input dimension does not match state")

    def checked(total: float) -> float:
        if kraus.trace_preserving and abs(total - 1.0) > COMPLETENESS_TOL:
            raise ValidationError("trace-preservation", abs(total - 1.0), COMPLETENESS_TOL)
        return total

    def out_dims(image):
        return rho.dims if len(image) == rho.dim else (len(image),)

    if mode == "averaged":
        outputs = sorted({op.shape[0] for op in kraus.operators})
        if len(outputs) > 1:
            raise ValidationError(
                "kraus-set", detail=f"averaged mode needs one output dimension, got {outputs}")
        total = sum(op @ rho.matrix @ op.conj().T for op in kraus.operators)
        tr = checked(float(np.real(np.trace(total))))
        if tr < OUTCOME_CUTOFF:
            raise ValidationError("trace-preservation", detail="channel output has vanishing trace")
        return DensityOperator(total / tr, out_dims(total))
    images = [op @ rho.matrix @ op.conj().T for op in kraus.operators]
    traces = [float(np.real(np.trace(image))) for image in images]
    checked(sum(traces))
    return [(p, DensityOperator(image / p, out_dims(image)))
            for image, p in zip(images, traces) if p >= OUTCOME_CUTOFF]


def max_entangled(d: int = 2) -> PureState:
    """Maximally entangled state ``sum_i |ii> / sqrt(d)`` on two qudits,
    ``d <= 32`` (total dimension at most ``STATE_DIM_LIMIT``)."""
    d = _count(d, "local dimension", "dims", low=2, high=_PAIR_SIDE_LIMIT)
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(vec, (d, d))


def ghz_state(n: int = 3) -> PureState:
    """GHZ state ``(|0...0> + |1...1>)/sqrt(2)`` on ``n <= 10`` qubits
    (total dimension at most ``STATE_DIM_LIMIT``)."""
    n = _count(n, "GHZ qubit count", "dims", low=2, high=_QUBIT_LIMIT)
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2)
    return PureState(vec, (2,) * n)


def w_state(n: int = 3) -> PureState:
    """W state, the uniform superposition of single-excitation basis states,
    on ``n <= 10`` qubits (total dimension at most ``STATE_DIM_LIMIT``)."""
    n = _count(n, "W qubit count", "dims", low=2, high=_QUBIT_LIMIT)
    vec = np.zeros(2 ** n, dtype=complex)
    for k in range(n):
        vec[2 ** k] = 1.0 / np.sqrt(n)
    return PureState(vec, (2,) * n)


def _pairs_to_array(data, name: str) -> np.ndarray:
    arr = _numbers(data, name, float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValidationError("state-format",
                              detail=f"{name} entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _array_to_pairs(arr: np.ndarray) -> list:
    stacked = np.stack([np.real(arr), np.imag(arr)], axis=-1)
    return stacked.tolist()


def state_from_dict(payload: dict):
    """Build a state from its JSON dictionary form.

    The dictionary must contain ``dims`` plus either ``matrix`` (nested
    ``[re, im]`` pairs, row-major) for a density operator or ``vector``
    for a pure state.

    Returns
    -------
    DensityOperator or PureState
    """
    if not isinstance(payload, dict) or "dims" not in payload:
        raise ValidationError("state-format", detail="missing 'dims' field")
    dims = payload["dims"]
    if "matrix" in payload:
        return DensityOperator(_pairs_to_array(payload["matrix"], "matrix"), dims)
    if "vector" in payload:
        return PureState(_pairs_to_array(payload["vector"], "vector"), dims)
    raise ValidationError("state-format", detail="expected a 'matrix' or 'vector' field")


def state_to_dict(state) -> dict:
    """Serialize a state to its JSON dictionary form."""
    if isinstance(state, PureState):
        return {"dims": list(state.dims), "vector": _array_to_pairs(state.vector)}
    if isinstance(state, DensityOperator):
        return {"dims": list(state.dims), "matrix": _array_to_pairs(state.matrix)}
    raise ValidationError("state-format", detail=f"cannot serialize {type(state).__name__}")


def load_state(path):
    """Load a density operator or pure state from a JSON file.

    Parameters
    ----------
    path : str or os.PathLike
        A file descriptor is refused, not read.

    Returns
    -------
    DensityOperator or PureState

    Raises
    ------
    json.JSONDecodeError
        For malformed JSON (carries line and column).
    ValidationError
        For a path that is not a ``str`` or ``os.PathLike``, a file that
        ``_json_file`` refuses, and structurally invalid payloads.
    """
    return state_from_dict(_json_file(path, "state file"))


def _json_file(path, name: str):
    """The JSON value in the file at ``path``, a ``name``; malformed JSON raises
    ``json.JSONDecodeError``.  Text that is not UTF-8, nesting past the recursion
    limit and an integer literal too long for ``int`` are refused as ``json``."""
    with open(_path(path, name), "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except (RecursionError, ValueError) as exc:
            raise ValidationError("json", detail=f"{name} cannot be read: {exc}") from exc


def save_state(state, path) -> None:
    """Write a state to a JSON file in the canonical dictionary form."""
    with open(_path(path, "state file"), "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh)
        fh.write("\n")
