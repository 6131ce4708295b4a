"""Continuous-variable tools on Gaussian-state covariance matrices.

Everything here works at the covariance level in dimensionless units
where the vacuum covariance is the identity.  Canonical operators are
ordered x1, p1, ..., xn, pn; a loader flag converts from the grouped
x1..xn, p1..pn convention.  Entanglement enters through the partial
time reversal, which flips one party's momenta and plays the role of
the partial transpose: its symplectic spectrum drives the Gaussian
log-negativity, and for one mode per side its physicality decides
separability exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedCaseError, ValidationError
from .states import _choice, _count, _numbers, _real, _subsystems

__all__ = [
    "CovarianceMatrix",
    "SymplecticSpectrum",
    "apply_symplectic",
    "covariance_from_dict",
    "covariance_to_dict",
    "gaussian_entropy",
    "gaussian_is_ppt",
    "gaussian_log_negativity",
    "gaussian_ppt_separable",
    "mode_rotation",
    "partial_time_reversal",
    "reduce_modes",
    "symplectic_eigenvalues",
    "symplectic_form",
    "thermal",
    "two_mode_squeezed",
    "two_mode_squeezer",
    "vacuum",
]

SYMMETRY_TOLERANCE = 1e-10
UNCERTAINTY_TOLERANCE = 1e-9
PAIRING_TOLERANCE = 1e-9
MODE_LIMIT = 32


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form for n modes in interleaved x, p ordering, 1 <= n <= 32."""
    n_modes = _count(n_modes, "mode count", "mode-count", 1, MODE_LIMIT)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block
    return out


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Second moments of a set of bosonic modes.

    Attributes
    ----------
    matrix : ndarray
        Real symmetric 2n x 2n matrix in x1, p1, ..., xn, pn ordering;
        the vacuum is the identity.  Stored as a read-only copy.
    first_moments : ndarray or None
        Optional mean vector, stored as a read-only copy; carries no
        entanglement information.
    physical : bool
        Whether the uncertainty relation was enforced at construction;
        the stored arrays cannot change, so it holds for the object's
        lifetime.  Partial time reversal produces possibly-unphysical
        outputs and sets this to False.
    """

    matrix: np.ndarray
    first_moments: np.ndarray | None = None
    physical: bool = True

    def __post_init__(self):
        mat = _numbers(self.matrix, "covariance", float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError("cov-shape",
                                  detail=f"expected a square matrix, got {mat.shape}")
        side = mat.shape[0]
        if side < 2 or side % 2 != 0 or side > 2 * MODE_LIMIT:
            raise ValidationError(
                "cov-shape",
                detail=f"side must be even and in [2, {2 * MODE_LIMIT}], got {side}")
        # finite entries can still overflow in the symmetrization
        with np.errstate(over="ignore"):
            asym = float(np.abs(mat - mat.T).max())
            sym = (mat + mat.T) / 2
        if not np.isfinite(sym).all():
            raise ValidationError("non-finite", detail="covariance has overflowing entries")
        if asym > SYMMETRY_TOLERANCE:
            raise ValidationError("cov-symmetry", residual=asym,
                                  limit=SYMMETRY_TOLERANCE)
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)
        if self.first_moments is not None:
            mean = _numbers(self.first_moments, "mean", float).reshape(-1).copy()
            if mean.shape != (side,):
                raise ValidationError(
                    "cov-moments",
                    detail=f"first moments must have length {side}, got {mean.shape}")
            mean.setflags(write=False)
            object.__setattr__(self, "first_moments", mean)
        low = self.uncertainty_margin() if self.physical else 0.0
        if low < -UNCERTAINTY_TOLERANCE:
            raise ValidationError("cov-uncertainty", residual=-low, limit=UNCERTAINTY_TOLERANCE)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def uncertainty_margin(self) -> float:
        """Minimum eigenvalue of gamma + i sigma; >= -1e-9 iff physical."""
        sigma = symplectic_form(self.n_modes)
        return float(np.linalg.eigvalsh(self.matrix + 1j * sigma)[0])


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues, one per mode, in descending order."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(_numbers(self.values, "symplectic spectrum", float).reshape(-1).tolist())
        if any(b > a + PAIRING_TOLERANCE for a, b in zip(values, values[1:])):
            raise ValidationError("spectrum-order",
                                  detail="values must be nonincreasing")
        if values and values[-1] < 0.0:
            raise ValidationError("spectrum-sign",
                                  detail="symplectic eigenvalues are nonnegative")
        object.__setattr__(self, "values", values)


def symplectic_eigenvalues(gamma: CovarianceMatrix) -> SymplecticSpectrum:
    """Symplectic spectrum of a covariance matrix.

    The values are the absolute eigenvalues of ``i sigma^-1 gamma``,
    which come in +/- pairs; the pairing is verified and one
    representative per mode is returned.

    Parameters
    ----------
    gamma : CovarianceMatrix
        Input covariance; physical inputs yield values >= 1 - 1e-9.

    Returns
    -------
    SymplecticSpectrum
        Descending symplectic eigenvalues, one per mode.
    """
    gamma = _as_cov(gamma)
    n = gamma.n_modes
    sigma = symplectic_form(n)
    evals = np.linalg.eigvals(1j * (-sigma) @ gamma.matrix)
    mags = np.sort(np.abs(evals))[::-1]
    for j in range(n):
        if abs(mags[2 * j] - mags[2 * j + 1]) > PAIRING_TOLERANCE * max(1.0, mags[2 * j]):
            raise ValidationError("spectrum-pairing",
                                  residual=float(mags[2 * j] - mags[2 * j + 1]),
                                  limit=PAIRING_TOLERANCE)
    values = tuple(float(mags[2 * j]) for j in range(n))
    if gamma.physical and values and values[-1] < 1.0 - UNCERTAINTY_TOLERANCE:
        raise ValidationError("spectrum-uncertainty",
                              residual=values[-1] - 1.0,
                              limit=-UNCERTAINTY_TOLERANCE)
    return SymplecticSpectrum(values)


def gaussian_entropy(gamma: CovarianceMatrix) -> float:
    """Von Neumann entropy of a Gaussian state, in bits.

    Each symplectic eigenvalue mu contributes
    ``((mu+1)/2) log2((mu+1)/2) - ((mu-1)/2) log2((mu-1)/2)``;
    values within 1e-9 of 1 contribute exactly 0.

    Parameters
    ----------
    gamma : CovarianceMatrix
        Physical covariance matrix.

    Returns
    -------
    float
        Nonnegative entropy; 0 exactly for pure Gaussian states.
    """
    gamma = _require_physical(gamma)
    total = 0.0
    for mu in symplectic_eigenvalues(gamma).values:
        if mu - 1.0 < UNCERTAINTY_TOLERANCE:
            continue
        plus = (mu + 1.0) / 2.0
        minus = (mu - 1.0) / 2.0
        total += plus * np.log2(plus) - minus * np.log2(minus)
    return float(total)


def reduce_modes(gamma: CovarianceMatrix, keep) -> CovarianceMatrix:
    """Restrict a covariance matrix to a subset of modes.

    Parameters
    ----------
    gamma : CovarianceMatrix
        Input covariance.
    keep : iterable of int
        Mode indices to retain, 0-based.

    Returns
    -------
    CovarianceMatrix
        Principal submatrix on the kept x, p rows and columns; reduced
        Gaussian states are Gaussian, so the result is always physical.
    """
    gamma = _as_cov(gamma)
    keep = _subsystems(keep, gamma.n_modes, "keep", "mode-indices")
    rows = np.concatenate([[2 * m, 2 * m + 1] for m in keep])
    mean = None
    if gamma.first_moments is not None:
        mean = gamma.first_moments[rows]
    return CovarianceMatrix(gamma.matrix[np.ix_(rows, rows)], mean,
                            physical=gamma.physical)


def partial_time_reversal(gamma: CovarianceMatrix, party_b_modes) -> CovarianceMatrix:
    """Flip the momenta of one party; the covariance-level partial transpose.

    Parameters
    ----------
    gamma : CovarianceMatrix
        Input covariance.
    party_b_modes : iterable of int
        Modes whose p quadratures change sign.

    Returns
    -------
    CovarianceMatrix
        Transformed covariance, flagged possibly unphysical; it violates
        the uncertainty relation exactly when the input is inseparable
        across the chosen cut (for one mode per side).
    """
    gamma = _as_cov(gamma)
    modes = _subsystems(party_b_modes, gamma.n_modes, "party_b_modes", "mode-indices")
    signs = np.ones(2 * gamma.n_modes)
    for m in modes:
        signs[2 * m + 1] = -1.0
    mat = signs[:, None] * gamma.matrix * signs[None, :]
    mean = None if gamma.first_moments is None else signs * gamma.first_moments
    return CovarianceMatrix(mat, mean, physical=False)


def _reversed_across(gamma, cut: int) -> CovarianceMatrix:
    """Partial time reversal of a physical covariance across a mode cut:
    the leading ``cut`` modes form party A, and party B's momenta flip."""
    gamma = _require_physical(gamma)
    cut = _count(cut, "cut", "mode-cut", 1, gamma.n_modes - 1)
    return partial_time_reversal(gamma, range(cut, gamma.n_modes))


def gaussian_log_negativity(gamma: CovarianceMatrix, cut: int = 1) -> float:
    """Log-negativity of a Gaussian state across a mode cut, in bits.

    Parameters
    ----------
    gamma : CovarianceMatrix
        Physical covariance matrix.
    cut : int, optional
        Number of leading modes on party A; the rest form party B.

    Returns
    -------
    float
        ``-sum log2 min(1, mu_k)`` over the partial-time-reversal
        symplectic spectrum; 0 iff that spectrum stays >= 1 - 1e-9.
    """
    total = 0.0
    for mu in symplectic_eigenvalues(_reversed_across(gamma, cut)).values:
        if mu < 1.0 - UNCERTAINTY_TOLERANCE:
            total -= np.log2(mu)
    return float(total)


def gaussian_is_ppt(gamma: CovarianceMatrix, cut: int = 1) -> bool:
    """PPT test of a Gaussian state across a mode cut.

    Parameters
    ----------
    gamma : CovarianceMatrix
        Physical covariance matrix.
    cut : int, optional
        Number of leading modes on party A; the rest form party B.

    Returns
    -------
    bool
        True iff the partial time reversal satisfies the uncertainty
        relation within 1e-9: necessary for separability, and sufficient
        for one mode per side (``gaussian_ppt_separable``).
    """
    return _reversed_across(gamma, cut).uncertainty_margin() >= -UNCERTAINTY_TOLERANCE


def gaussian_ppt_separable(gamma: CovarianceMatrix, cut: int = 1) -> bool:
    """Exact separability test for one mode against one mode.

    Parameters
    ----------
    gamma : CovarianceMatrix
        Physical two-mode covariance.
    cut : int, optional
        Must select a single mode per side.

    Returns
    -------
    bool
        ``gaussian_is_ppt``, which is exact in this regime.
    """
    gamma = _as_cov(gamma)
    if gamma.n_modes != 2 or cut != 1:
        raise UnsupportedCaseError(
            "separability is decided only for one mode per side; larger cuts "
            "get a PPT check that is merely a necessary condition")
    return gaussian_is_ppt(gamma, cut)


def apply_symplectic(gamma: CovarianceMatrix, s: np.ndarray) -> CovarianceMatrix:
    """Apply a symplectic transformation ``gamma -> S gamma S^T``.

    Parameters
    ----------
    gamma : CovarianceMatrix
        Input covariance.
    s : ndarray
        Real 2n x 2n matrix with ``S sigma S^T = sigma`` within 1e-9
        and unit determinant within 1e-9.

    Returns
    -------
    CovarianceMatrix
        Transformed covariance; the symplectic spectrum is unchanged.
    """
    gamma = _as_cov(gamma)
    s = _numbers(s, "symplectic matrix", float)
    sigma = symplectic_form(gamma.n_modes)
    if s.shape != sigma.shape:
        raise ValidationError("symplectic-shape",
                              detail=f"expected {sigma.shape}, got {s.shape}")
    residual = float(np.max(np.abs(s @ sigma @ s.T - sigma)))
    if residual > 1e-9:
        raise ValidationError("symplectic-form", residual=residual, limit=1e-9)
    det = float(np.linalg.det(s))
    if abs(det - 1.0) > 1e-9:
        raise ValidationError("symplectic-determinant", residual=det - 1.0,
                              limit=1e-9)
    mean = None if gamma.first_moments is None else s @ gamma.first_moments
    return CovarianceMatrix(s @ gamma.matrix @ s.T, mean,
                            physical=gamma.physical)


def two_mode_squeezed(r: float) -> CovarianceMatrix:
    """Covariance of the two-mode squeezed vacuum with parameter r.

    Parameters
    ----------
    r : float
        Squeezing strength, nonnegative.

    Returns
    -------
    CovarianceMatrix
        Pure two-mode state with ``cosh(2r)`` diagonal blocks and
        ``sinh(2r) diag(1, -1)`` correlations.
    """
    r = _real(r, "squeezing parameter", "squeezing-domain", low=0.0)
    return CovarianceMatrix(two_mode_squeezer(2.0 * r))


def vacuum(n_modes: int) -> CovarianceMatrix:
    """Covariance of the n-mode vacuum: the identity."""
    n_modes = _count(n_modes, "mode count", "mode-count", 1, MODE_LIMIT)
    return CovarianceMatrix(np.eye(2 * n_modes))


def thermal(mu: float) -> CovarianceMatrix:
    """Single thermal mode with symplectic eigenvalue mu >= 1."""
    mu = _real(mu, "thermal parameter", "thermal-domain", low=1.0)
    return CovarianceMatrix(np.diag([mu, mu]))


def mode_rotation(theta: float) -> np.ndarray:
    """Single-mode phase rotation; orthogonal, hence symplectic."""
    theta = _real(theta, "angle", "rotation-angle")
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def two_mode_squeezer(r: float) -> np.ndarray:
    """Symplectic matrix generating two-mode squeezing from the vacuum."""
    r = _real(r, "squeezing parameter", "squeezing-domain")
    c, s = np.cosh(r), np.sinh(r)
    z = np.diag([1.0, -1.0])
    return np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])


def covariance_from_dict(payload: dict) -> CovarianceMatrix:
    """Build a covariance matrix from its JSON dictionary form.

    Parameters
    ----------
    payload : dict
        Keys ``modes``, ``cov``, optional ``mean``, and ``ordering``
        equal to ``"xpxp"`` (native) or ``"xxpp"`` (grouped; permuted
        on load).

    Returns
    -------
    CovarianceMatrix
        Validated covariance in the interleaved ordering.
    """
    if not isinstance(payload, dict):
        raise ValidationError("cov-payload", detail="expected a JSON object")
    missing = {"modes", "cov"} - set(payload)
    if missing:
        raise ValidationError("cov-payload",
                              detail=f"missing keys {sorted(missing)}")
    n = _count(payload["modes"], "modes", "cov-payload", low=1)
    ordering = _choice(payload.get("ordering", "xpxp"), ("xpxp", "xxpp"), "cov-ordering",
                       "ordering")
    mat = _numbers(payload["cov"], "cov", float)
    if mat.shape != (2 * n, 2 * n):
        raise ValidationError(
            "cov-shape", detail=f"expected shape {(2 * n, 2 * n)}, got {mat.shape}")
    mean = payload.get("mean")
    if ordering == "xxpp":
        perm = np.concatenate([[m, n + m] for m in range(n)])
        mat = mat[np.ix_(perm, perm)]
        if mean is not None:
            mean = _numbers(mean, "mean", float).reshape(-1)
            # a mean of another length is left for CovarianceMatrix to refuse
            mean = mean[perm] if mean.size == 2 * n else mean
    return CovarianceMatrix(mat, mean)


def covariance_to_dict(gamma: CovarianceMatrix) -> dict:
    """Serialize a covariance matrix to its JSON dictionary form."""
    gamma = _as_cov(gamma)
    payload = {
        "modes": gamma.n_modes,
        "ordering": "xpxp",
        "cov": gamma.matrix.tolist(),
    }
    if gamma.first_moments is not None:
        payload["mean"] = gamma.first_moments.tolist()
    return payload


def _as_cov(gamma) -> CovarianceMatrix:
    if isinstance(gamma, CovarianceMatrix):
        return gamma
    return CovarianceMatrix(gamma)


def _require_physical(gamma) -> CovarianceMatrix:
    """``gamma``, refused unless physical: one built ``physical=True`` was
    checked at construction, and any other is checked by building such a copy."""
    gamma = _as_cov(gamma)
    if not gamma.physical:
        CovarianceMatrix(gamma.matrix)
    return gamma
