"""Reference values computed with plain numpy, independently of entmeas.

Every function here is written from the textbook formula (Wootters for
two qubits, Vidal for pure-state conversion, Coffman-Kundu-Wootters for
three qubits, Vidal-Tarrach for the robustness of pure states, Vedral-Plenio
for Bell-diagonal relative entropy).  None of them imports entmeas, so a
fault in the package cannot hide behind a matching fault here.
"""

from __future__ import annotations

import math

import numpy as np

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYY = np.kron(_SY, _SY)


def entropy_bits(probs) -> float:
    """Shannon entropy in bits of a probability vector."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def h2(p: float) -> float:
    """Binary entropy in bits."""
    return entropy_bits([p, 1.0 - p])


def partial_transpose(rho: np.ndarray, dims) -> np.ndarray:
    """Transpose the last tensor factor of a matrix on ``prod(dims)``."""
    dims = tuple(dims)
    k = len(dims)
    t = rho.reshape(dims + dims)
    axes = list(range(2 * k))
    axes[k - 1], axes[2 * k - 1] = axes[2 * k - 1], axes[k - 1]
    return t.transpose(axes).reshape(rho.shape)


def negativity(rho: np.ndarray, dims) -> float:
    """``(||rho^T_B||_1 - 1) / 2`` across the last-factor cut."""
    eigs = np.linalg.eigvalsh(partial_transpose(rho, dims))
    return float(max(0.0, -eigs[eigs < 0.0].sum()))


def log_negativity(rho: np.ndarray, dims) -> float:
    return math.log2(1.0 + 2.0 * negativity(rho, dims))


def min_pt_eigenvalue(rho: np.ndarray, dims) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(rho, dims))[0])


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the spectrum of ``rho (sy sy) rho* (sy sy)``."""
    eigs = np.linalg.eigvals(rho @ _SYY @ rho.conj() @ _SYY)
    roots = np.sort(np.sqrt(np.clip(eigs.real, 0.0, None)))[::-1]
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def eof_two_qubit(rho: np.ndarray) -> float:
    """Wootters entanglement of formation in bits."""
    c = min(1.0, concurrence(rho))
    return h2((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def reduced_first(rho: np.ndarray, dims) -> np.ndarray:
    """Reduced state of the first factor."""
    da = dims[0]
    rest = rho.shape[0] // da
    return np.einsum("ajbj->ab", rho.reshape(da, rest, da, rest))


def reduced_last(rho: np.ndarray, dims) -> np.ndarray:
    """Reduced state of everything but the first factor."""
    da = dims[0]
    rest = rho.shape[0] // da
    return np.einsum("iajb->ab", rho.reshape(da, rest, da, rest))


def von_neumann(rho: np.ndarray) -> float:
    return entropy_bits(np.linalg.eigvalsh(rho))


def hashing(rho: np.ndarray, dims) -> float:
    """``max(S(A), S(B)) - S(AB)``, floored at zero."""
    s_ab = von_neumann(rho)
    s_a = von_neumann(reduced_first(rho, dims))
    s_b = von_neumann(reduced_last(rho, dims))
    return max(0.0, s_a - s_ab, s_b - s_ab)


def qubit_tangle(psi: np.ndarray) -> float:
    """``4 det rho_1`` for the first qubit of a pure state."""
    red = reduced_first(np.outer(psi, psi.conj()), (2, psi.size // 2))
    return float(4.0 * np.real(np.linalg.det(red)))


def three_tangle(psi: np.ndarray) -> float:
    """Residual three-qubit tangle ``4 |Cayley hyperdeterminant|``."""
    a = psi.reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def conversion_probability(alpha, beta) -> float:
    """Vidal's optimal probability ``min_l sum_{i>=l} a_i / sum_{i>=l} b_i``."""
    a = np.sort(np.asarray(alpha, dtype=float))[::-1]
    b = np.sort(np.asarray(beta, dtype=float))[::-1]
    n = max(a.size, b.size)
    a = np.pad(a, (0, n - a.size))
    b = np.pad(b, (0, n - b.size))
    tails_a = np.cumsum(a[::-1])[::-1]
    tails_b = np.cumsum(b[::-1])[::-1]
    ratios = [ta / tb for ta, tb in zip(tails_a, tails_b) if tb > 1e-15]
    return float(min(1.0, min(ratios)))


def pure_robustness(schmidt_probs) -> float:
    """Separable and global robustness of a pure state, ``(sum sqrt(l))^2 - 1``."""
    return float(np.sum(np.sqrt(schmidt_probs)) ** 2 - 1.0)


def gaussian_entropy_thermal(nu: float) -> float:
    """Entropy in bits of one mode with symplectic eigenvalue ``nu`` (vacuum 1)."""
    if nu <= 1.0 + 1e-12:
        return 0.0
    up, down = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return float(up * math.log2(up) - down * math.log2(down))
