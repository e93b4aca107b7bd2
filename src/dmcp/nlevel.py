"""Lift of two-level composite pulses to n-level ladders with SU(2) symmetry.

The Jacobi coupling pattern Omega_k = Omega_0 * sqrt(k*(n-k)) with linear
ladder detunings Delta_k = k*Delta_0 + D_0 makes an n-level chain an
irreducible spin-j system, j = (n-1)/2. A two-level piece with Hamiltonian
(Omega*sigma_x - Delta*sigma_z)/2 lifts to Omega*Jx - Delta*Jz, which reduces
exactly to the two-level form at n = 2. Level |0> is the top of the ladder
(m = +j); a pi rotation therefore transfers |0> to the opposite end |n-1>.

So every n-level propagator is the symmetric power of the two-level one
(the Majorana picture): `_lift` maps a batch of 2x2 matrices u to their
images on the degree n-1 homogeneous polynomials in (x, y), in the
orthonormal basis sqrt(C(n-1, k)) x^(n-1-k) y^k, i.e. m = j..-j. The lift is
a homomorphism on all of GL(2), so `nlevel_propagator` is the lift of
`dynamics.compose` and `population_trajectory` the lift of the sampled
two-level propagators; no n x n exponential is taken. `wigner_lift` is the
same lift restricted to validated SU(2) input, and `wigner_d_matrix` is the
lift of a y rotation.

Relaxation needs no special case: it is the lift of the complex-detuning
two-level step. The factor exp(-gamma*dt/4) of the 2x2 step, raised to the
power 2j, and the lifted complex detuning Delta - i*gamma/2 give each level k
the width k*gamma (H = Omega*Jx - Delta*Jz - i*gamma/2 * k), matching the
two-level excited-state width at n = 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .dynamics import (
    CompositeSequence,
    ComplexMatrix,
    ErrorModel,
    ZERO_ERROR,
    _pieces,
    _samples,
    compose,
    ideal_rotation,
)

__all__ = [
    "SpinGenerators",
    "SpinSystem",
    "spin_generators",
    "nlevel_propagator",
    "population_trajectory",
    "wigner_d",
    "wigner_d_matrix",
    "wigner_lift",
]

# Lifted matrix entries computed per chunk of the batch, which bounds the
# working memory of `_lift` at large n and large batches.
_LIFT_CHUNK = 1 << 18
# `_lift` grows coefficients up to C(n-1, (n-1)/2), past double range beyond
# n ~ 1030.
_MAX_LEVELS = 1000


@dataclass(frozen=True)
class SpinGenerators:
    """Angular-momentum matrices in the m = j, j-1, ..., -j basis."""

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    @property
    def dimension(self) -> int:
        return self.jz.shape[0]


def spin_generators(n: int) -> SpinGenerators:
    """Standard spin-j generators for an n-level system (n >= 2)."""
    if n < 2:
        raise ValueError(f"need n >= 2 levels, got {n}")
    j = (n - 1) / 2.0
    m = j - np.arange(n)  # j, j-1, ..., -j
    jplus = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        # <m_k| J+ |m_{k+1}>, ladder element sqrt(j(j+1) - m(m+1))
        jplus[k, k + 1] = np.sqrt(j * (j + 1) - m[k + 1] * (m[k + 1] + 1))
    jminus = jplus.conj().T
    return SpinGenerators(
        jx=(jplus + jminus) / 2.0,
        jy=(jplus - jminus) / 2j,
        jz=np.diag(m).astype(complex),
    )


@dataclass(frozen=True)
class SpinSystem:
    """n-level ladder with Jacobi couplings and linear detunings."""

    dimension: int
    base_coupling: float = 1.0
    base_detuning: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if not (np.isfinite(self.base_coupling) and self.base_coupling > 0):
            raise ValueError("base_coupling must be positive")

    @property
    def jacobi_couplings(self) -> np.ndarray:
        """Omega_k = Omega_0 * sqrt(k (n-k)), k = 1..n-1; strictly positive."""
        k = np.arange(1, self.dimension)
        return self.base_coupling * np.sqrt(k * (self.dimension - k))

    @property
    def ladder_detunings(self) -> np.ndarray:
        """Delta_k = k*Delta_0 + D_0, k = 1..n-1."""
        k = np.arange(1, self.dimension)
        return k * self.base_detuning + self.offset


def _lift(u, n: int) -> np.ndarray:
    """Dimension-n symmetric power of 2x2 matrices, shape (..., 2, 2) -> (..., n, n).

    With N = n - 1 and u = [[a, b], [c, d]], entry [r, k] is
    sqrt(C(N, k) / C(N, r)) times the coefficient of t^r in
    (a + c t)^(N-k) (b + d t)^k, which equals the coefficient of x^r y^k in
    (a + c x + b y + d x y)^N divided by sqrt(C(N, r) C(N, k)). Summing the
    first form's coefficients loses ~sqrt(C(N, k)) digits to cancellation.
    The second form is grown one degree at a time instead, each step a
    shifted sum with the four entries of u; up to the diagonal scaling that
    is the isometric recursion Sym^m(u) = P* (Sym^(m-1)(u) (x) u) P, so the
    rounding error grows only linearly in n.
    """
    u = np.asarray(u, dtype=complex)
    if n == 2:
        return u
    if n > _MAX_LEVELS:
        raise ValueError(f"the n-level lift supports at most {_MAX_LEVELS} levels, got {n}")
    flat = u.reshape(-1, 4)
    out = np.empty((flat.shape[0], n, n), dtype=complex)
    root = np.sqrt(np.array([comb(n - 1, r) for r in range(n)], dtype=float))
    scale = np.outer(root, root)
    chunk = max(1, _LIFT_CHUNK // (n * n))
    for start in range(0, flat.shape[0], chunk):
        a, b, c, d = flat[start:start + chunk, :, None, None].transpose(1, 0, 2, 3)
        power = np.ones((a.shape[0], 1, 1), dtype=complex)
        for m in range(1, n):
            grown = np.zeros((a.shape[0], m + 1, m + 1), dtype=complex)
            grown[:, :m, :m] = a * power
            grown[:, :m, 1:] += b * power
            grown[:, 1:, :m] += c * power
            grown[:, 1:, 1:] += d * power
            power = grown
        out[start:start + chunk] = power / scale
    return out.reshape(u.shape[:-2] + (n, n))


def nlevel_propagator(seq: CompositeSequence, n: int, err: ErrorModel = ZERO_ERROR) -> ComplexMatrix:
    """Propagator of a composite sequence on the n-level lift.

    Equals the product over pieces of exp(-i dt (Omega'*Jx - Delta'*Jz
    - i*gamma/2 * excitation number)), computed as the lift of the two-level
    `dynamics.compose`; at n = 2 it is `compose` itself.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 levels, got {n}")
    return _lift(compose(seq, err), n)


def population_trajectory(
    seq: CompositeSequence,
    n: int,
    err: ErrorModel = ZERO_ERROR,
    init=None,
    samples_per_segment: int = 32,
) -> np.ndarray:
    """Level populations sampled along the piecewise evolution.

    Returns rows (time, p_0, ..., p_{n-1}); the initial state defaults to the
    top-of-ladder level |0>. Each row lifts the two-level propagator from the
    start to that sample time.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 levels, got {n}")
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be >= 2")
    state = np.eye(n, dtype=complex)[0] if init is None else np.asarray(init, dtype=complex).reshape(-1)
    if state.size != n:
        raise ValueError(f"initial state has dimension {state.size}, expected {n}")
    times, us = _samples(_pieces(seq, err), np.eye(2, dtype=complex), samples_per_segment, err.gamma)
    return np.column_stack([times, np.abs(_lift(us, n) @ state) ** 2])


def wigner_d_matrix(n: int, beta: float) -> np.ndarray:
    """Full little-d matrix exp(-i beta Jy) in the m = j..-j basis."""
    return _lift(ideal_rotation(beta, "y"), n).real


def wigner_d(j: float, m_row: float, m_col: float, beta: float) -> float:
    """Wigner little-d element <j m_row| exp(-i beta Jy) |j m_col>."""
    n = int(round(2 * j)) + 1
    row, col = int(round(j - m_row)), int(round(j - m_col))
    if not (0 <= row < n and 0 <= col < n):
        raise ValueError(f"invalid (j, m) pair: j={j}, m=({m_row}, {m_col})")
    return float(wigner_d_matrix(n, beta)[row, col])


def wigner_lift(u: ComplexMatrix, n: int) -> ComplexMatrix:
    """Image of a 2x2 special-unitary under the dimension-n irreducible
    representation.

    Raises ValueError when the input is not special-unitary to 1e-8. The
    residual determinant phase is stripped before lifting, so this is a
    genuine homomorphism of SU(2) for every n (no double-valuedness).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("wigner_lift expects a 2x2 matrix")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-8:
        raise ValueError("input is not unitary to 1e-8")
    det = np.linalg.det(u)
    if abs(det - 1.0) > 1e-8:
        raise ValueError("input is not special-unitary to 1e-8 (det != 1)")
    return _lift(u / np.sqrt(det), n)  # strip the residual determinant phase exactly
