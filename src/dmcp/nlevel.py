"""Lift of two-level composite pulses to n-level ladders with SU(2) symmetry.

The Jacobi coupling pattern Omega_k = Omega_0 * sqrt(k*(n-k)) with linear
ladder detunings Delta_k = k*Delta_0 + D_0 makes an n-level chain an
irreducible spin-j system, j = (n-1)/2. A two-level piece with Hamiltonian
(Omega*sigma_x - Delta*sigma_z)/2 lifts to Omega*Jx - Delta*Jz, which reduces
exactly to the two-level form at n = 2. Level |0> is the top of the ladder
(m = +j); a pi rotation therefore transfers |0> to the opposite end |n-1>.

`nlevel_propagator` exponentiates the lifted Hamiltonian per piece (durations
are the two-level ones). `wigner_lift` is the independent oracle: it maps a
2x2 special-unitary to the same representation through an Euler-angle
decomposition and the factorial Wigner little-d formula, sharing no machinery
with the matrix-exponential route.

Relaxation lifts as a per-level width proportional to the number of excitation
quanta: level k decays at k*gamma (complex ladder detunings k*(Delta - i*gamma)),
matching the two-level excited-state width at n = 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.linalg import expm

from .dynamics import CompositeSequence, ComplexMatrix, ErrorModel, ZERO_ERROR, _perturbed_parameters

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


def nlevel_propagator(seq: CompositeSequence, n: int, err: ErrorModel = ZERO_ERROR) -> ComplexMatrix:
    """Propagator of a composite sequence on the n-level lift.

    Per piece H = Omega'*Jx - Delta'*Jz (- i*gamma/2 * excitation number for
    gamma > 0), exponentiated over the two-level segment duration. At n = 2
    this agrees with `dynamics.compose` to machine precision.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 levels, got {n}")
    g = spin_generators(n)
    j = (n - 1) / 2.0
    excitations = j * np.eye(n) - g.jz  # diag(0, 1, ..., n-1)
    u = np.eye(n, dtype=complex)
    for k, seg in enumerate(seq.segments):
        omega, delta, dt = _perturbed_parameters(seg, err, k)
        h = omega * g.jx - delta * g.jz
        if err.gamma:
            h = h - 0.5j * err.gamma * excitations
        u = expm(-1j * dt * h) @ u
    return u


def population_trajectory(
    seq: CompositeSequence,
    n: int,
    err: ErrorModel = ZERO_ERROR,
    init=None,
    samples_per_segment: int = 32,
) -> np.ndarray:
    """Level populations sampled along the piecewise evolution.

    Returns rows (time, p_0, ..., p_{n-1}); the initial state defaults to the
    top-of-ladder level |0>.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be >= 2")
    g = spin_generators(n)
    j = (n - 1) / 2.0
    excitations = j * np.eye(n) - g.jz
    if init is None:
        state = np.zeros(n, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(init, dtype=complex).reshape(-1)
        if state.size != n:
            raise ValueError(f"initial state has dimension {state.size}, expected {n}")
    t = 0.0
    rows = [(t, *np.abs(state) ** 2)]
    for k, seg in enumerate(seq.segments):
        omega, delta, dt = _perturbed_parameters(seg, err, k)
        h = omega * g.jx - delta * g.jz
        if err.gamma:
            h = h - 0.5j * err.gamma * excitations
        step = expm(-1j * (dt / samples_per_segment) * h)
        for _ in range(samples_per_segment):
            state = step @ state
            t += dt / samples_per_segment
            rows.append((t, *np.abs(state) ** 2))
    return np.array(rows)


def wigner_d(j: float, m_row: float, m_col: float, beta: float) -> float:
    """Wigner little-d element <j m_row| exp(-i beta Jy) |j m_col>."""
    two_j = int(round(2 * j))

    def fact(x: float) -> int:
        k = int(round(x))
        if k < 0:
            raise ValueError("negative factorial argument; invalid (j, m) pair")
        return factorial(k)

    k_min = max(0, int(round(m_col - m_row)))
    k_max = min(int(round(j + m_col)), int(round(j - m_row)))
    pref = np.sqrt(
        fact(j + m_col) * fact(j - m_col) * fact(j + m_row) * fact(j - m_row)
    )
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    total = 0.0
    for k in range(k_min, k_max + 1):
        sign = -1.0 if (k - int(round(m_col - m_row))) % 2 else 1.0
        denom = (
            fact(j + m_col - k) * fact(k) * fact(j - k - m_row) * fact(k - m_col + m_row)
        )
        total += sign / denom * c ** (two_j - 2 * k + int(round(m_col - m_row))) * s ** (
            2 * k - int(round(m_col - m_row))
        )
    return float(pref * total)


def wigner_d_matrix(n: int, beta: float) -> np.ndarray:
    """Full little-d matrix exp(-i beta Jy) in the m = j..-j basis."""
    j = (n - 1) / 2.0
    ms = j - np.arange(n)
    d = np.zeros((n, n))
    for a, m_row in enumerate(ms):
        for b, m_col in enumerate(ms):
            d[a, b] = wigner_d(j, m_row, m_col, beta)
    return d


def _euler_zyz(u: np.ndarray) -> tuple[float, float, float]:
    """Angles (a, b, c) with U = Rz(a) Ry(b) Rz(c), exact for SU(2) input."""
    alpha, beta = u[0, 0], u[0, 1]
    b = 2.0 * np.arctan2(abs(beta), abs(alpha))
    half_sum = -np.angle(alpha) if abs(alpha) > 0 else 0.0   # (a+c)/2
    half_diff = -np.angle(-beta) if abs(beta) > 0 else 0.0   # (a-c)/2
    return half_sum + half_diff, b, half_sum - half_diff


def wigner_lift(u: ComplexMatrix, n: int) -> ComplexMatrix:
    """Image of a 2x2 special-unitary under the dimension-n irreducible
    representation, via Euler angles and the factorial d-matrix formula.

    Raises ValueError when the input is not special-unitary to 1e-8. This is a
    genuine homomorphism for every n (no double-valuedness: the domain is
    SU(2), not the rotation group), used as the cross-check oracle for
    `nlevel_propagator`.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("wigner_lift expects a 2x2 matrix")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-8:
        raise ValueError("input is not unitary to 1e-8")
    det = np.linalg.det(u)
    if abs(det - 1.0) > 1e-8:
        raise ValueError("input is not special-unitary to 1e-8 (det != 1)")
    u = u / np.sqrt(det)  # strip the residual determinant phase exactly
    a, b, c = _euler_zyz(u)
    j = (n - 1) / 2.0
    ms = j - np.arange(n)
    left = np.exp(-1j * ms * a)
    right = np.exp(-1j * ms * c)
    return left[:, None] * wigner_d_matrix(n, b) * right[None, :]
