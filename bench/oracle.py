"""Independent reference physics for the output checks.

Nothing here calls dmcp: the two-level step is written out from the
Hamiltonian H = [[-Delta, Omega], [Omega, Delta]] / 2, the n-level lift is the
eigendecomposition of Omega*Jx - Delta*Jz - i*gamma/2 * N built from its own
spin matrices, and the flatness residuals come from a fresh trig fit of the
scalar transfer profile. A wrong batched kernel therefore cannot agree with it.
"""
from __future__ import annotations

import numpy as np

TOL = 1e-9


class Mismatch(AssertionError):
    """An output disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(actual, expected, what: str, tol: float = TOL) -> None:
    err = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected)), initial=0.0))
    require(np.isfinite(err) and err <= tol, f"{what}: deviation {err:.3e} > {tol:g}")


def segments(seq) -> list[tuple[float, float, float]]:
    """(ratio, coupling, area) per piece of a dmcp sequence."""
    return [(float(s.ratio), float(s.coupling), float(s.nominal_area)) for s in seq.segments]


def _pieces(segs, area_scale=0.0, coupling_frac=0.0, detuning_frac=0.0):
    for ratio, coupling, area in segs:
        omega = coupling * (1.0 + coupling_frac)
        delta = ratio * coupling * (1.0 + detuning_frac)
        dt = area / (coupling * np.hypot(1.0, ratio)) * (1.0 + area_scale)
        yield omega, delta, dt


def compose2(segs, area_scale=0.0, coupling_frac=0.0, detuning_frac=0.0) -> np.ndarray:
    """Scalar zero-gamma propagator, first segment acting first."""
    u = np.eye(2, dtype=complex)
    for omega, delta, dt in _pieces(segs, area_scale, coupling_frac, detuning_frac):
        og = np.hypot(omega, delta)
        half = 0.5 * og * dt
        sc = np.sin(half) / og if og > 0 else 0.5 * dt
        c = np.cos(half)
        step = np.array([[c + 1j * delta * sc, -1j * omega * sc],
                         [-1j * omega * sc, c - 1j * delta * sc]])
        u = step @ u
    return u


def spin(n: int):
    """(Jx, Jy, Jz) in the m = j, ..., -j basis."""
    j = (n - 1) / 2.0
    m = j - np.arange(n)
    up = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    return (up + up.T) / 2.0, (up - up.T) / 2j, np.diag(m).astype(complex)


def _expm(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) by eigendecomposition (h diagonalizable)."""
    w, v = np.linalg.eig(h)
    return (v * np.exp(-1j * t * w)) @ np.linalg.inv(v)


def lifted(segs, n: int, gamma: float = 0.0, area_scale: float = 0.0) -> np.ndarray:
    """Propagator on the n-level ladder; n = 2 is the two-level system."""
    jx, _, jz = spin(n)
    excitations = np.diag(np.arange(n)).astype(complex)
    u = np.eye(n, dtype=complex)
    for omega, delta, dt in _pieces(segs, area_scale):
        u = _expm(omega * jx - delta * jz - 0.5j * gamma * excitations, dt) @ u
    return u


def gate_distance(u: np.ndarray, v: np.ndarray) -> float:
    return float(1.0 - abs(np.trace(u.conj().T @ v)) / 2.0)


def target_angle(segs, theta: float) -> float:
    """Signed y-rotation angle (+-theta) closest to the zero-error propagator."""
    u0 = compose2(segs)
    return min((theta, -theta), key=lambda a: gate_distance(u0, rotation_y(a, 2)))


def rotation_y(angle: float, n: int) -> np.ndarray:
    _, jy, _ = spin(n)
    w, v = np.linalg.eigh(jy)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def fidelity(metric: str, target: np.ndarray, realized: np.ndarray) -> float:
    if metric == "state":
        return float(abs(np.vdot(target, realized)) ** 2)
    return float(1.0 - 0.5 * np.sum(np.abs(np.abs(target) ** 2 - np.abs(realized) ** 2)))


def is_unitary(u: np.ndarray) -> bool:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))) <= TOL


def pp_residual(half_ratios, target, order: int) -> float:
    """Largest amplitude/flatness residual of a point-to-point half at area pi.

    The transfer profile f(A) = |U10(A)|^2, every piece at area A, is a trig
    polynomial of order len(half_ratios); a least-squares fit on 21 samples
    gives its derivatives exactly.
    """
    half = [(float(r), 1.0, np.pi) for r in half_ratios]
    xs = np.pi + np.linspace(-1.2, 1.2, 21)
    f = np.array([abs(compose2(half, area_scale=x / np.pi - 1.0)[1, 0]) ** 2 for x in xs])
    k = np.arange(1, len(half_ratios) + 1)
    basis = np.column_stack([np.ones_like(xs), np.cos(np.outer(xs, k)), np.sin(np.outer(xs, k))])
    coef = np.linalg.lstsq(basis, f, rcond=None)[0]
    ck, sk = coef[1:1 + k.size], coef[1 + k.size:]

    def derivative(d):
        phase = k * np.pi + d * np.pi / 2.0
        return float(np.sum(k**d * (ck * np.cos(phase) + sk * np.sin(phase))) + (coef[0] if d == 0 else 0.0))

    residuals = [derivative(0) - np.sin(target / 4.0) ** 2] + [derivative(d) for d in (2, 4)[:order]]
    return float(np.max(np.abs(residuals)))


def bracket(envelope, radius: float, threshold: float, cap: float = 0.999, step: float = 2e-5) -> None:
    """The infidelity envelope stays within threshold up to radius and exceeds it just past."""
    probes = np.linspace(0.0, radius, 17)
    worst = max(envelope(e) for e in probes)
    require(worst <= threshold * (1 + 1e-9), f"envelope {worst:.3e} > {threshold:g} inside radius {radius:.6f}")
    if radius < cap:
        past = envelope(radius + step)
        require(past > threshold, f"envelope {past:.3e} <= {threshold:g} just past radius {radius:.6f}")


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and numeric body of a dmcp CSV (text columns are dropped)."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    numeric = [i for i, cell in enumerate(rows[0]) if _is_number(cell)]
    body = np.array([[float(row[i]) for i in numeric] for row in rows])
    return header, body


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
