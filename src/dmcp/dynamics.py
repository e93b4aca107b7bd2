"""Piecewise-constant two-level dynamics for detuning-modulated composite pulses.

Conventions used throughout the package:

- Basis ordering is (|0>, |1>) with amplitudes c = (c0, c1).
- The coherent two-level Hamiltonian of one constant piece is
  H = 0.5 * [[-Delta, Omega], [Omega, Delta]] (units of rad/time, hbar = 1),
  with real coupling Omega > 0 and real detuning Delta = ratio * Omega.
- The generalized Rabi frequency is Omega_g = sqrt(Omega^2 + Delta^2) and the
  pulse area of one piece is A = Omega_g * dt. Sequences store the detuning
  RATIO Delta/Omega per piece, which is the only shape parameter that matters.
- Sequence propagators multiply right-to-left: the first listed segment acts
  first in time.
- Relaxation is modelled by giving the excited level a width: the level gap
  becomes Delta - i*gamma, i.e. H_diag = (-Delta/2, (Delta - i*gamma)/2).
  Populations prepared in |1> then decay with lifetime 1/gamma. Splitting off
  the trace, H = -i*gamma/4 + (Omega*sigma_x - Delta'*sigma_z)/2 with the
  complex detuning Delta' = Delta - i*gamma/2, so every piece keeps the
  closed-form constant-piece propagator (with a complex generalized Rabi
  frequency) times exp(-gamma*dt/4). It is no longer unitary; state norms
  shrink monotonically with gamma.
- One step function (`_step`) and one product loop (`_product`) serve every
  propagator in the package: `compose`, `compose_grid`, `bloch_trajectory`,
  the photonics device model and, through the symmetric-power lift of
  `nlevel`, every n-level propagator.

A composite sequence whose detuning list is anti-palindromic (the universal
construction) composes, at zero error, to a rotation about the y axis. Gate
comparisons therefore default to the y form of `ideal_rotation`; the x form is
available for callers that want the conventional sigma_x convention.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

__all__ = [
    "PulseSegment",
    "SequenceKind",
    "CompositeSequence",
    "ErrorModel",
    "StateVector",
    "ComplexMatrix",
    "segment_propagator",
    "compose",
    "compose_grid",
    "apply",
    "ideal_rotation",
    "target_rotation",
    "gate_distance",
    "bloch_trajectory",
    "bloch_coordinates",
    "resonant_pulse",
]

# Propagators and states are plain complex ndarrays; the alias documents intent.
ComplexMatrix = np.ndarray


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PulseSegment:
    """One constant-parameter piece of a composite pulse.

    Parameters
    ----------
    ratio : float
        Detuning ratio Delta/Omega (dimensionless).
    coupling : float
        Coupling Omega in rad/unit-time; must be > 0.
    nominal_area : float
        Target pulse area A = Omega_g * dt in rad; must be > 0.
    """

    ratio: float
    coupling: float = 1.0
    nominal_area: float = np.pi

    def __post_init__(self):
        _require_finite("ratio", self.ratio)
        if not (np.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError(f"coupling must be positive and finite, got {self.coupling!r}")
        if not (np.isfinite(self.nominal_area) and self.nominal_area > 0):
            raise ValueError(f"nominal_area must be positive and finite, got {self.nominal_area!r}")

    @property
    def detuning(self) -> float:
        return self.ratio * self.coupling

    @property
    def rabi_frequency(self) -> float:
        """Generalized Rabi frequency sqrt(Omega^2 + Delta^2)."""
        return self.coupling * float(np.hypot(1.0, self.ratio))

    @property
    def duration(self) -> float:
        """Nominal duration A / Omega_g."""
        return self.nominal_area / self.rabi_frequency


class SequenceKind(Enum):
    POINT_TO_POINT = "point_to_point"
    UNIVERSAL = "universal"


@dataclass(frozen=True)
class CompositeSequence:
    """Ordered pulse segments plus the rotation they are meant to implement."""

    segments: tuple[PulseSegment, ...]
    target_angle: float
    order: int = 1
    kind: SequenceKind = SequenceKind.POINT_TO_POINT
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if len(self.segments) < 1:
            raise ValueError("a composite sequence needs at least one segment")
        _require_finite("target_angle", self.target_angle)
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order!r}")
        if self.kind is SequenceKind.UNIVERSAL:
            n = len(self.segments)
            if n % 2 != 0:
                raise ValueError("universal sequences must have an even number of segments")
            ratios = self.ratios
            if not np.allclose(ratios[::-1], -ratios, atol=1e-9):
                raise ValueError(
                    "universal sequences must have an anti-palindromic ratio list "
                    f"(got {np.round(ratios, 4).tolist()})"
                )

    @property
    def ratios(self) -> np.ndarray:
        return np.array([s.ratio for s in self.segments])

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    @classmethod
    def from_ratios(
        cls,
        ratios: Iterable[float],
        target_angle: float,
        *,
        order: int = 1,
        kind: SequenceKind = SequenceKind.POINT_TO_POINT,
        coupling: float = 1.0,
        area: float = np.pi,
        label: str = "",
    ) -> "CompositeSequence":
        segs = tuple(PulseSegment(float(r), coupling, area) for r in ratios)
        return cls(segs, target_angle, order, kind, label)


def resonant_pulse(angle: float = np.pi) -> CompositeSequence:
    """Single resonant pulse of the given area, the reference everything beats."""
    return CompositeSequence.from_ratios(
        [0.0], angle, area=angle, kind=SequenceKind.POINT_TO_POINT, label="single-resonant"
    )


@dataclass(frozen=True)
class ErrorModel:
    """Systematic errors applied to a sequence.

    area_scale eps scales every segment duration jointly (dt -> dt*(1+eps));
    coupling_errors / detuning_errors are per-segment fractional errors applied
    at fixed (nominal) durations; missing entries mean zero. gamma >= 0 is the
    excited-level relaxation rate.
    """

    area_scale: float = 0.0
    coupling_errors: tuple[float, ...] = field(default_factory=tuple)
    detuning_errors: tuple[float, ...] = field(default_factory=tuple)
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coupling_errors", tuple(float(x) for x in self.coupling_errors))
        object.__setattr__(self, "detuning_errors", tuple(float(x) for x in self.detuning_errors))
        _require_finite("area_scale", self.area_scale)
        for x in self.coupling_errors + self.detuning_errors:
            _require_finite("per-segment error", x)
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be >= 0, got {self.gamma!r}")

    def coupling_error(self, index: int) -> float:
        return self.coupling_errors[index] if index < len(self.coupling_errors) else 0.0

    def detuning_error(self, index: int) -> float:
        return self.detuning_errors[index] if index < len(self.detuning_errors) else 0.0

    @property
    def is_zero(self) -> bool:
        return (
            self.area_scale == 0.0
            and self.gamma == 0.0
            and not any(self.coupling_errors)
            and not any(self.detuning_errors)
        )


ZERO_ERROR = ErrorModel()


class StateVector:
    """Complex amplitude vector. `StateVector.normalized` builds unit-norm states;
    evolution results keep their raw (possibly sub-unit) norm."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 2:
            raise ValueError("state vectors need dimension >= 2")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("state amplitudes must be finite")
        self.amplitudes = amps

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        s = cls(amplitudes)
        n = s.norm
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(s.amplitudes / n)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __repr__(self):
        return f"StateVector({np.round(self.amplitudes, 6).tolist()})"


def as_amplitudes(state) -> np.ndarray:
    """Accept StateVector or array-like, return a complex 1-d array."""
    if isinstance(state, StateVector):
        return state.amplitudes
    return np.asarray(state, dtype=complex).reshape(-1)


def _perturbed_parameters(seg: PulseSegment, err: ErrorModel, index: int):
    omega = seg.coupling * (1.0 + err.coupling_error(index))
    delta = seg.detuning * (1.0 + err.detuning_error(index))
    dt = seg.duration * (1.0 + err.area_scale)
    return omega, delta, dt


def _step(omega, delta, dt, gamma: float = 0.0) -> np.ndarray:
    """Propagators exp(-i dt H) of constant pieces, shape broadcast + (2, 2).

    omega, delta and dt broadcast together. With gamma > 0 the detuning
    becomes Delta' = Delta - i*gamma/2 and the result carries exp(-gamma*dt/4).
    Safe where the generalized Rabi frequency vanishes: at Omega = Delta = 0
    and at the exceptional point Omega = gamma/2, Delta = 0.
    """
    if gamma > 0:
        delta = delta - 0.5j * gamma
        og = np.sqrt(omega * omega + delta * delta + 0j)
    else:
        og = np.hypot(omega, delta)
    half = 0.5 * og * dt
    c = np.cos(half)
    # sin(A/2)/Omega_g with its Omega_g -> 0 limit dt/2
    nonzero = og != 0
    sc = np.where(nonzero, np.sin(half) / np.where(nonzero, og, 1.0), 0.5 * dt)
    step = np.empty(np.shape(c) + (2, 2), dtype=complex)
    step[..., 0, 0] = c + 1j * delta * sc
    step[..., 0, 1] = step[..., 1, 0] = -1j * omega * sc
    step[..., 1, 1] = c - 1j * delta * sc
    if gamma > 0:
        step *= np.exp(-0.25 * gamma * np.asarray(dt))[..., None, None]
    return step


def _product(pieces: Iterable[tuple], gamma: float = 0.0) -> np.ndarray:
    """Ordered product U_N ... U_1 of the steps of (omega, delta, dt) pieces."""
    u = np.eye(2, dtype=complex)
    for omega, delta, dt in pieces:
        step = _step(omega, delta, dt, gamma)
        u = np.einsum("...ij,...jk->...ik", step, u)
    return u


def _samples(pieces: Iterable[tuple], state: np.ndarray, samples_per_segment: int, gamma: float = 0.0):
    """States along piecewise evolution: samples_per_segment evenly spaced
    times per piece (endpoint included) after the initial point.

    Returns (times, amplitudes) with shapes (m,) and (m,) + state.shape; a
    (2, 2) identity as the state gives the propagators from the start.
    """
    times, states = [np.zeros(1)], [state[None, :]]
    t0 = 0.0
    for omega, delta, dt in pieces:
        tau = dt * np.arange(1, samples_per_segment + 1) / samples_per_segment
        out = _step(omega, delta, tau, gamma) @ state
        times.append(t0 + tau)
        states.append(out)
        state = out[-1]
        t0 += dt
    return np.concatenate(times), np.concatenate(states)


def _pieces(seq: CompositeSequence | Iterable[PulseSegment], err: ErrorModel):
    segments = seq.segments if isinstance(seq, CompositeSequence) else tuple(seq)
    return [_perturbed_parameters(seg, err, k) for k, seg in enumerate(segments)]


def segment_propagator(seg: PulseSegment, err: ErrorModel = ZERO_ERROR, seg_index: int = 0) -> ComplexMatrix:
    """Propagator of one piece under the given error model.

    Unitary at gamma = 0; with gamma > 0 the excited level acquires a width
    (complex gap Delta - i*gamma) and the propagator shrinks state norms.
    """
    return _step(*_perturbed_parameters(seg, err, seg_index), err.gamma)


def compose(seq: CompositeSequence, err: ErrorModel = ZERO_ERROR) -> ComplexMatrix:
    """Total propagator U_N ... U_1 (first segment acts first in time)."""
    return _product(_pieces(seq, err), err.gamma)


def compose_grid(
    seq: CompositeSequence,
    *,
    area_scale=0.0,
    coupling_frac=0.0,
    detuning_frac=0.0,
) -> np.ndarray:
    """Vectorized zero-gamma compose over broadcast arrays of fractional errors.

    The three arguments broadcast together; the same fraction applies to every
    segment (correlated errors). Returns an array of shape broadcast + (2, 2).
    Durations stay at their nominal values except for `area_scale`.
    """
    eps, ce, de = np.broadcast_arrays(
        np.asarray(area_scale, float), np.asarray(coupling_frac, float), np.asarray(detuning_frac, float)
    )

    def pieces():
        for seg in seq.segments:
            omega = seg.coupling * (1.0 + ce)
            yield omega, seg.detuning * (1.0 + de), seg.duration * (1.0 + eps)

    return _product(pieces())


def apply(u: ComplexMatrix, state) -> StateVector:
    """Matrix-vector product. Deliberately NOT renormalized so relaxation loss
    stays observable."""
    amps = as_amplitudes(state)
    u = np.asarray(u, dtype=complex)
    if u.shape != (amps.size, amps.size):
        raise ValueError(f"dimension mismatch: U is {u.shape}, state has {amps.size} amplitudes")
    return StateVector(u @ amps)


def ideal_rotation(angle: float, axis: str = "y") -> ComplexMatrix:
    """exp(-i*(angle/2)*sigma_axis) for axis in {"x", "y"}.

    The y form is the default because the anti-palindromic detuning construction
    realizes its rotation about y (real propagator); the x form is the textbook
    sigma_x convention.
    """
    _require_finite("angle", angle)
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def gate_distance(u: ComplexMatrix, v: ComplexMatrix) -> float:
    """Global-phase-invariant distance 1 - |tr(U^dag V)| / 2 in [0, 1]."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (2, 2) or v.shape != (2, 2):
        raise ValueError("gate_distance compares 2x2 propagators")
    return float(1.0 - abs(np.trace(u.conj().T @ v)) / 2.0)


def target_rotation(seq: CompositeSequence) -> ComplexMatrix:
    """Sense-matched ideal gate for a sequence.

    The construction fixes the rotation angle |theta| but the sense (rotation by
    +theta or -theta about y) is a branch choice of the solution family; both
    appear among the published rows. Returns the y rotation by +-target_angle
    closer to the zero-error propagator.
    """
    u0 = compose(seq)
    plus = ideal_rotation(seq.target_angle, "y")
    minus = ideal_rotation(-seq.target_angle, "y")
    return plus if gate_distance(u0, plus) <= gate_distance(u0, minus) else minus


def bloch_coordinates(state) -> tuple[float, float, float]:
    """(x, y, z) = (2 Re c0* c1, 2 Im c0* c1, |c0|^2 - |c1|^2)."""
    c = as_amplitudes(state)
    if c.size != 2:
        raise ValueError("Bloch coordinates are defined for two-level states")
    cross = np.conj(c[0]) * c[1]
    return (float(2 * cross.real), float(2 * cross.imag), float(abs(c[0]) ** 2 - abs(c[1]) ** 2))


def bloch_trajectory(
    seq: CompositeSequence | Iterable[PulseSegment],
    err: ErrorModel = ZERO_ERROR,
    init=None,
    samples_per_segment: int = 32,
) -> list[tuple[float, float, float, float]]:
    """Sampled (time, x, y, z) Bloch trajectory along the piecewise evolution.

    Accepts a CompositeSequence or a bare iterable of segments (an empty
    iterable yields just the initial point). samples_per_segment counts the
    interior+endpoint samples added per segment and must be >= 2.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be >= 2")
    state = as_amplitudes(init) if init is not None else np.array([1.0, 0.0], dtype=complex)
    if state.size != 2:
        raise ValueError("Bloch coordinates are defined for two-level states")
    times, c = _samples(_pieces(seq, err), state, samples_per_segment, err.gamma)
    cross = np.conj(c[:, 0]) * c[:, 1]
    z = np.abs(c[:, 0]) ** 2 - np.abs(c[:, 1]) ** 2
    return list(zip(times.tolist(), (2 * cross.real).tolist(), (2 * cross.imag).tolist(), z.tolist()))
