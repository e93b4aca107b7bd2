"""Mapping composite sequences onto coupled-waveguide geometries.

Two identical single-mode waveguides at gap g couple with strength
Omega(g) = a * exp(-b * g); a width difference between them creates a
propagation-constant mismatch, i.e. a detuning Delta = (beta(w1) - beta(w2))/2.
The coupled-mode equations are the two-level Schroedinger equation with the
propagation coordinate z in place of time, so a detuning-modulated sequence
becomes a chain of straight segments with widths (w0 + delta_k, w0 - delta_k)
and lengths L_k = A / sqrt(Omega^2 + Delta_k^2).

Calibration data (coupling vs gap, propagation constant vs width) is ingested
from two-column CSV tables; no electromagnetic solver runs here. The width
perturbation is symmetric about the base width so the gap-only coupling model
stays valid across segments; interfaces between segments are treated as ideal
(abrupt width steps do not scatter in this model).
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dynamics import CompositeSequence, _product, _samples, as_amplitudes

__all__ = [
    "CalibrationError",
    "CalibrationRangeError",
    "CouplingCalibration",
    "BetaCalibration",
    "fit_coupling",
    "widths_for_ratio",
    "LayoutSegment",
    "WaveguideLayout",
    "layout_from_sequence",
    "propagate_intensity",
    "endpoint_state",
    "load_coupling_table",
    "load_beta_table",
    "intensity_csv",
    "synthetic_coupling_table",
    "synthetic_beta_table",
]

COUPLING_HEADER = ("g_um", "omega_rad_per_um")
BETA_HEADER = ("w_um", "beta_rad_per_um")

MAX_FIT_RESIDUAL = 0.05
RATIO_TOLERANCE = 0.02


class CalibrationError(ValueError):
    """Bad calibration data (format, monotonicity, positivity, fit quality)."""


class CalibrationRangeError(CalibrationError):
    """Requested value lies outside what the calibration tables can reach."""


@dataclass(frozen=True)
class CouplingCalibration:
    """Exponential gap model Omega(g) = a * exp(-b * g)."""

    a: float
    b: float
    fit_residual: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise CalibrationError("coupling prefactor a must be positive")
        if not (np.isfinite(self.b) and self.b > 0):
            raise CalibrationError("coupling decay constant b must be positive")
        if self.fit_residual >= MAX_FIT_RESIDUAL:
            raise CalibrationError(
                f"coupling fit residual {self.fit_residual:.3%} exceeds {MAX_FIT_RESIDUAL:.0%}"
            )

    def omega(self, gap: float) -> float:
        return float(self.a * np.exp(-self.b * gap))


def fit_coupling(table: Iterable[tuple[float, float]]) -> CouplingCalibration:
    """Least-squares fit of log(Omega) vs g on a (gap, coupling) table."""
    pts = [(float(g), float(om)) for g, om in table]
    if len(pts) < 2:
        raise CalibrationError("coupling fit needs at least two points")
    gs = np.array([p[0] for p in pts])
    oms = np.array([p[1] for p in pts])
    if np.any(oms <= 0):
        raise CalibrationError("coupling values must be positive")
    if np.any(np.diff(gs) <= 0):
        raise CalibrationError("gap values must be strictly increasing")
    design = np.column_stack([np.ones_like(gs), -gs])
    coef, *_ = np.linalg.lstsq(design, np.log(oms), rcond=None)
    a, b = float(np.exp(coef[0])), float(coef[1])
    if b <= 0:
        raise CalibrationError("coupling does not decay with gap; exponential model invalid")
    fitted = a * np.exp(-b * gs)
    residual = float(np.max(np.abs(fitted - oms) / oms))
    return CouplingCalibration(a=a, b=b, fit_residual=residual)


@dataclass(frozen=True)
class BetaCalibration:
    """Monotone table of propagation constant vs waveguide width.

    Linear interpolation between points; extrapolation is refused.
    """

    widths: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        ws = np.asarray(self.widths, dtype=float)
        bs = np.asarray(self.betas, dtype=float)
        if ws.size < 2 or ws.size != bs.size:
            raise CalibrationError("beta calibration needs >= 2 (width, beta) pairs")
        if np.any(np.diff(ws) <= 0):
            raise CalibrationError("widths must be strictly increasing")
        d = np.diff(bs)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise CalibrationError("beta must be strictly monotone over the table")

    @property
    def w_min(self) -> float:
        return self.widths[0]

    @property
    def w_max(self) -> float:
        return self.widths[-1]

    def beta(self, width: float) -> float:
        if width < self.w_min or width > self.w_max:
            raise CalibrationRangeError(
                f"width {width:g} outside calibrated range [{self.w_min:g}, {self.w_max:g}]"
            )
        return float(np.interp(width, self.widths, self.betas))

    def detuning(self, w1: float, w2: float) -> float:
        """Delta = (beta(w1) - beta(w2)) / 2."""
        return 0.5 * (self.beta(w1) - self.beta(w2))


def widths_for_ratio(
    ratio: float,
    beta: BetaCalibration,
    coupling: CouplingCalibration,
    gap: float,
    w0: float,
) -> tuple[float, float]:
    """Symmetric width pair (w0 + delta, w0 - delta) realizing the detuning
    ratio at the given gap, by bisection on the interpolated beta table.

    Antisymmetric by construction: ratio -> -ratio swaps the pair. Raises
    CalibrationRangeError (naming the largest attainable |Delta|) when the
    requested detuning exceeds the table range.
    """
    if not (beta.w_min <= w0 <= beta.w_max):
        raise CalibrationRangeError(
            f"base width {w0:g} outside calibrated range [{beta.w_min:g}, {beta.w_max:g}]"
        )
    omega = coupling.omega(gap)
    delta_req = float(ratio) * omega
    if delta_req == 0.0:
        return (w0, w0)
    d_max = min(w0 - beta.w_min, beta.w_max - w0)
    if d_max <= 0:
        raise CalibrationRangeError("base width sits on the edge of the beta table")
    span = abs(beta.detuning(w0 + d_max, w0 - d_max))
    if abs(delta_req) > span:
        raise CalibrationRangeError(
            f"requested |detuning| {abs(delta_req):.6g} exceeds the attainable "
            f"maximum {span:.6g} for base width {w0:g}"
        )
    # D(d) = (beta(w0+d) - beta(w0-d))/2 is odd and monotone in d.
    sign = 1.0 if beta.detuning(w0 + d_max, w0 - d_max) * delta_req > 0 else -1.0
    lo, hi = 0.0, d_max
    target = abs(delta_req)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(beta.detuning(w0 + sign * mid, w0 - sign * mid)) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, d_max):
            break
    d = sign * 0.5 * (lo + hi)
    return (w0 + d, w0 - d)


@dataclass(frozen=True)
class LayoutSegment:
    w1: float
    w2: float
    gap: float
    length: float
    target_ratio: float
    realized_ratio: float


@dataclass(frozen=True)
class WaveguideLayout:
    """Piecewise-constant coupler geometry realizing a composite sequence."""

    segments: tuple[LayoutSegment, ...]
    base_width: float
    gap: float
    coupling: float
    sequence_label: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("layout needs at least one segment")
        for seg in self.segments:
            if min(seg.w1, seg.w2, seg.gap, seg.length) <= 0:
                raise ValueError("geometric values must be positive")
            scale = max(abs(seg.target_ratio), 1.0)
            if abs(seg.realized_ratio - seg.target_ratio) > RATIO_TOLERANCE * scale:
                raise ValueError(
                    f"realized ratio {seg.realized_ratio:.6g} deviates from target "
                    f"{seg.target_ratio:.6g} by more than {RATIO_TOLERANCE:.0%}"
                )

    @property
    def total_length(self) -> float:
        return float(sum(s.length for s in self.segments))

    def to_json_dict(self) -> dict:
        return {
            "segments": [
                {"w1": s.w1, "w2": s.w2, "gap": s.gap, "length": s.length,
                 "target_ratio": s.target_ratio, "realized_ratio": s.realized_ratio}
                for s in self.segments
            ],
            "base_width": self.base_width,
            "gap": self.gap,
            "coupling": self.coupling,
            "total_length": self.total_length,
            "sequence": self.sequence_label,
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def layout_from_sequence(
    seq: CompositeSequence,
    beta: BetaCalibration,
    coupling: CouplingCalibration,
    gap: float,
    w0: float,
) -> WaveguideLayout:
    """Per-segment widths via `widths_for_ratio`, lengths L = A / Omega_g."""
    omega = coupling.omega(gap)
    segs = []
    for seg in seq.segments:
        w1, w2 = widths_for_ratio(seg.ratio, beta, coupling, gap, w0)
        delta = beta.detuning(w1, w2)
        realized = delta / omega
        length = seg.nominal_area / float(np.hypot(omega, delta))
        segs.append(
            LayoutSegment(w1=w1, w2=w2, gap=gap, length=length,
                          target_ratio=seg.ratio, realized_ratio=realized)
        )
    return WaveguideLayout(
        segments=tuple(segs),
        base_width=w0,
        gap=gap,
        coupling=omega,
        sequence_label=seq.label or "custom",
        metadata={"ratios": [float(r) for r in seq.ratios],
                  "target_angle": float(seq.target_angle)},
    )


def _pieces(layout: WaveguideLayout) -> list[tuple[float, float, float]]:
    """(Omega, Delta, length) of every segment: the two-level pieces of the device."""
    omega = layout.coupling
    return [(omega, seg.realized_ratio * omega, seg.length) for seg in layout.segments]


def _unit_input(input_state) -> np.ndarray:
    amps = as_amplitudes(input_state)
    if amps.size != 2:
        raise ValueError("input state must be two-mode")
    return amps / np.linalg.norm(amps)


def propagate_intensity(
    layout: WaveguideLayout, input_state, samples_per_segment: int = 64
) -> np.ndarray:
    """Coupled-mode intensities along the device.

    Returns an array of rows (z, I1, I2). Lossless model: I1 + I2 = 1 along z
    and the intensities are continuous at segment interfaces.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be >= 2")
    z, amps = _samples(_pieces(layout), _unit_input(input_state), samples_per_segment)
    return np.column_stack([z, np.abs(amps) ** 2])


def endpoint_state(layout: WaveguideLayout, input_state) -> np.ndarray:
    """Amplitudes at the device output (same math as the two-level compose)."""
    return _product(_pieces(layout)) @ _unit_input(input_state)


def load_coupling_table(path) -> list[tuple[float, float]]:
    """Read a `g_um,omega_rad_per_um` CSV (header required, >= 2 rows)."""
    return _load_two_column(path, COUPLING_HEADER)


def load_beta_table(path) -> list[tuple[float, float]]:
    """Read a `w_um,beta_rad_per_um` CSV (header required, >= 2 rows)."""
    return _load_two_column(path, BETA_HEADER)


def _load_two_column(path, header: tuple[str, str]) -> list[tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise CalibrationError(f"{path}: empty calibration file") from None
        if tuple(h.strip() for h in first) != header:
            raise CalibrationError(
                f"{path}: expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise CalibrationError(f"{path}:{line_no}: expected two columns")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise CalibrationError(f"{path}:{line_no}: non-numeric entry") from None
    if len(rows) < 2:
        raise CalibrationError(f"{path}: need at least two data rows")
    return rows


def intensity_csv(records: np.ndarray) -> str:
    lines = ["z,I1,I2"]
    for z, i1, i2 in records:
        lines.append(f"{z:.12g},{i1:.12g},{i2:.12g}")
    return "\n".join(lines) + "\n"


def synthetic_coupling_table(
    a: float = 2.0, b: float = 3.0, gaps: Sequence[float] = (0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)
) -> list[tuple[float, float]]:
    """Exact exponential-model table, handy for examples and tests."""
    return [(float(g), float(a * np.exp(-b * g))) for g in gaps]


def synthetic_beta_table(
    beta0: float = 10.0, slope: float = 2.0, w0: float = 1.0, halfspan: float = 0.9, points: int = 19
) -> list[tuple[float, float]]:
    """Linear beta(w) table centered on w0 (wide enough for the bundled
    sequences at the default synthetic coupling)."""
    ws = np.linspace(w0 - halfspan, w0 + halfspan, points)
    return [(float(w), float(beta0 + slope * (w - w0))) for w in ws]
