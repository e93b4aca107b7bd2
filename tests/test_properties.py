"""Property tests of the two-level step kernel and everything built on it.

Sequences are 1-8 pieces with detuning ratios in [-60, 60]; errors are
fractions in [-0.5, 0.5] and relaxation rates gamma in [0, 0.5]. The scipy
matrix exponential is the independent oracle for a single piece.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dmcp.dynamics import (
    CompositeSequence,
    ErrorModel,
    SequenceKind,
    _step,
    bloch_coordinates,
    bloch_trajectory,
    compose,
    compose_grid,
)
from dmcp.photonics import LayoutSegment, WaveguideLayout, endpoint_state, propagate_intensity

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

ratios = st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=8)
fractions = st.floats(-0.5, 0.5)
gammas = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
couplings = st.floats(0.05, 3.0)
areas = st.floats(0.05, 4 * np.pi)


@st.composite
def unit_states(draw):
    re = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    im = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    v = np.array(re) + 1j * np.array(im)
    n = np.linalg.norm(v)
    return v / n if n > 1e-3 else np.array([1.0, 0.0], dtype=complex)


def sequence(rs, coupling=1.0, area=np.pi):
    return CompositeSequence.from_ratios(rs, np.pi, coupling=coupling, area=area)


def per_segment(seq, eps, ce, de):
    n = len(seq.segments)
    return ErrorModel(area_scale=eps, coupling_errors=(ce,) * n, detuning_errors=(de,) * n)


@PROPERTY
@given(omega=couplings, ratio=st.floats(-60.0, 60.0), area=areas, gamma=gammas)
@example(omega=0.0, ratio=0.0, area=1.3, gamma=0.0)   # Omega_g = 0 (total coupling loss)
@example(omega=0.2, ratio=0.0, area=2.0, gamma=0.4)   # exceptional point Omega = gamma/2
def test_step_matches_matrix_exponential(omega, ratio, area, gamma):
    delta = ratio * omega
    og = np.hypot(omega, delta)
    dt = area / og if og > 0 else area
    h = 0.5 * np.array([[-delta, omega], [omega, delta - 1j * gamma]])
    assert np.max(np.abs(_step(omega, delta, dt, gamma) - expm(-1j * dt * h))) < 1e-12


@PROPERTY
@given(rs=ratios, coupling=couplings, area=areas, eps=fractions, gamma=gammas)
def test_unitary_at_zero_gamma_and_contracting_with_relaxation(rs, coupling, area, eps, gamma):
    seq = sequence(rs, coupling, area)
    u = compose(seq, ErrorModel(area_scale=eps))
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
    assert abs(np.linalg.det(u) - 1.0) < 1e-12
    lossy = compose(seq, ErrorModel(area_scale=eps, gamma=gamma))
    assert np.linalg.norm(lossy, 2) <= 1.0 + 1e-12


@PROPERTY
@given(half=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=4))
def test_anti_palindromic_sequence_is_real_y_rotation(half):
    rs = half + [-r for r in reversed(half)]
    u = compose(CompositeSequence.from_ratios(rs, np.pi, kind=SequenceKind.UNIVERSAL))
    assert np.max(np.abs(u.imag)) < 1e-12
    assert abs(u[0, 0] - u[1, 1]) < 1e-12 and abs(u[0, 1] + u[1, 0]) < 1e-12


@PROPERTY
@given(rs=ratios, cells=st.lists(st.tuples(fractions, fractions, fractions), min_size=1, max_size=6))
def test_compose_grid_equals_compose_cell_by_cell(rs, cells):
    seq = sequence(rs)
    eps, ce, de = (np.array(c) for c in zip(*cells))
    grid = compose_grid(seq, area_scale=eps, coupling_frac=ce, detuning_frac=de)
    for k, (e, c, d) in enumerate(cells):
        assert np.max(np.abs(grid[k] - compose(seq, per_segment(seq, e, c, d)))) < 1e-12


@PROPERTY
@given(rs=ratios, coupling=couplings, area=areas, psi=unit_states())
def test_device_endpoint_equals_compose(rs, coupling, area, psi):
    seq = sequence(rs, coupling, area)
    layout = WaveguideLayout(
        segments=tuple(
            LayoutSegment(w1=1.0, w2=1.0, gap=1.0, length=seg.duration,
                          target_ratio=seg.ratio, realized_ratio=seg.ratio)
            for seg in seq.segments
        ),
        base_width=1.0, gap=1.0, coupling=coupling,
    )
    want = compose(seq) @ psi
    end = endpoint_state(layout, psi)
    assert np.max(np.abs(end - want)) < 1e-12
    rows = propagate_intensity(layout, psi, samples_per_segment=4)
    assert np.max(np.abs(rows[-1, 1:] - np.abs(want) ** 2)) < 1e-12
    assert abs(rows[-1, 0] - seq.total_duration) < 1e-9


@PROPERTY
@given(rs=ratios, eps=fractions, gamma=gammas, psi=unit_states())
def test_bloch_trajectory_ends_at_composed_state(rs, eps, gamma, psi):
    seq = sequence(rs)
    err = ErrorModel(area_scale=eps, gamma=gamma)
    points = bloch_trajectory(seq, err, init=psi, samples_per_segment=3)
    assert len(points) == 1 + 3 * len(seq.segments)
    want = bloch_coordinates(compose(seq, err) @ psi)
    assert np.max(np.abs(np.array(points[-1][1:]) - want)) < 1e-12
