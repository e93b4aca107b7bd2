"""Property tests of the two-level step kernel and everything built on it.

Sequences are 1-8 pieces with detuning ratios in [-60, 60]; errors are
fractions in [-0.5, 0.5] and relaxation rates gamma in [0, 0.5]. The scipy
matrix exponential is the independent oracle for a single piece. The n-level
lift is checked as a homomorphism on GL(2) up to n = 128, against the
two-level result at n = 2 and along the sampled population trajectory.
"""
import numpy as np
from hypothesis import assume, example, given, settings
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
from dmcp.nlevel import _lift, nlevel_propagator, population_trajectory
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


@st.composite
def contractions(draw):
    """Invertible complex 2x2 matrices scaled to spectral norm 1, so that
    their lifts stay bounded by 1 at every n."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    m = (np.array(entries[:4]) + 1j * np.array(entries[4:])).reshape(2, 2)
    assume(abs(np.linalg.det(m)) > 1e-3)
    return m / np.linalg.norm(m, 2)


@st.composite
def states(draw, n):
    re = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    v = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.eye(n, dtype=complex)[0]


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


@PROPERTY
@given(u=contractions(), v=contractions(), n=st.integers(2, 128))
@example(u=np.array([[0.6, 0.8j], [0.8j, 0.6]]), v=np.array([[0.5, -0.5], [0.5, 0.5]]), n=128)
def test_lift_is_homomorphism(u, v, n):
    assert np.max(np.abs(_lift(u @ v, n) - _lift(u, n) @ _lift(v, n))) < 1e-12


@PROPERTY
@given(rs=ratios, eps=fractions, ce=fractions, de=fractions, gamma=gammas)
def test_two_level_lift_is_compose(rs, eps, ce, de, gamma):
    seq = sequence(rs)
    err = ErrorModel(area_scale=eps, coupling_errors=(ce,) * len(rs), detuning_errors=(de,), gamma=gamma)
    assert np.max(np.abs(nlevel_propagator(seq, 2, err) - compose(seq, err))) < 1e-12


@PROPERTY
@given(data=st.data(), rs=ratios, eps=fractions, gamma=gammas, n=st.integers(2, 16))
def test_population_trajectory_ends_at_lifted_propagator(data, rs, eps, gamma, n):
    seq = sequence(rs)
    err = ErrorModel(area_scale=eps, gamma=gamma)
    psi = data.draw(states(n))
    rows = population_trajectory(seq, n, err, init=psi, samples_per_segment=3)
    assert rows.shape == (1 + 3 * len(rs), 1 + n)
    want = np.abs(nlevel_propagator(seq, n, err) @ psi) ** 2
    assert np.max(np.abs(rows[-1, 1:] - want)) < 1e-12
