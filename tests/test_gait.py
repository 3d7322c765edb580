"""Body-wave and leg gait generation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from granugait.gait import (
    BODY_JOINT_LIMIT, TWO_PI, BodyWave, DIAGONAL_PAIR_A, DIAGONAL_PAIR_B,
    GaitParams, LegId, leg_contact_fraction, optimal_phase_for_depth,
)

PHI_GRID = [0.0, -math.pi / 12, -math.pi / 6, -math.pi / 4, -math.pi / 3,
            -5 * math.pi / 12, -math.pi / 2]

phis = st.floats(min_value=-math.pi / 2, max_value=0.0)
cycle_phases = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)


# ---------------------------------------------------------------------------
# BodyWave.angles_and_rates: the commanded wave, unclamped

def _wave(phi, t, **gait):
    """Unclamped (angles, rates) of body phase ``phi`` at time ``t``."""
    wave = BodyWave(GaitParams(body_phase=phi, **gait), clamp_limit=None)
    return wave.angles_and_rates(t)


def test_joint1_at_zero_phase_equals_amplitude():
    angles, _ = _wave(-math.pi / 3, 0.0)
    assert angles[0] == pytest.approx(1.0)


def test_joint2_at_zero_phase_sees_one_phase_lag():
    angles, _ = _wave(-math.pi / 3, 0.0)
    assert angles[1] == pytest.approx(0.5)


def test_standing_wave_all_joints_equal():
    angles, _ = _wave(0.0, math.pi / 2)
    assert angles[2] == pytest.approx(0.0, abs=1e-12)
    a, _ = _wave(0.0, np.linspace(0, TWO_PI, 40, endpoint=False))
    np.testing.assert_allclose(a[:, 0], a[:, 1])
    np.testing.assert_allclose(a[:, 0], a[:, 2])


@given(phis, cycle_phases, st.floats(min_value=0.1, max_value=2.0))
def test_angle_bounded_by_amplitude(phi, t, amplitude):
    angles, _ = _wave(phi, t, amplitude=amplitude)
    assert np.all(np.abs(angles) <= amplitude + 1e-12)


@given(phis, cycle_phases)
def test_angle_periodic(phi, t):
    a, _ = _wave(phi, t)
    b, _ = _wave(phi, t + TWO_PI)
    np.testing.assert_allclose(a, b, atol=1e-12)


@given(phis, cycle_phases)
def test_traveling_wave_lead(phi, t):
    """Joint n leads joint n+1 by |phi|: alpha_{n+1}(t) = alpha_n(t + phi)."""
    now, _ = _wave(phi, t)
    lagged, _ = _wave(phi, t + phi)
    np.testing.assert_allclose(now[1:], lagged[:2], atol=1e-12)


def test_rate_examples():
    _, rates = _wave(-math.pi / 3, 0.0)
    assert rates[0] == pytest.approx(0.0)
    _, rates = _wave(0.0, math.pi / 2)
    assert rates[0] == pytest.approx(-1.0)
    _, rates = _wave(-math.pi / 2, 0.0)
    assert rates[1] == pytest.approx(1.0)
    _, rates = _wave(0.0, math.pi / 4, frequency=2.0)
    assert rates[0] == pytest.approx(-2.0)


@given(phis, st.floats(min_value=0.01, max_value=TWO_PI - 0.01))
def test_rate_matches_finite_difference(phi, t):
    h = 1e-5
    (ahead, _), (behind, _) = _wave(phi, t + h), _wave(phi, t - h)
    _, rates = _wave(phi, t)
    np.testing.assert_allclose(rates, (ahead - behind) / (2 * h), atol=1e-6)


def test_out_of_range_cycle_phase_rejected():
    g = GaitParams()
    with pytest.raises(ValueError):
        leg_contact_fraction(LegId.LF, TWO_PI, g)
    with pytest.raises(ValueError):
        leg_contact_fraction(LegId.LF, -0.1, g)


# ---------------------------------------------------------------------------
# leg_contact_fraction: the trot

def _in_stance(leg, t, g):
    """Full contact under a step (zero-ramp) stance profile."""
    return leg_contact_fraction(leg, t, g) == 1.0


@given(cycle_phases)
def test_diagonal_pairs_share_stance_windows(t):
    g = GaitParams()
    assert leg_contact_fraction(LegId.LF, t, g) == leg_contact_fraction(LegId.RH, t, g)
    assert leg_contact_fraction(LegId.RF, t, g) == leg_contact_fraction(LegId.LH, t, g)


@given(cycle_phases)
def test_exactly_one_pair_in_stance_at_half_duty(t):
    g = GaitParams(duty=0.5, ramp_frac=0.0)
    assert _in_stance(LegId.LF, t, g) != _in_stance(LegId.RF, t, g)


def test_stance_window_spans_duty_fraction():
    # the trapezoid's ramps trade equal areas, so the mean contact weight
    # is the duty fraction with or without them
    for ramp_frac in (0.0, 0.05):
        g = GaitParams(duty=0.5, ramp_frac=ramp_frac)
        ts = np.linspace(0, TWO_PI, 1000, endpoint=False)
        frac = np.mean([leg_contact_fraction(LegId.LF, t, g) for t in ts])
        assert frac == pytest.approx(0.5, abs=0.01)


def test_pair_windows_offset_by_half_cycle():
    g = GaitParams(duty=0.5)
    for t in np.linspace(0, TWO_PI, 64, endpoint=False):
        shifted = (t + math.pi) % TWO_PI
        assert (leg_contact_fraction(LegId.LF, t, g)
                == pytest.approx(leg_contact_fraction(LegId.RF, shifted, g),
                                 abs=1e-12))


def test_boundary_belongs_to_incoming_pair():
    g = GaitParams(stance_offset=0.0, duty=0.5, ramp_frac=0.0)
    assert _in_stance(LegId.LF, 0.0, g)
    assert not _in_stance(LegId.RF, 0.0, g)
    assert _in_stance(LegId.RF, math.pi, g)
    assert not _in_stance(LegId.LF, math.pi, g)


def test_unknown_leg_rejected():
    with pytest.raises(ValueError):
        leg_contact_fraction("LF", 0.0, GaitParams())


def test_contact_fraction_trapezoid():
    g = GaitParams(stance_offset=0.0, ramp_frac=0.05, duty=0.5)
    ramp = 0.05 * TWO_PI
    assert leg_contact_fraction(LegId.LF, 0.0, g) == pytest.approx(0.0)
    assert leg_contact_fraction(LegId.LF, 0.5 * ramp, g) == pytest.approx(0.5)
    assert leg_contact_fraction(LegId.LF, 2 * ramp, g) == pytest.approx(1.0)
    # ramp-down after stance ends
    post = math.pi + 0.5 * ramp
    assert leg_contact_fraction(LegId.LF, post, g) == pytest.approx(0.5)
    assert leg_contact_fraction(LegId.LF, math.pi + 2 * ramp, g) == pytest.approx(0.0)


@given(cycle_phases)
def test_contact_fraction_in_unit_interval(t):
    g = GaitParams()
    for leg in LegId:
        assert 0.0 <= leg_contact_fraction(leg, t, g) <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       st.floats(min_value=0.0, max_value=0.5, exclude_min=True,
                 exclude_max=True))
def test_contact_fraction_never_jumps(duty, ramp_frac):
    """A ramped gait is accepted only if no leg's contact weight jumps: over
    the cycle, and across its wrap, the weight changes between samples by
    at most the ramp slope times the sample spacing."""
    try:
        g = GaitParams(duty=duty, ramp_frac=ramp_frac)
    except ValueError:
        assert not ramp_frac <= duty <= 1 - ramp_frac
        return
    n = 1000
    ts = np.arange(n) * (TWO_PI / n)
    for leg in LegId:
        w = np.array([leg_contact_fraction(leg, t, g) for t in ts])
        steps = np.abs(np.diff(w, append=w[0]))
        assert steps.max() <= 1.0 / (n * ramp_frac) + 1e-9


def test_zero_ramp_gives_step_contact():
    g = GaitParams(stance_offset=0.0, ramp_frac=0.0)
    for t in np.linspace(0, TWO_PI, 64, endpoint=False):
        s = leg_contact_fraction(LegId.LF, t, g)
        stance = t < g.duty * TWO_PI
        assert s == (1.0 if stance else 0.0)


# ---------------------------------------------------------------------------
# optimal_phase_for_depth

@pytest.mark.parametrize("d,expect", [(0, 0.0), (20, -math.pi / 6),
                                      (40, -math.pi / 3)])
def test_optimal_phase_table(d, expect):
    assert optimal_phase_for_depth(d) == pytest.approx(expect)


@given(st.floats(min_value=0, max_value=20), st.floats(min_value=0, max_value=20))
def test_optimal_phase_linear(d1, d2):
    f = optimal_phase_for_depth
    assert f(d1) + f(d2) == pytest.approx(f(d1 + d2), abs=1e-12)


@pytest.mark.parametrize("d", [-1.0, 40.1, 100.0])
def test_optimal_phase_range_error(d):
    with pytest.raises(ValueError):
        optimal_phase_for_depth(d)


# ---------------------------------------------------------------------------
# GaitParams validation

@pytest.mark.parametrize("kwargs", [
    {"amplitude": 0.0}, {"frequency": -1.0}, {"body_phase": 0.5},
    {"body_phase": -2.0}, {"duty": 0.0}, {"duty": 1.5},
    {"frequency": 0.0}, {"ramp_frac": -0.01}, {"ramp_frac": 0.5},
    # a stance or swing window shorter than the default ramp (0.05)
    {"duty": 1.0}, {"duty": 0.01}, {"duty": 0.99},
])
def test_gait_params_validation(kwargs):
    with pytest.raises(ValueError):
        GaitParams(**kwargs)


# ---------------------------------------------------------------------------
# BodyWave

def test_bodywave_matches_pure_cosine_unclamped():
    g = GaitParams(body_phase=-math.pi / 4)
    wave = BodyWave(g, clamp_limit=None)
    for t in np.linspace(0, 4.0, 17):
        angles, rates = wave.angles_and_rates(t)
        u = (g.frequency * t) % TWO_PI
        for n in (1, 2, 3):
            arg = u + (n - 1) * g.body_phase
            assert angles[n - 1] == pytest.approx(g.amplitude * math.cos(arg))
            assert rates[n - 1] == pytest.approx(
                -g.amplitude * g.frequency * math.sin(arg))


def test_bodywave_clamps_to_hardware_limit():
    wave = BodyWave(GaitParams(amplitude=1.0, body_phase=0.0))
    angles, rates = wave.angles_and_rates(0.0)
    assert np.all(np.abs(angles) <= BODY_JOINT_LIMIT + 1e-12)
    assert np.all(rates[np.abs(angles) >= BODY_JOINT_LIMIT - 1e-12] == 0.0)
    assert wave.clamp_events > 0


def test_bodywave_phase_switch_is_continuous():
    g = GaitParams(body_phase=0.0)
    wave = BodyWave(g, clamp_limit=None, blend_frac=0.1)
    t_switch = 2.0
    before, _ = wave.angles_and_rates(t_switch)
    wave.set_phase(-math.pi / 3, g.frequency * t_switch)
    after, _ = wave.angles_and_rates(t_switch)
    np.testing.assert_allclose(after, before, atol=1e-12)
    # and the new phase offset fully takes over after the blend window
    late_u = (g.frequency * t_switch + 0.2 * TWO_PI) % TWO_PI
    g_new = GaitParams(body_phase=-math.pi / 3)
    late, _ = wave.angles_and_rates((g.frequency * t_switch + 0.2 * TWO_PI)
                                    / g.frequency)
    for n in (1, 2, 3):
        assert late[n - 1] == pytest.approx(
            g_new.amplitude * math.cos(late_u + (n - 1) * g_new.body_phase))


def test_bodywave_rejects_out_of_range_phase():
    wave = BodyWave(GaitParams())
    with pytest.raises(ValueError):
        wave.set_phase(0.3, 0.0)
