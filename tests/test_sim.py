"""Trial-integration tests: determinism, convergence, symmetry, torques."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from granugait import harness, sim
from granugait.config import RunConfig
from granugait.control import ControllerParams, PhaseController
from granugait.errors import (ConfigError, DegenerateSupportError,
                              SimulationError, SolverError)
from granugait.gait import (TWO_PI, BodyWave, GaitParams, LegId,
                            leg_contact_fraction)
from granugait.model import GroundModel, RobotModel, TerrainProfile
from granugait.percept import LoadPipelineConfig
from granugait.sim import (
    ContactSet, JOINT_NAMES, Trial, _frames, build_contacts,
    compute_joint_torques, simulate_trial, simulate_trials,
)

ROBOT = RobotModel()
GROUND = GroundModel()
NOISEFREE = LoadPipelineConfig(noise_cov=0.0)


def _params(phi, stance_offset=-math.pi / 4):
    return GaitParams(body_phase=phi, stance_offset=stance_offset)


def _on(*terrains):
    """The depth-law rows ``build_contacts`` takes for trials on
    ``terrains``: a terrain's ``law`` alone, else one row per trial."""
    if len(terrains) == 1:
        return terrains[0].law
    return np.transpose([t.law for t in terrains])[..., None]


def _run(phi=-math.pi / 3, depth=40.0, n_cycles=2, seed=7,
         steps_per_cycle=100, robot=ROBOT, **kw):
    return simulate_trial(_params(phi), TerrainProfile.constant(depth),
                          n_cycles=n_cycles, seed=seed, robot=robot,
                          ground=GROUND, steps_per_cycle=steps_per_cycle, **kw)


class _MirroredWave(BodyWave):
    """The body wave reflected across the x-axis: angles and rates negate."""

    def angles_and_rates(self, t_abs):
        angles, rates = super().angles_and_rates(t_abs)
        return -angles, -rates


def _mirror(monkeypatch):
    """Reflect later runs across the x-axis: ``sim`` drives them with the
    negated body wave, and the returned robot has its leg attachments on
    the other side, with their stance timing kept."""
    monkeypatch.setattr(sim, "BodyWave", _MirroredWave)
    return ROBOT.mirrored()


# ---------------------------------------------------------------------------
# _frames / compute_joint_torques

def test_frames_straight_body():
    pose = np.array([0.45, 0.0, 0.0])
    headings, cs, seg_start = _frames(pose, np.zeros(3), ROBOT)
    joints = seg_start[..., 1:, :]
    np.testing.assert_allclose(headings, 0.0)
    np.testing.assert_allclose(cs, [[1.0, 0.0]] * ROBOT.n_segments)
    np.testing.assert_allclose(seg_start[:, 1], 0.0)
    np.testing.assert_allclose(joints[:, 0], [0.3375, 0.225, 0.1125])


def test_zero_forces_zero_torques():
    pose = np.array([0.45, 0.0, 0.0])
    alphas = np.zeros(3)
    c = build_contacts(pose, alphas, np.zeros(3), 0.1, _params(0.0), ROBOT,
                       _on(TerrainProfile.flat()))
    tau = compute_joint_torques(c, np.zeros_like(c.pos), ROBOT)
    np.testing.assert_allclose(tau, 0.0)


def test_single_tail_tip_force_lever_arms():
    """A unit perpendicular force at the tail tip of a straight body loads
    each joint in proportion to its distance from the tip."""
    pose = np.array([0.45, 0.0, 0.0])
    alphas = np.zeros(3)
    tip = np.array([[0.0, 0.0]])   # tail tip of a straight body from x=0.45
    # the tip is behind every joint: its Jacobian rows are r rotated by 90
    r = tip - _frames(pose, alphas, ROBOT)[2][1:, None, :]
    contacts = ContactSet(
        pos=tip, axis=np.array([[1.0, 0.0]]), rho=np.zeros(1),
        normal=np.zeros(1), vshape=np.zeros((1, 2)),
        jac=np.stack([-r[..., 1], r[..., 0]], axis=-1), ref=pose[:2],
    )
    forces = np.array([[0.0, 1.0]])
    tau = compute_joint_torques(contacts, forces, ROBOT)
    # joints sit at x = 0.3375, 0.225, 0.1125; moment arm = joint x - 0
    arms = np.array([0.3375, 0.225, 0.1125])
    scale = ROBOT.friction * ROBOT.weight * ROBOT.body_length
    np.testing.assert_allclose(tau, -arms / scale, rtol=1e-12)
    assert tau[0] / tau[2] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# build_contacts: one fixed layout, swing feet at zero load

N_BELLY = ROBOT.n_segments * ROBOT.belly_elements_per_segment


def test_swing_feet_stay_in_the_layout_at_zero_load():
    """Every instant has the same contacts in the same order; a foot out of
    stance keeps its place with exactly zero normal load."""
    pose = np.array([0.225, 0.0, 0.1])
    alphas = np.array([0.3, -0.2, 0.1])
    params = _params(-math.pi / 6)

    def contacts(cycle_phase):
        return build_contacts(pose, alphas, np.zeros(3), cycle_phase, params,
                              ROBOT, _on(TerrainProfile.constant(20.0)))

    first = contacts(0.0)
    built = sim._layout.cache_info().misses
    for cycle_phase in np.linspace(0.0, TWO_PI, 24, endpoint=False):
        c = contacts(cycle_phase)
        # the layout is built once
        assert sim._layout.cache_info().misses == built
        np.testing.assert_array_equal(c.pos, first.pos)
        s = np.array([leg_contact_fraction(leg, cycle_phase, params)
                      for leg in LegId])
        feet = c.normal[N_BELLY:]
        assert np.all(feet[s == 0.0] == 0.0) and np.all(feet[s > 0.0] > 0.0)
        assert c.normal.sum() == pytest.approx(ROBOT.weight, rel=1e-12)


def test_feet_below_the_stance_threshold_carry_exactly_zero_load():
    """When the feet's summed contact fraction is positive but at most
    1e-12, the belly carries the whole weight and the feet carry 0."""
    params = GaitParams(duty=0.25)
    cycle_phase = params.stance_offset % TWO_PI + 1e-14
    s = [leg_contact_fraction(leg, cycle_phase, params) for leg in LegId]
    assert 0.0 < sum(s) <= 1e-12
    c = build_contacts(np.array([0.225, 0.0, 0.0]), np.zeros(3), np.zeros(3),
                       cycle_phase, params, ROBOT, _on(TerrainProfile.flat()))
    assert np.all(c.normal[N_BELLY:] == 0.0)
    assert c.normal[:N_BELLY].sum() == pytest.approx(ROBOT.weight, rel=1e-12)


#: A trot with no foot down between its two short stance windows.
HOP = GaitParams(duty=0.1, ramp_frac=0.0)


def test_no_foot_in_stance_fails_only_the_unsupported_trials(monkeypatch):
    """With no foot in stance the belly carries the whole weight.  A batch
    fails exactly the trials whose belly bears nothing, from one stance
    evaluation for the whole batch; rebuilt without them, the supported
    trials get their solo contacts bit for bit."""
    robot = RobotModel(belly_weight_frac=0.0)
    cycle_phase = 2.0
    assert all(leg_contact_fraction(leg, cycle_phase, HOP) == 0.0
               for leg in LegId)
    pose = np.array([[0.225, 0.0, 0.0], [0.2, 0.01, 0.1],
                     [0.25, -0.02, -0.1], [0.225, 0.0, 0.05]])
    alphas = np.array([[0.3, -0.2, 0.1], [0.0, 0.1, -0.2],
                       [-0.3, 0.2, 0.0], [0.1, 0.1, 0.1]])
    rates = np.array([[0.5, -0.3, 0.2], [0.0, 0.0, 0.0],
                      [-1.0, 0.4, 0.3], [0.2, 0.2, 0.2]])
    # granular, flat and unsupported, the first trial's terrain object
    # again, bare beads
    mid = TerrainProfile.constant(20.0)
    terrains = [mid, TerrainProfile.flat(), mid, TerrainProfile.constant(0.0)]
    calls = []

    def counted(leg, t, g):
        calls.append(leg)
        return leg_contact_fraction(leg, t, g)

    monkeypatch.setattr(sim, "leg_contact_fraction", counted)
    with pytest.raises(DegenerateSupportError) as err:
        build_contacts(pose, alphas, rates, cycle_phase, HOP, robot,
                       _on(*terrains))
    assert len(calls) == len(LegId)
    np.testing.assert_array_equal(err.value.failed,
                                  [False, True, False, True])

    keep = [0, 2]
    c = build_contacts(pose[keep], alphas[keep], rates[keep], cycle_phase,
                       HOP, robot, _on(*[terrains[i] for i in keep]))
    for row, i in enumerate(keep):
        solo = build_contacts(pose[i], alphas[i], rates[i], cycle_phase, HOP,
                              robot, _on(terrains[i]))
        for name, value in vars(solo).items():
            np.testing.assert_array_equal(getattr(c, name)[row], value,
                                          err_msg=name)
        assert np.all(c.normal[row, N_BELLY:] == 0.0)
        assert c.normal[row, :N_BELLY].sum() == pytest.approx(robot.weight,
                                                              rel=1e-12)


_angle = st.floats(min_value=-math.pi / 4, max_value=math.pi / 4)
_rate = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=60, deadline=None)
@given(n_per=st.sampled_from([2, 8, 16]), mirror=st.booleans(),
       pose=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                      st.floats(-math.pi, math.pi)),
       alphas=st.tuples(_angle, _angle, _angle),
       rates=st.tuples(_rate, _rate, _rate),
       cycle_phase=st.floats(min_value=0.0, max_value=6.28), data=st.data())
def test_shape_velocity_and_torques_obey_virtual_work(
        n_per, mirror, pose, alphas, rates, cycle_phase, data):
    """The shape velocity is d(pos)/dt along the joint rates, and the joint
    torques do the virtual work of the forces on it:
    mu W BL (tau . alpha_rate) = sum_i F_i . vshape_i."""
    robot = RobotModel(belly_elements_per_segment=n_per)
    robot = robot.mirrored() if mirror else robot
    pose, alphas, rates = (np.array(x) for x in (pose, alphas, rates))

    def contacts(a):
        return build_contacts(pose, a, rates, cycle_phase, _params(-0.5),
                              robot, _on(TerrainProfile.flat()))

    c = contacts(alphas)
    h = 1e-6
    fd = (contacts(alphas + h * rates).pos
          - contacts(alphas - h * rates).pos) / (2 * h)
    np.testing.assert_allclose(c.vshape, fd, rtol=0, atol=1e-7)

    F = data.draw(hnp.arrays(float, c.pos.shape,
                             elements=st.floats(-10.0, 10.0)))
    tau = compute_joint_torques(c, F, robot)
    work = robot.friction * robot.weight * robot.body_length * (tau @ rates)
    assert work == pytest.approx(np.sum(F * c.vshape), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# simulate_trial basics

def test_rejects_zero_cycles():
    with pytest.raises(ValueError):
        _run(n_cycles=0)


def test_record_shapes():
    spc = 60
    rec = _run(n_cycles=3, steps_per_cycle=spc)
    assert rec.times.shape == (3 * spc,)
    assert rec.poses.shape == (3 * spc + 1, 3)
    assert rec.torques.shape == (3 * spc, 3)
    assert rec.cycle_speed_blc.shape == (3,)
    assert rec.cycle_median_load.shape == (3, 3)
    assert rec.cycle_phi.shape == (3,)
    assert np.all(np.isfinite(rec.poses))


def test_joint_angles_periodic_over_cycle():
    rec = _run(phi=0.0, depth=0.0, n_cycles=2, load_cfg=NOISEFREE)
    spc = rec.steps_per_cycle
    np.testing.assert_allclose(rec.joint_angles[0], rec.joint_angles[spc],
                               atol=1e-9)


def test_determinism_identical_records():
    a = _run(seed=123)
    b = _run(seed=123)
    for name in ("poses", "torques", "loads", "cycle_speed_blc",
                 "cycle_median_load"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_different_seeds_differ_only_in_noise():
    a = _run(seed=1)
    b = _run(seed=2)
    np.testing.assert_array_equal(a.poses, b.poses)
    np.testing.assert_array_equal(a.torques, b.torques)
    assert not np.array_equal(a.loads, b.loads)


@pytest.mark.parametrize("rho", [1.5, -0.5])
def test_out_of_range_blend_ratio_override_raises_before_the_first_step(
        rho, monkeypatch):
    """A blend-ratio override runs constant-depth terrain at rho * 40 mm, so
    a ratio outside [0, 1] is refused before any step is built, instead of
    a record with negative foot loads and positive power (1.5) or a
    SolverError (-0.5)."""
    steps = []
    monkeypatch.setattr(sim, "build_contacts", lambda *args: steps.append(1))
    with pytest.raises(ValueError, match="outside"):
        simulate_trial(GaitParams(), TerrainProfile.flat(), 1,
                       steps_per_cycle=20, rho_override=rho)
    assert not steps


def test_numerical_hygiene_flags():
    rec = _run()
    assert rec.max_residual <= 1e-8
    assert rec.max_power <= 1e-12


def test_non_finite_forces_raise_solver_error():
    """A robot of mass 1e308 (which ``RunConfig.validate`` rejects) has an
    infinite weight; the solver must reject the NaN residual instead of
    reporting a converged trial."""
    with np.errstate(all="ignore"), pytest.raises(SolverError):
        simulate_trial(_params(-math.pi / 3), TerrainProfile.constant(40.0),
                       n_cycles=1, robot=RobotModel(mass=1e308),
                       ground=GROUND, steps_per_cycle=20)


def _log_uniform(lo, hi):
    """Floats spread evenly in log10 between ``lo`` and ``hi``."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(frequency=_log_uniform(1e-4, 1e4), slip_eps=_log_uniform(1e-8, 1.0),
       segment_length=_log_uniform(0.09, 1e3), mass=_log_uniform(1e-4, 1e4),
       rft_par=_log_uniform(1e-4, 1e4), perp_ratio=_log_uniform(1.0, 1e3))
@example(frequency=1e20, slip_eps=1e-4, segment_length=0.1125, mass=0.6,
         rft_par=1.5, perp_ratio=2.5)
@example(frequency=1.0, slip_eps=1e-50, segment_length=0.1125, mass=0.6,
         rft_par=1.5, perp_ratio=2.5)
@example(frequency=1.0, slip_eps=1e-4, segment_length=1e50, mass=0.6,
         rft_par=1.5, perp_ratio=2.5)
@example(frequency=1.0, slip_eps=1e-4, segment_length=0.1125, mass=0.6,
         rft_par=1e99, perp_ratio=9.9)
def test_any_valid_config_ends_finite_or_raises_simulation_error(
        frequency, slip_eps, segment_length, mass, rft_par, perp_ratio):
    """Every config that ``RunConfig.validate`` accepts either runs a short
    trial at 0, 20 and 40 mm to finite poses and torques, or raises a
    ``SimulationError``; any other exception or any warning fails.  The
    draws span four decades either side of the defaults; the examples are
    accepted configs at the edge of the solver's range, each of which ends
    in a ``SolverError`` at some depth."""
    cfg = RunConfig(frequency=frequency, slip_eps=slip_eps,
                    segment_length=segment_length, mass=mass,
                    rft_par=rft_par, rft_perp=perp_ratio * rft_par)
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    for depth in (0.0, 20.0, 40.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rec = simulate_trial(
                    cfg.gait(-math.pi / 6), TerrainProfile.constant(depth),
                    n_cycles=1, robot=cfg.robot(), ground=cfg.ground(),
                    steps_per_cycle=20, clamp_limit=cfg.effective_clamp,
                    blend_frac=cfg.blend_frac)
            except SimulationError:
                continue
        assert np.isfinite(rec.poses).all() and np.isfinite(rec.torques).all()


def test_timestep_convergence():
    base = _run(n_cycles=2, steps_per_cycle=100, load_cfg=NOISEFREE)
    fine = _run(n_cycles=2, steps_per_cycle=200, load_cfg=NOISEFREE)
    dx_base = base.centers[-1, 0] - base.centers[0, 0]
    dx_fine = fine.centers[-1, 0] - fine.centers[0, 0]
    assert abs(dx_base - dx_fine) < 0.01 * abs(dx_fine)


def test_mirror_symmetry(monkeypatch):
    """Mirroring the robot and gait negates lateral drift and yaw while
    preserving forward progress."""
    kw = dict(n_cycles=2, load_cfg=NOISEFREE)
    plain = _run(**kw)
    mirrored = _run(robot=_mirror(monkeypatch), **kw)
    dp = plain.centers[-1] - plain.centers[0]
    dm = mirrored.centers[-1] - mirrored.centers[0]
    assert dm[0] == pytest.approx(dp[0], abs=1e-6)
    assert dm[1] == pytest.approx(-dp[1], abs=1e-6)
    dyaw_p = plain.poses[-1, 2] - plain.poses[0, 2]
    dyaw_m = mirrored.poses[-1, 2] - mirrored.poses[0, 2]
    assert dyaw_m == pytest.approx(-dyaw_p, abs=1e-6)


def test_flat_standing_wave_reaches_steady_gait():
    """Noise-free flat-ground trials settle into a periodic gait: every
    cycle produces the same world-frame displacement."""
    rec = _run(phi=0.0, depth=0.0, n_cycles=3, load_cfg=NOISEFREE)
    spc = rec.steps_per_cycle
    deltas = [rec.centers[(c + 1) * spc] - rec.centers[c * spc]
              for c in range(3)]
    np.testing.assert_allclose(deltas[1], deltas[0], atol=1e-6)
    np.testing.assert_allclose(deltas[2], deltas[0], atol=1e-6)


@pytest.mark.parametrize("depth", [0.0, 20.0, 40.0])
def test_later_cycles_start_each_solve_at_its_balance(monkeypatch, depth):
    """An open-loop trial on uniform terrain repeats its body-frame twists
    cycle by cycle, so from cycle 1 on the warm start taken from the same
    half step one cycle earlier is already balanced: solves of cycle 1
    average at most 1.5 gradient evaluations, where cycle 0 needs several."""
    spc = 20
    per_solve = []
    gradient, solve = sim._Dissipation.gradient, sim.solve_quasistatic_velocity

    def counted_gradient(self, *args):
        per_solve[-1] += 1
        return gradient(self, *args)

    def counted_solve(*args, **kwargs):
        per_solve.append(0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sim._Dissipation, "gradient", counted_gradient)
    monkeypatch.setattr(sim, "solve_quasistatic_velocity", counted_solve)
    _run(phi=-math.pi / 6, depth=depth, n_cycles=2, steps_per_cycle=spc)
    assert len(per_solve) == 2 * 2 * spc
    cycle0, cycle1 = per_solve[:2 * spc], per_solve[2 * spc:]
    assert np.mean(cycle1) <= 1.5 < np.mean(cycle0)
    # Cycle 0 starts each solve from the half step just before it; a cold
    # start from zero takes 8.4 to 9.5 calls at 0 and 20 mm.
    assert np.mean(cycle0) <= 8.0


def test_controller_hook_applied_at_cycle_boundaries():
    target = [-0.1, -0.2]
    calls = []

    def hook(tau_m):
        calls.append(float(tau_m))
        return target[len(calls) - 1]

    rec = _run(phi=0.0, n_cycles=3, controller=hook, load_cfg=NOISEFREE)
    assert len(calls) == 2          # once per boundary, none after last cycle
    np.testing.assert_allclose(rec.cycle_phi, [0.0, -0.1, -0.2])


# ---------------------------------------------------------------------------
# Lock-step batches: each trial's record is its solo record, bit for bit

BATCH_KW = dict(params=GaitParams(), robot=ROBOT, ground=GROUND,
                steps_per_cycle=20)


def _mixed_trials():
    """Fresh specs (controllers carry state) covering every kind of trial:
    three depths (40 mm twice, with different seeds), two ramps (the second
    puts the head at full depth, so that trial's Coulomb contacts are a
    strict subset of the batch's) and two controlled trials with different
    seeds."""
    def controlled(seed):
        return Trial(0.0, TerrainProfile.constant(40.0), seed=seed,
                     controller=PhaseController(ControllerParams(tau0=20.0),
                                                0.0))
    return [
        Trial(-math.pi / 6, TerrainProfile.constant(0.0), seed=1),
        Trial(-math.pi / 3, TerrainProfile.constant(20.0), seed=2),
        Trial(0.0, TerrainProfile.constant(40.0), seed=3),
        Trial(-math.pi / 4, TerrainProfile.ramp(0.02, 0.45), seed=4),
        Trial(-math.pi / 4, TerrainProfile.ramp(-0.3, 0.5), seed=4),
        Trial(-math.pi / 6, TerrainProfile.constant(40.0)),
        controlled(5),
        controlled(6),
    ]


#: Blend ratios 0 and 0.5 and the constant-depth terrains that give them,
#: for a batch with a noise-free load pipeline.
NOISEFREE_RATIOS = ((0.0, 0.0), (0.5, 20.0))


def _solo(trial, n_cycles=3, **kw):
    """``trial`` alone, with the batch's gait at the trial's phase."""
    kw = {**BATCH_KW, **kw}
    params = dataclasses.replace(kw.pop("params"), body_phase=trial.phi)
    return simulate_trial(params, trial.terrain, n_cycles, seed=trial.seed,
                          controller=trial.controller, **kw)


def _assert_same_record(a, b):
    for name, value in vars(a).items():
        np.testing.assert_array_equal(getattr(b, name), value, err_msg=name)
        assert np.shape(getattr(b, name)) == np.shape(value), name


def test_batch_equals_solo_runs_bit_for_bit():
    batch = simulate_trials(_mixed_trials(), 3, **BATCH_KW)
    solo = [_solo(t) for t in _mixed_trials()]
    assert len(batch) == len(solo)
    for a, b in zip(solo, batch):
        _assert_same_record(a, b)
    # the controllers acted, and the two seeds drew different noise
    assert batch[6].cycle_phi[-1] != 0.0
    assert not np.array_equal(batch[6].loads, batch[7].loads)
    assert min(rec.clamp_events for rec in batch) > 0

    # a second batch, through a noise-free load pipeline; a blend-ratio
    # override of simulate_trial runs the same constant-depth terrain
    trials = [Trial(phi, TerrainProfile.constant(depth))
              for phi, (_, depth) in zip((0.0, -math.pi / 3),
                                         NOISEFREE_RATIOS)]
    quiet = simulate_trials(trials, 3, load_cfg=NOISEFREE, **BATCH_KW)
    for trial, (rho, _), rec in zip(trials, NOISEFREE_RATIOS, quiet):
        _assert_same_record(_solo(trial, load_cfg=NOISEFREE), rec)
        _assert_same_record(
            _solo(dataclasses.replace(trial, terrain=TerrainProfile.flat()),
                  load_cfg=NOISEFREE, rho_override=rho), rec)
    # the batch's pipeline is noise-free: each load is the clipped torque
    for rec in quiet:
        np.testing.assert_array_equal(rec.loads, np.clip(
            NOISEFREE.gain * rec.torques, -NOISEFREE.clip, NOISEFREE.clip))


@pytest.mark.parametrize("index", [0, 3, 6],
                         ids=["0mm", "ramp", "controlled"])
def test_first_cycle_does_not_depend_on_the_cycle_count(index):
    """A one-cycle trial is the first cycle of the same trial run longer,
    bit for bit: no solve of cycle 0 reads what a later cycle writes."""
    one = _solo(_mixed_trials()[index], n_cycles=1)
    three = _solo(_mixed_trials()[index], n_cycles=3)
    spc = one.steps_per_cycle
    for name, end in [("poses", spc + 1), ("centers", spc + 1),
                      ("torques", spc), ("loads", spc),
                      ("cycle_median_load", 1), ("cycle_speed_blc", 1)]:
        np.testing.assert_array_equal(getattr(three, name)[:end],
                                      getattr(one, name), err_msg=name)
    if index == 6:     # the controller acts at the first boundary
        assert three.cycle_phi[1] != three.cycle_phi[0]


def test_batch_evaluates_the_depth_law_once_per_half_step(monkeypatch):
    """One depth-law call per half step covers every trial's belly rows,
    whatever their terrains: 40 mm, 20 mm and a ramp, some terrain objects
    shared by several trials and some built per trial.  Each trial still
    equals its solo run bit for bit."""
    deep, ramp = TerrainProfile.constant(40.0), TerrainProfile.ramp(0.02, 0.45)
    trials = [Trial(-math.pi / 6, deep, seed=1), Trial(0.0, deep, seed=2),
              Trial(-math.pi / 3, ramp, seed=3),
              Trial(0.0, TerrainProfile.constant(20.0)),
              Trial(-math.pi / 4, ramp, seed=4),
              Trial(-math.pi / 6, TerrainProfile.constant(20.0)),
              Trial(0.0, TerrainProfile.ramp(0.02, 0.45), seed=5)]
    calls, half_steps = [], []
    law, build = sim.depth_law, sim.build_contacts

    def counted_law(x, *params):
        calls.append(np.shape(x))
        return law(x, *params)

    def counted_build(*args):
        half_steps.append(len(calls))
        return build(*args)

    monkeypatch.setattr(sim, "depth_law", counted_law)
    monkeypatch.setattr(sim, "build_contacts", counted_build)
    batch = simulate_trials(trials, 2, **BATCH_KW)
    monkeypatch.undo()
    assert len(half_steps) == 2 * 2 * BATCH_KW["steps_per_cycle"]
    assert half_steps == list(range(len(half_steps)))
    assert calls == [(len(trials), N_BELLY)] * len(half_steps)
    for trial, rec in zip(trials, batch):
        _assert_same_record(_solo(trial, 2), rec)


def test_empty_batch_returns_no_records(monkeypatch):
    """An empty batch returns no records and does no work."""
    monkeypatch.setattr(sim, "_integrate", None)
    assert simulate_trials([], 2, **BATCH_KW) == []
    assert simulate_trials(iter(()), 2, **BATCH_KW) == []


def test_batch_of_one_equals_simulate_trial():
    for i in (1, 6):
        (rec,) = simulate_trials([_mixed_trials()[i]], 3, **BATCH_KW)
        _assert_same_record(_solo(_mixed_trials()[i]), rec)


def test_batch_mirror_is_shared_and_equals_solo(monkeypatch):
    robot = _mirror(monkeypatch)
    batch = simulate_trials(_mixed_trials()[:3], 2,
                            **{**BATCH_KW, "robot": robot})
    for trial, rec in zip(_mixed_trials()[:3], batch):
        _assert_same_record(_solo(trial, 2, robot=robot), rec)


def test_solver_failure_ends_the_batch_naming_its_trial(monkeypatch):
    """A solve that fails for one trial of the batch ends the whole batch at
    that step with a SolverError naming the trial, its cycle and step."""
    real = sim.solve_quasistatic_velocity
    calls = []

    def poisoned(contacts, gm, robot, xi0=None):
        calls.append(contacts.normal.shape[0])
        if len(calls) == 2 * 27 + 2:     # the midpoint solve of step 27
            contacts.normal[2] = np.nan
        return real(contacts, gm, robot, xi0)

    monkeypatch.setattr(sim, "solve_quasistatic_velocity", poisoned)
    with pytest.raises(SolverError) as err:
        simulate_trials(_mixed_trials()[:4], 3, **BATCH_KW)
    assert np.isnan(err.value.residual)
    assert str(err.value).startswith(
        "trial 2 (phi 0, terrain constant-40.0mm), cycle 1, step 7 "
        "(midpoint): force balance did not converge (residual nan)")
    # no trial redid the step or went on without it
    assert calls == [4] * (2 * 27 + 2)


def test_degenerate_support_ends_the_batch_naming_its_trial():
    """A trial left with no supporting contact ends its batch with a
    DegenerateSupportError: the trial's index, phase and terrain, then the
    message it raises alone, which names its cycle and step."""
    robot = RobotModel(belly_weight_frac=0.0)
    flat = TerrainProfile.flat()
    trials = [Trial(-0.5, TerrainProfile.constant(20.0)), Trial(0.0, flat),
              Trial(-0.5, TerrainProfile.constant(20.0))]
    kw = dict(params=HOP, robot=robot)
    with pytest.raises(DegenerateSupportError) as batch_err:
        simulate_trials(trials, 2, **{**BATCH_KW, **kw})
    with pytest.raises(DegenerateSupportError) as solo_err:
        _solo(trials[1], 2, **kw)
    prefix = "trial 1 (phi 0, terrain flat), "
    assert str(batch_err.value) == prefix + str(solo_err.value)
    assert str(solo_err.value).startswith("cycle 0, step ")


# ---------------------------------------------------------------------------
# cycle speed

def test_speed_arithmetic():
    rec = _run(n_cycles=2, load_cfg=NOISEFREE)
    spc = rec.steps_per_cycle
    for c in range(2):
        dx = rec.centers[(c + 1) * spc, 0] - rec.centers[c * spc, 0]
        assert rec.cycle_speed_blc[c] == pytest.approx(dx / ROBOT.body_length)


def test_speed_requires_complete_cycle():
    # a record always holds at least one complete cycle, so its mean speed
    # is defined
    with pytest.raises(ValueError, match="n_cycles"):
        _run(n_cycles=0)
    rec = _run(n_cycles=1, load_cfg=NOISEFREE)
    assert rec.cycle_speed_blc.shape == (1,)
    assert np.isfinite(rec.cycle_speed_blc.mean())


# ---------------------------------------------------------------------------
# Median torque vs blend ratio (harness.run_model_torque)

def _torque_table(rho_grid, **overrides):
    cfg = RunConfig(rho_grid=rho_grid, steps_per_cycle=20, **overrides)
    cfg.validate()
    return harness.run_model_torque(cfg)


def test_torque_table_shape_and_order():
    table = _torque_table((0.0, 0.5, 1.0))
    assert list(table) == [(phi, rho) for phi in (0.0, -math.pi / 3)
                           for rho in (0.0, 0.5, 1.0)]
    for medians in table.values():
        assert medians.shape == (3,)
        assert np.all(medians >= 0)


def test_torque_endpoints_differ():
    table = _torque_table((0.0, 1.0))
    assert not np.allclose(table[(-math.pi / 3, 0.0)],
                           table[(-math.pi / 3, 1.0)])


def test_torque_table_honours_the_joint_clamp():
    """Model-torque runs with the configured joint clamp: switching it off
    lets the wave reach its full amplitude and changes the torques."""
    clamped = _torque_table((0.5,))
    free = _torque_table((0.5,), clamp_enabled=False)
    # lower joint, standing wave, 20 steps per cycle
    assert clamped[(0.0, 0.5)][1] == pytest.approx(0.101, abs=1e-3)
    assert free[(0.0, 0.5)][1] == pytest.approx(0.203, abs=1e-3)


def test_joint_names():
    assert JOINT_NAMES == ("upper", "lower", "tail")
