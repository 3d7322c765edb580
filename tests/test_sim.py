"""Trial-integration tests: determinism, convergence, symmetry, torques."""

import math

import numpy as np
import pytest

from granugait.config import RunConfig
from granugait.errors import SolverError
from granugait.gait import GaitParams
from granugait.model import GroundModel, RobotModel, TerrainProfile
from granugait.percept import LoadPipelineConfig
from granugait.sim import (
    ContactSet, JOINT_NAMES, build_contacts, chain_frames,
    compute_joint_torques, simulate_trial, speed_bl_per_cycle,
    torque_vs_rft_ratio,
)

ROBOT = RobotModel()
GROUND = GroundModel()
NOISEFREE = LoadPipelineConfig(noise_cov=0.0)


def _params(phi, stance_offset=-math.pi / 4):
    return GaitParams(body_phase=phi, stance_offset=stance_offset)


def _run(phi=-math.pi / 3, depth=40.0, n_cycles=2, seed=7,
         steps_per_cycle=100, **kw):
    return simulate_trial(_params(phi), TerrainProfile.constant(depth),
                          n_cycles=n_cycles, seed=seed, robot=ROBOT,
                          ground=GROUND, steps_per_cycle=steps_per_cycle, **kw)


# ---------------------------------------------------------------------------
# chain_frames / compute_joint_torques

def test_chain_frames_straight_body():
    pose = np.array([0.45, 0.0, 0.0])
    headings, seg_start, joints = chain_frames(pose, np.zeros(3), ROBOT)
    np.testing.assert_allclose(headings, 0.0)
    np.testing.assert_allclose(seg_start[:, 1], 0.0)
    np.testing.assert_allclose(joints[:, 0], [0.3375, 0.225, 0.1125])


def test_zero_forces_zero_torques():
    pose = np.array([0.45, 0.0, 0.0])
    alphas = np.zeros(3)
    c = build_contacts(pose, alphas, np.zeros(3), 0.1, _params(0.0), ROBOT,
                       TerrainProfile.flat())
    tau = compute_joint_torques(pose, alphas, c, np.zeros_like(c.pos), ROBOT)
    np.testing.assert_allclose(tau, 0.0)


def test_single_tail_tip_force_lever_arms():
    """A unit perpendicular force at the tail tip of a straight body loads
    each joint in proportion to its distance from the tip."""
    pose = np.array([0.45, 0.0, 0.0])
    alphas = np.zeros(3)
    tip = np.array([[0.0, 0.0]])   # tail tip of a straight body from x=0.45
    contacts = ContactSet(
        pos=tip, axis=np.array([[1.0, 0.0]]), rho=np.zeros(1),
        normal=np.zeros(1), vshape=np.zeros((1, 2)), seg=np.array([3]),
        is_foot=np.array([True]), ref=pose[:2],
    )
    forces = np.array([[0.0, 1.0]])
    tau = compute_joint_torques(pose, alphas, contacts, forces, ROBOT)
    # joints sit at x = 0.3375, 0.225, 0.1125; moment arm = joint x - 0
    arms = np.array([0.3375, 0.225, 0.1125])
    scale = ROBOT.friction * ROBOT.weight * ROBOT.body_length
    np.testing.assert_allclose(tau, -arms / scale, rtol=1e-12)
    assert tau[0] / tau[2] == pytest.approx(3.0)


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


def test_numerical_hygiene_flags():
    rec = _run()
    assert rec.max_residual <= 1e-8
    assert rec.max_power <= 1e-12


def test_non_finite_forces_raise_solver_error():
    """mass = 1e308 passes validation but overflows the weight; the solver
    must reject the NaN residual instead of reporting a converged trial."""
    cfg = RunConfig(mass=1e308)
    cfg.validate()
    with np.errstate(all="ignore"), pytest.raises(SolverError):
        simulate_trial(_params(-math.pi / 3), TerrainProfile.constant(40.0),
                       n_cycles=1, robot=cfg.robot(), ground=GROUND,
                       steps_per_cycle=20)


def test_timestep_convergence():
    base = _run(n_cycles=2, steps_per_cycle=100, load_cfg=NOISEFREE)
    fine = _run(n_cycles=2, steps_per_cycle=200, load_cfg=NOISEFREE)
    dx_base = base.centers[-1, 0] - base.centers[0, 0]
    dx_fine = fine.centers[-1, 0] - fine.centers[0, 0]
    assert abs(dx_base - dx_fine) < 0.01 * abs(dx_fine)


def test_mirror_symmetry():
    """Mirroring the robot and gait negates lateral drift and yaw while
    preserving forward progress."""
    kw = dict(n_cycles=2, load_cfg=NOISEFREE)
    plain = _run(**kw)
    mirrored = _run(mirror=True, **kw)
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
# speed_bl_per_cycle

def test_speed_arithmetic():
    rec = _run(n_cycles=2, load_cfg=NOISEFREE)
    per, mean = speed_bl_per_cycle(rec)
    spc = rec.steps_per_cycle
    dx0 = rec.centers[spc, 0] - rec.centers[0, 0]
    assert per[0] == pytest.approx(dx0 / ROBOT.body_length)
    assert mean == pytest.approx(per.mean())


def test_speed_requires_complete_cycle():
    rec = _run(n_cycles=1)
    rec.cycle_speed_blc = np.empty(0)
    with pytest.raises(ValueError):
        speed_bl_per_cycle(rec)


# ---------------------------------------------------------------------------
# torque_vs_rft_ratio

def test_torque_table_shape_and_order():
    out = torque_vs_rft_ratio(-math.pi / 3, [0.0, 0.5, 1.0],
                              params=_params(-math.pi / 3))
    assert [row[0] for row in out] == [0.0, 0.5, 1.0]
    for _, medians in out:
        assert medians.shape == (3,)
        assert np.all(medians >= 0)


def test_torque_endpoints_differ():
    out = torque_vs_rft_ratio(-math.pi / 3, [0.0, 1.0],
                              params=_params(-math.pi / 3))
    assert not np.allclose(out[0][1], out[1][1])


def test_torque_table_rejects_bad_ratio():
    with pytest.raises(ValueError):
        torque_vs_rft_ratio(0.0, [1.5])


def test_joint_names():
    assert JOINT_NAMES == ("upper", "lower", "tail")
