"""Quasi-static force-balance solver tests, including a brute-force oracle."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from granugait.errors import DegenerateSupportError
from granugait.gait import TWO_PI, GaitParams
from granugait.model import GroundModel, RobotModel, TerrainProfile
from granugait.sim import (
    RESIDUAL_TOL, ContactSet, _Dissipation, _newton_steps, _residual,
    blend_groups, build_contacts, solve_quasistatic_velocity,
)

ROBOT = RobotModel()
GROUND = GroundModel()
FLAT = TerrainProfile.flat()
MID = TerrainProfile.constant(20.0)
DEEP = TerrainProfile.constant(40.0)
# Row scaling that turns the potential's gradient into the residual.
RES_SCALE = np.array([1.0, 1.0, 1.0 / ROBOT.body_length]) / (
    ROBOT.friction * ROBOT.weight)


def _contacts(phi=-math.pi / 3, cycle_phase=0.7, terrain=DEEP,
              alpha_rates=(0.5, -0.3, 0.2), alphas=(0.2, -0.1, 0.15),
              params=None, robot=ROBOT, rho_override=None):
    params = params or GaitParams(body_phase=phi, stance_offset=-math.pi / 4)
    pose = np.array([0.225, 0.0, 0.05])
    return build_contacts(pose, np.asarray(alphas, float),
                          np.asarray(alpha_rates, float), cycle_phase,
                          params, robot,
                          blend_groups([terrain], [rho_override]))


def _grid_oracle(contacts, gm, robot, box_v=0.5, box_w=2.0, n=50, center=None):
    """Independent vectorized residual-norm minimizer over twist space.

    Evaluates the nondimensional force/moment residual on an n^3 grid of
    candidate twists and returns the argmin; the caller refines once by
    re-centering a smaller box on the best cell.
    """
    if center is None:
        center = np.zeros(3)
    ax = [center[i] + np.linspace(-b, b, n) for i, b in
          ((0, box_v), (1, box_v), (2, box_w))]
    Xi = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)

    r = contacts.pos - contacts.ref                       # (c, 2)
    spin = Xi[:, 2][:, None, None] * np.stack([-r[:, 1], r[:, 0]], axis=1)
    v = Xi[:, None, :2] + spin + contacts.vshape          # (M, c, 2)
    speed = np.linalg.norm(v, axis=2)
    f_c = -robot.friction * contacts.normal[None, :, None] * v \
        / (speed + gm.slip_eps)[:, :, None]
    v_par = np.einsum("mcj,cj->mc", v, contacts.axis)
    v_perp = v - v_par[:, :, None] * contacts.axis
    f_r = -gm.rft_par * v_par[:, :, None] * contacts.axis - gm.rft_perp * v_perp
    F = (1 - contacts.rho)[None, :, None] * f_c + contacts.rho[None, :, None] * f_r

    scale = robot.friction * robot.weight
    net_f = F.sum(axis=1) / scale
    net_m = np.einsum("c,mc->m", r[:, 0], F[:, :, 1]) \
        - np.einsum("c,mc->m", r[:, 1], F[:, :, 0])
    net_m = net_m / (scale * robot.body_length)
    norms = net_f[:, 0] ** 2 + net_f[:, 1] ** 2 + net_m ** 2
    return Xi[int(np.argmin(norms))]


def test_static_configuration_has_zero_twist():
    c = _contacts(alpha_rates=(0.0, 0.0, 0.0))
    xi, _, _, res = solve_quasistatic_velocity(c, GROUND, ROBOT)
    np.testing.assert_allclose(xi, 0.0, atol=1e-9)
    assert res <= RESIDUAL_TOL


def test_residual_within_tolerance_on_varied_states():
    for cycle_phase in (0.3, 1.9, 3.5, 5.2):
        for terrain in (FLAT, DEEP):
            c = _contacts(cycle_phase=cycle_phase, terrain=terrain)
            _, _, _, res = solve_quasistatic_velocity(c, GROUND, ROBOT)
            assert res <= RESIDUAL_TOL


@pytest.mark.parametrize("cycle_phase", [0.6, 2.1, 4.0])
def test_solver_matches_grid_search_oracle(cycle_phase):
    """Single-joint sinusoid states: Newton agrees with a 50^3 grid search
    refined by repeatedly re-centering a 6x smaller box on the argmin,
    within 1e-3 m/s (and rad/s)."""
    rate = 0.8 * math.sin(cycle_phase)
    c = _contacts(cycle_phase=cycle_phase, alphas=(0.3, 0.0, 0.0),
                  alpha_rates=(rate, 0.0, 0.0))
    xi, _, _, _ = solve_quasistatic_velocity(c, GROUND, ROBOT)
    best = _grid_oracle(c, GROUND, ROBOT)
    box_v, box_w = 0.5, 2.0
    for _ in range(4):
        box_v /= 6.0
        box_w /= 6.0
        best = _grid_oracle(c, GROUND, ROBOT, box_v=box_v, box_w=box_w,
                            center=best)
    np.testing.assert_allclose(xi, best, atol=1e-3)


def test_solver_deterministic():
    c = _contacts()
    a = solve_quasistatic_velocity(c, GROUND, ROBOT)
    b = solve_quasistatic_velocity(c, GROUND, ROBOT)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_warm_start_agrees_with_cold_start():
    c = _contacts()
    cold, _, _, _ = solve_quasistatic_velocity(c, GROUND, ROBOT)
    warm, _, _, _ = solve_quasistatic_velocity(c, GROUND, ROBOT,
                                               xi0=cold + 0.01)
    np.testing.assert_allclose(warm, cold, atol=1e-6)


def test_singular_hessian_ends_only_its_own_newton_step():
    """A singular system yields a NaN step (its line search then fails and
    its trial stops) while the batch's other systems are solved as alone."""
    hess = np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.diag([1.0, 4.0, 8.0])])
    grad = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [1.0, 2.0, 4.0]])
    step = _newton_steps(hess, grad)
    np.testing.assert_array_equal(step[0], [-0.5, -1.0, -1.5])
    assert np.isnan(step[1]).all()
    np.testing.assert_array_equal(step[2], [-1.0, -0.5, -0.5])
    assert np.isnan(_newton_steps(np.zeros((3, 3)), np.ones(3))).all()


def test_degenerate_support_raises():
    robot = RobotModel(belly_weight_frac=0.0)
    params = GaitParams(duty=0.1, ramp_frac=0.0)
    with pytest.raises(DegenerateSupportError):
        # cycle phase between the two short stance windows: no foot contact,
        # and a zero belly fraction leaves nothing to carry the weight
        _contacts(cycle_phase=2.0, params=params, robot=robot,
                  rho_override=0.0)


def _potential(c, xi):
    pot = _Dissipation(c, GROUND, ROBOT.friction)
    psi, v, s = pot.value(xi)
    return (psi,) + pot.derivatives(xi, v, s)


def test_analytic_hessian_matches_finite_difference():
    """Central differences of the potential match its gradient, and
    central differences of the gradient match its Hessian."""
    xi = np.array([0.03, -0.02, 0.4])
    h = 1e-7
    for terrain in (FLAT, MID, DEEP):
        c = _contacts(terrain=terrain)
        _, grad, hess = _potential(c, xi)
        for col in range(3):
            dx = np.zeros(3)
            dx[col] = h
            psi_p, grad_p, _ = _potential(c, xi + dx)
            psi_m, grad_m, _ = _potential(c, xi - dx)
            np.testing.assert_allclose(
                RES_SCALE * hess[:, col],
                RES_SCALE * (grad_p - grad_m) / (2 * h), rtol=1e-4, atol=1e-6)
            assert RES_SCALE[col] * grad[col] == pytest.approx(
                RES_SCALE[col] * (psi_p - psi_m) / (2 * h), rel=1e-4,
                abs=1e-6)


def test_batched_potential_equals_each_trial_alone_bit_for_bit():
    """Psi, its gradient and its Hessian of each trial in a mixed batch
    (flat, 20 mm, 40 mm and a blend-ratio override of 0.5) equal those of
    the trial alone, bit for bit: every trial's Coulomb sums run over the
    same contacts in the same order, whatever its batch-mates."""
    specs = [(FLAT, None, 0.3), (MID, None, 1.9), (DEEP, None, 3.5),
             (FLAT, 0.5, 5.2)]
    solo = [_contacts(terrain=terrain, rho_override=rho, cycle_phase=phase,
                      alphas=(0.2 - 0.1 * i, -0.1, 0.15 + 0.05 * i))
            for i, (terrain, rho, phase) in enumerate(specs)]
    fields = {f.name: np.stack([getattr(c, f.name) for c in solo])
              for f in dataclasses.fields(solo[0]) if f.name != "seg"}
    batch = ContactSet(seg=solo[0].seg, **fields)
    assert sorted({float(r) for c in solo for r in c.rho}) == [0.0, 0.5, 1.0]
    xis = np.random.default_rng(5).normal(scale=(0.2, 0.2, 1.0), size=(4, 3))
    pot = _Dissipation(batch, GROUND, ROBOT.friction)
    psi, v, s = pot.value(xis)
    grad, hess = pot.derivatives(xis, v, s)
    for i, c in enumerate(solo):
        alone = _Dissipation(c, GROUND, ROBOT.friction)
        psi_i, v_i, s_i = alone.value(xis[i])
        grad_i, hess_i = alone.derivatives(xis[i], v_i, s_i)
        assert psi[i] == psi_i
        np.testing.assert_array_equal(v[i], v_i)
        np.testing.assert_array_equal(s[i], s_i)
        np.testing.assert_array_equal(grad[i], grad_i)
        np.testing.assert_array_equal(hess[i], hess_i)


def test_derivatives_at_a_stopped_loaded_contact_are_finite():
    """With joint rates zero, the twist (ry, -rx, 1) stops exactly the
    contact at lever arm (rx, ry): its speed is 0, and its Hessian term
    -c u u^T, with c = k/((s + eps) s), is bounded there.  Among the 40 mm
    contacts, whose belly has rho = 1 and Coulomb weight 0, the Hessian is
    finite and symmetric, with no RuntimeWarning, and matches central
    differences of the gradient."""
    c = _contacts(terrain=DEEP, alpha_rates=(0.0, 0.0, 0.0))
    foot = int(np.flatnonzero(c.normal)[-1])
    assert c.rho[foot] == 0.0 and (c.rho == 1.0).any()
    rx, ry = c.pos[foot] - c.ref
    xi = np.array([ry, -rx, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pot = _Dissipation(c, GROUND, ROBOT.friction)
        _, v, s = pot.value(xi)
        grad, hess = pot.derivatives(xi, v, s)
    assert s[foot] == 0.0 and np.count_nonzero(s == 0.0) == 1
    assert np.isfinite(grad).all() and np.isfinite(hess).all()
    np.testing.assert_allclose(hess, hess.T, rtol=1e-12,
                               atol=1e-12 * np.abs(hess).max())
    # The curvature changes over |v| ~ slip_eps, so the step is small.
    h = 1e-9
    fd = np.stack([(_potential(c, xi + dx)[1] - _potential(c, xi - dx)[1])
                   / (2 * h) for dx in h * np.eye(3)], axis=-1)
    np.testing.assert_allclose(hess, fd, rtol=0,
                               atol=1e-4 * np.abs(hess).max())


def test_potential_gradient_is_minus_scaled_residual():
    """The residual of the contact_forces law is -diag(1, 1, 1/BL) grad Psi
    / (mu m g) at any twist."""
    rng = np.random.default_rng(11)
    for terrain in (FLAT, MID, DEEP):
        c = _contacts(terrain=terrain)
        for xi in rng.normal(scale=(0.2, 0.2, 1.0), size=(10, 3)):
            _, grad, _ = _potential(c, xi)
            res, _, _ = _residual(xi, c, GROUND, ROBOT)
            np.testing.assert_allclose(-RES_SCALE * grad, res, rtol=1e-9,
                                       atol=1e-13)


def test_flat_ground_converges_from_far_cold_start():
    """Every Newton step lowers the potential, so a start far from the
    balance converges without overflow."""
    c = _contacts(terrain=FLAT)
    ref, _, _, _ = solve_quasistatic_velocity(c, GROUND, ROBOT)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        xi, _, _, res = solve_quasistatic_velocity(
            c, GROUND, ROBOT, xi0=(50.0, -50.0, 500.0))
    assert res <= RESIDUAL_TOL
    np.testing.assert_allclose(xi, ref, atol=1e-6)


def test_solved_forces_are_dissipative():
    for cycle_phase in (0.3, 2.5, 5.0):
        c = _contacts(cycle_phase=cycle_phase)
        _, F, v, _ = solve_quasistatic_velocity(c, GROUND, ROBOT)
        assert float(np.einsum("ij,ij->i", F, v).max()) <= 1e-12


def test_normal_loads_sum_to_weight():
    for terrain in (FLAT, DEEP, TerrainProfile.constant(20.0)):
        c = _contacts(terrain=terrain)
        assert float(c.normal.sum()) == pytest.approx(ROBOT.weight, rel=1e-9)
        assert np.all(c.normal >= 0)
