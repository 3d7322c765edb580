"""Quasi-static force-balance solver tests, including a brute-force oracle."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from granugait.errors import DegenerateSupportError
from granugait.gait import TWO_PI, GaitParams
from granugait.model import GroundModel, RobotModel, TerrainProfile
from granugait import sim
from granugait.sim import (
    DUAL_RADIUS, RESIDUAL_TOL, ContactSet, _Dissipation, _newton_steps,
    _residual, blend_groups, build_contacts, solve_quasistatic_velocity,
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
              params=None, robot=ROBOT):
    params = params or GaitParams(body_phase=phi, stance_offset=-math.pi / 4)
    pose = np.array([0.225, 0.0, 0.05])
    return build_contacts(pose, np.asarray(alphas, float),
                          np.asarray(alpha_rates, float), cycle_phase,
                          params, robot,
                          blend_groups([terrain]))


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
                  terrain=FLAT)


def _primal_dual(pot, v, s):
    """The dual rows z = v/(s + eps) at which the Newton matrix is the
    Hessian of Psi."""
    return v / (np.concatenate((s, s), axis=-1) + pot.eps)


def _potential(c, xi):
    """Psi, its gradient and its Hessian at ``xi``: the Newton matrix at
    the dual z = v/(s + eps)."""
    pot = _Dissipation(c, GROUND, ROBOT.friction)
    psi, v, s = pot.value(xi)
    return (psi,) + pot.derivatives(xi, v, s, _primal_dual(pot, v, s))


def _disc(rng, shape, radius):
    """Dual rows (x components, then y) drawn uniformly in directions,
    each with |z_i| < radius."""
    angle = rng.uniform(0, TWO_PI, shape)
    r = radius * rng.uniform(0, 1, shape)
    return np.concatenate((r * np.cos(angle), r * np.sin(angle)), axis=-1)


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


def test_potential_value_equals_the_closed_form_sum():
    """Psi at random twists equals sum (1 - rho) mu N (s - eps log1p(s/eps))
    + sum rho v.D.v / 2, with each contact velocity built from the twist
    and lever arm directly.  This pins the drag share's constant c0, which
    no difference or derivative of Psi sees but the line search's slack
    does."""
    eps, mu = GROUND.slip_eps, ROBOT.friction
    rng = np.random.default_rng(3)
    for terrain in (FLAT, MID, DEEP, TerrainProfile.constant(10.0)):
        c = _contacts(terrain=terrain)
        pot = _Dissipation(c, GROUND, mu)
        r = c.pos - c.ref
        for xi in rng.normal(scale=(0.2, 0.2, 1.0), size=(5, 3)):
            v = xi[:2] + xi[2] * np.stack([-r[:, 1], r[:, 0]], axis=1) \
                + c.vshape
            s = np.linalg.norm(v, axis=1)
            v_par = np.einsum("cj,cj->c", v, c.axis)
            v_perp = v - v_par[:, None] * c.axis
            coulomb = (1 - c.rho) * mu * c.normal * (
                s - eps * np.log1p(s / eps))
            drag = 0.5 * c.rho * (GROUND.rft_par * v_par ** 2
                                  + GROUND.rft_perp * (v_perp ** 2).sum(1))
            assert pot.value(xi)[0] == pytest.approx(
                coulomb.sum() + drag.sum(), rel=1e-12, abs=0)


def test_batched_potential_equals_each_trial_alone_bit_for_bit():
    """Psi, its gradient, its Newton matrix and the dual update of each
    trial in a mixed batch (flat, 20 mm twice and 40 mm) equal those of the
    trial alone, bit for bit: every trial's Coulomb sums run over the same
    contacts in the same order, whatever its batch-mates."""
    specs = [(FLAT, 0.3), (MID, 1.9), (DEEP, 3.5), (MID, 5.2)]
    solo = [_contacts(terrain=terrain, cycle_phase=phase,
                      alphas=(0.2 - 0.1 * i, -0.1, 0.15 + 0.05 * i))
            for i, (terrain, phase) in enumerate(specs)]
    batch = ContactSet(**{f.name: np.stack([getattr(c, f.name) for c in solo])
                          for f in dataclasses.fields(solo[0])})
    assert sorted({float(r) for c in solo for r in c.rho}) == [0.0, 0.5, 1.0]
    rng = np.random.default_rng(5)
    xis = rng.normal(scale=(0.2, 0.2, 1.0), size=(4, 3))
    steps = rng.normal(scale=(0.02, 0.02, 0.1), size=(4, 3))
    pot = _Dissipation(batch, GROUND, ROBOT.friction)
    zs = _disc(rng, (4, pot.n), 0.999)
    psi, v, s = pot.value(xis)
    grad, hess = pot.derivatives(xis, v, s, zs)
    _, v_new, _ = pot.value(xis + steps)
    z_new = pot.dual(v, s, zs, v_new)
    for i, c in enumerate(solo):
        alone = _Dissipation(c, GROUND, ROBOT.friction)
        psi_i, v_i, s_i = alone.value(xis[i])
        grad_i, hess_i = alone.derivatives(xis[i], v_i, s_i, zs[i])
        _, v_new_i, _ = alone.value(xis[i] + steps[i])
        assert psi[i] == psi_i
        np.testing.assert_array_equal(v[i], v_i)
        np.testing.assert_array_equal(s[i], s_i)
        np.testing.assert_array_equal(grad[i], grad_i)
        np.testing.assert_array_equal(hess[i], hess_i)
        np.testing.assert_array_equal(
            z_new[i], alone.dual(v_i, s_i, zs[i], v_new_i))


def _stopped_foot():
    """40 mm contacts with joint rates zero, the twist (ry, -rx, 1) that
    stops exactly the loaded foot at lever arm (rx, ry), and that foot."""
    c = _contacts(terrain=DEEP, alpha_rates=(0.0, 0.0, 0.0))
    foot = int(np.flatnonzero(c.normal)[-1])
    rx, ry = c.pos[foot] - c.ref
    return c, np.array([ry, -rx, 1.0]), foot


def test_derivatives_at_a_stopped_loaded_contact_are_finite():
    """The stopped foot's speed is 0, and its matrix term
    -(k/s) (B^T z)(B^T v)^T is 0 there, for the dual z = v/(s + eps) as for
    any other.  Among the 40 mm contacts, whose belly has rho = 1 and
    Coulomb weight 0, the Hessian is finite and symmetric, with no
    RuntimeWarning, and matches central differences of the gradient."""
    c, xi, foot = _stopped_foot()
    assert c.rho[foot] == 0.0 and (c.rho == 1.0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pot = _Dissipation(c, GROUND, ROBOT.friction)
        _, v, s = pot.value(xi)
        grad, hess = pot.derivatives(xi, v, s, _primal_dual(pot, v, s))
        _, other = pot.derivatives(
            xi, v, s, _disc(np.random.default_rng(2), pot.n, 0.999))
    assert s[foot] == 0.0 and np.count_nonzero(s == 0.0) == 1
    assert np.isfinite(grad).all() and np.isfinite(hess).all()
    assert np.isfinite(other).all()
    np.testing.assert_allclose(hess, hess.T, rtol=1e-12,
                               atol=1e-12 * np.abs(hess).max())
    # The curvature changes over |v| ~ slip_eps, so the step is small.
    h = 1e-9
    fd = np.stack([(_potential(c, xi + dx)[1] - _potential(c, xi - dx)[1])
                   / (2 * h) for dx in h * np.eye(3)], axis=-1)
    np.testing.assert_allclose(hess, fd, rtol=0,
                               atol=1e-4 * np.abs(hess).max())


def test_newton_matrix_has_a_positive_definite_symmetric_part():
    """For duals with every |z_i| < 1 the symmetric part of the Newton
    matrix is positive definite, so the Newton step descends on Psi."""
    rng = np.random.default_rng(17)
    for terrain in (FLAT, MID, DEEP):
        c = _contacts(terrain=terrain)
        pot = _Dissipation(c, GROUND, ROBOT.friction)
        for xi in rng.normal(scale=(0.2, 0.2, 1.0), size=(10, 3)):
            _, v, s = pot.value(xi)
            for radius in (0.5, 0.99, 1 - 1e-9):
                grad, hess = pot.derivatives(xi, v, s,
                                             _disc(rng, pot.n, radius))
                assert np.linalg.eigvalsh(0.5 * (hess + hess.T)).min() > 0
                assert grad @ _newton_steps(hess, grad) < 0


def test_dual_update_stays_inside_the_unit_disc_without_warnings():
    """From any dual in the disc, the update lands inside |z_i| <=
    DUAL_RADIUS < 1, with no RuntimeWarning: at a contact at rest
    (s = 0, the stopped foot), for every contact at a static state
    (all s = 0) and on steps of every size."""
    assert DUAL_RADIUS < 1
    rng = np.random.default_rng(23)
    c, xi, foot = _stopped_foot()
    static = _contacts(alpha_rates=(0.0, 0.0, 0.0), terrain=FLAT)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for contacts, start, at_rest in ((c, xi, [foot]),
                                         (static, np.zeros(3), slice(None))):
            pot = _Dissipation(contacts, GROUND, ROBOT.friction)
            _, v, s = pot.value(start)
            assert (s[at_rest] == 0.0).all()
            for scale in (0.0, 1e-12, 1e-3, 1.0, 1e3):
                _, v_new, _ = pot.value(start + rng.normal(scale=scale,
                                                           size=3))
                z = pot.dual(v, s, _disc(rng, pot.n, 0.999), v_new)
                assert np.isfinite(z).all()
                assert (np.hypot(z[:pot.n], z[pot.n:])
                        <= DUAL_RADIUS * (1 + 1e-15)).all()


def test_dual_update_is_the_linearised_dual():
    """Away from the disc's rim, the update from z = v/(s + eps) is the
    linearisation of (s + eps) z = v: over a step of size h it misses
    v_new/(s_new + eps) by O(h^2)."""
    rng = np.random.default_rng(29)
    # At rest but for a slow twist, the speeds are of order slip_eps.
    c = _contacts(alpha_rates=(0.0, 0.0, 0.0), terrain=FLAT)
    pot = _Dissipation(c, GROUND, ROBOT.friction)
    xi = np.array([2e-5, -1e-5, 1e-4])
    _, v, s = pot.value(xi)
    z = _primal_dual(pot, v, s)
    direction = rng.normal(scale=(1e-5, 1e-5, 1e-4), size=3)
    misses = []
    for h in (0.2, 0.1):
        _, v_new, s_new = pot.value(xi + h * direction)
        target = _primal_dual(pot, v_new, s_new)
        assert np.hypot(target[:pot.n], target[pot.n:]).max() < DUAL_RADIUS
        misses.append(np.abs(pot.dual(v, s, z, v_new) - target).max())
    assert 0 < misses[1] < 0.3 * misses[0]


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


def test_flat_ground_solves_take_at_most_ten_potential_evaluations(
        monkeypatch):
    """Solver work on flat ground, counted from outside: over a solo 0 mm
    trial (1 cycle, 20 steps per cycle) the mean number of Psi
    evaluations per solve is at most 10.  Primal Newton took about 19,
    its steps overshooting once a contact slips."""
    calls = {"psi": 0, "solves": 0}
    value, solve = _Dissipation.value, sim.solve_quasistatic_velocity

    def counted_value(self, xi):
        calls["psi"] += 1
        return value(self, xi)

    def counted_solve(*args, **kwargs):
        calls["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(_Dissipation, "value", counted_value)
    monkeypatch.setattr(sim, "solve_quasistatic_velocity", counted_solve)
    sim.simulate_trial(GaitParams(body_phase=-math.pi / 6), FLAT, n_cycles=1,
                       steps_per_cycle=20)
    assert calls["solves"] == 2 * 20
    assert calls["psi"] / calls["solves"] <= 10
