"""Quasi-static locomotion simulator.

At every timestep the planar body twist (vx, vy, wz) is the one for which
the net ground-reaction force and yaw moment vanish (inertia is neglected).
Thrust arises from the interplay of the commanded body wave, the trot
stance pattern, and the depth-blended reaction-force law; joint torques are
extracted post hoc from the resolved element forces.

Each contact force is minus the velocity gradient of a convex dissipation
potential and contact velocities are affine in the twist, so the balance
minimises a strictly convex function of the twist.  The solver runs damped
Newton on it, with the quadratic drag share precomputed and no fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import percept
from .errors import DegenerateSupportError, SolverError
from .gait import (BLEND_FRAC, BODY_JOINT_LIMIT, TWO_PI, BodyWave, LegId,
                   leg_contact_fraction)
from .model import GroundModel, RobotModel, blend_ratio

RESIDUAL_TOL = 1e-8      # nondimensional acceptance bound per step
NEWTON_TOL = 1e-11       # solver target, well inside the acceptance bound
MAX_NEWTON_ITERS = 200   # the potential falls at every step, so more is safe
MAX_HALVINGS = 60        # line-search step halvings per Newton step
ARMIJO_C1 = 1e-4         # sufficient-decrease fraction of the Armijo test

STEPS_PER_CYCLE = 100    # integration steps per gait cycle


# ---------------------------------------------------------------------------
# Kinematics

def chain_frames(pose, alphas, robot):
    """Segment headings, head-end positions, and joint positions.

    The head tip is the chain root at ``pose[:2]``; segments extend
    tail-ward.  Joint ``j`` (1-based) sits between segments ``j-1`` and
    ``j`` and bends every segment behind it.
    """
    x, y, theta = pose
    headings = np.empty(robot.n_segments)
    seg_start = np.empty((robot.n_segments, 2))
    joints = np.empty((robot.n_segments - 1, 2))
    h = theta
    p = np.array([x, y])
    for k in range(robot.n_segments):
        if k > 0:
            joints[k - 1] = p
            h = h + alphas[k - 1]
        headings[k] = h
        seg_start[k] = p
        p = p + robot.segment_length * np.array([-math.cos(h), -math.sin(h)])
    return headings, seg_start, joints


def _behind(seg, robot):
    """(n_segments - 1, n) mask whose row j marks the contacts tail-ward of
    joint j + 1, the ones that joint bends."""
    return seg >= np.arange(1, robot.n_segments)[:, None]


@lru_cache(maxsize=None)
def _layout(robot):
    """Fixed contact layout of ``robot``: the segment index, along-segment
    offset and lateral offset of each contact, and its ``_behind`` mask.

    Belly elements come segment by segment, each segment's evenly spaced
    from its head end; then one foot per leg in ``LegId`` order.  The arrays
    are shared by every call, so they are read-only.
    """
    n_per, n_seg = robot.belly_elements_per_segment, robot.n_segments
    atts = [robot.leg_attach[leg] for leg in LegId]
    fracs = (np.arange(n_per) + 0.5) / n_per
    seg = np.concatenate([np.repeat(np.arange(n_seg), n_per),
                          [a.segment for a in atts]])
    along = np.concatenate([np.tile(fracs * robot.segment_length, n_seg),
                            [a.along for a in atts]])
    lateral = np.concatenate([np.zeros(n_seg * n_per),
                              [a.lateral for a in atts]])
    layout = (seg, along, lateral, _behind(seg, robot))
    for a in layout:
        a.flags.writeable = False
    return layout


@dataclass
class ContactSet:
    """Flat arrays describing every ground contact at one instant."""

    pos: np.ndarray       # (n, 2) world positions
    axis: np.ndarray      # (n, 2) element long-axis unit vectors
    rho: np.ndarray       # (n,) granular-drag blend weight
    normal: np.ndarray    # (n,) normal load, N
    vshape: np.ndarray    # (n, 2) velocity from joint motion, body twist frozen
    seg: np.ndarray       # (n,) segment index, for torque attribution
    joints: np.ndarray    # (n_segments - 1, 2) joint positions
    ref: np.ndarray       # (2,) twist reference point (head tip)


def build_contacts(pose, alphas, alpha_rates, cycle_phase, params, robot,
                   terrain, rho_override=None):
    """Assemble contact geometry, blend weights, and normal loads.

    Every contact of ``_layout(robot)`` is present at every instant: the
    belly elements, then the four feet.  A foot in swing keeps exactly zero
    normal load, so it exerts no force and adds nothing to the balance.

    Weight support is local: each belly element carries its own share of
    body weight, interpolated between the rigid-ground belly fraction
    (``belly_weight_frac`` collectively) and near-full granular support as
    its local blend ratio rises; the stance feet carry whatever the belly
    does not, split by contact fraction.  Keeping support local means a
    body straddling a flat-to-granular boundary does not drain normal
    load (and hence thrust) from the feet still on rigid ground.
    """
    headings, seg_start, joints = chain_frames(pose, alphas, robot)
    seg, along, lateral, behind = _layout(robot)
    n_belly = robot.n_segments * robot.belly_elements_per_segment

    cos, sin = np.cos(headings), np.sin(headings)
    axis = np.stack([cos, sin], axis=1)[seg]
    left = np.stack([-sin, cos], axis=1)[seg]
    pos = seg_start[seg] - along[:, None] * axis + lateral[:, None] * left

    rho = np.zeros(len(seg))
    if rho_override is None:
        rho[:n_belly] = blend_ratio(terrain.depth_at(pos[:n_belly, 0]))
    else:
        rho[:n_belly] = float(rho_override)

    # Local support: element i carries (W/n_belly)*(bf + rho_i*(1-f_gm-bf)),
    # so the belly bears bf*W on rigid ground and (1-f_gm)*W fully immersed.
    bf, f_gm = robot.belly_weight_frac, robot.foot_gm_weight_frac
    normal = np.zeros(len(seg))
    belly = normal[:n_belly]       # a view: rescaling it rescales normal
    belly[:] = (robot.weight / n_belly) * (
        bf + rho[:n_belly] * (1.0 - f_gm - bf))
    belly_total = float(belly.sum())
    feet_total = robot.weight - belly_total
    s = np.array([leg_contact_fraction(leg, cycle_phase, params)
                  for leg in LegId])
    s_sum = float(s.sum())
    if s_sum > 1e-12:
        normal[n_belly:] = feet_total * s / s_sum
    elif feet_total > 1e-12 * robot.weight:
        if belly_total <= 1e-12:
            raise DegenerateSupportError("no ground contact supports the robot")
        belly *= robot.weight / belly_total

    # Shape velocity: joint j spins every point behind it about its pivot.
    r = pos - joints[:, None]
    rates = np.asarray(alpha_rates, dtype=float)[:, None, None]
    vshape = np.sum(rates * np.stack([-r[..., 1], r[..., 0]], axis=2)
                    * behind[..., None], axis=0)

    return ContactSet(pos, axis, rho, normal, vshape, seg, joints,
                      np.array(pose[:2], dtype=float))


# ---------------------------------------------------------------------------
# Force balance

def contact_forces(v, c, gm, mu):
    """Blended reaction force on every contact for given point velocities."""
    speed = np.linalg.norm(v, axis=1)
    f_coulomb = -mu * c.normal[:, None] * v / (speed + gm.slip_eps)[:, None]
    v_par = np.einsum("ij,ij->i", v, c.axis)
    v_perp = v - v_par[:, None] * c.axis
    f_rft = -gm.rft_par * v_par[:, None] * c.axis - gm.rft_perp * v_perp
    return (1.0 - c.rho)[:, None] * f_coulomb + c.rho[:, None] * f_rft


def _residual_scale(robot):
    """Row scaling from net force and yaw moment to the residual."""
    return np.array([1.0, 1.0, 1.0 / robot.body_length]) / (
        robot.friction * robot.weight)


def _pull_back(f, r):
    """Net force and yaw moment of per-contact forces ``f`` at lever arms ``r``."""
    q = f.T @ r
    return np.append(f.sum(axis=0), q[1, 0] - q[0, 1])


def _residual(xi, c, gm, robot):
    """Nondimensional net force and yaw moment at twist ``xi``, with the
    contact forces and velocities."""
    r = c.pos - c.ref
    v = xi[:2] + xi[2] * np.stack([-r[:, 1], r[:, 0]], axis=1) + c.vshape
    F = contact_forces(v, c, gm, robot.friction)
    return _pull_back(F, r) * _residual_scale(robot), F, v


def _assemble(blocks, feat):
    """Sum of B_i^T H_i B_i over contacts, B_i = [[1, 0, -ry], [0, 1, rx]].

    ``blocks`` holds the rows h11, h12, h22 of the symmetric 2x2 blocks H_i;
    ``feat`` the columns [1, rx, ry, rx^2, ry^2, rx*ry] of the lever arms.
    """
    p = blocks @ feat
    h02 = p[1, 1] - p[0, 2]
    h12 = p[2, 1] - p[1, 2]
    h22 = p[0, 4] - 2.0 * p[1, 5] + p[2, 3]
    return np.array([[p[0, 0], p[1, 0], h02],
                     [p[1, 0], p[2, 0], h12],
                     [h02, h12, h22]])


class _Dissipation:
    """Dissipation potential Psi(xi) of one contact set.

    Psi sums (1 - rho) mu N (s - eps log(1 + s/eps)) with s = |v| over the
    Coulomb share and rho v.D.v / 2 over the drag share, whose minus
    velocity gradients are the two force laws of ``contact_forces``.  The
    drag share is quadratic in the twist, so it is folded once into
    ``0.5 xi.K.xi + k0.xi + c0``; an evaluation then visits only the
    contacts with rho < 1.
    """

    def __init__(self, c, gm, mu):
        r = c.pos - c.ref
        rx, ry = r[:, 0], r[:, 1]
        feat = np.stack([np.ones_like(rx), rx, ry, rx * rx, ry * ry, rx * ry],
                        axis=1)
        ax, ay = c.axis[:, 0], c.axis[:, 1]
        dc = gm.rft_par - gm.rft_perp
        drag = c.rho * np.stack([gm.rft_perp + dc * ax * ax, dc * ax * ay,
                                 gm.rft_perp + dc * ay * ay])
        wx, wy = c.vshape[:, 0], c.vshape[:, 1]
        dw = np.stack([drag[0] * wx + drag[1] * wy,
                       drag[1] * wx + drag[2] * wy], axis=1)
        self.K = _assemble(drag, feat)
        self.k0 = _pull_back(dw, r)
        self.c0 = 0.5 * float(np.sum(dw * c.vshape))

        coulomb = c.rho < 1.0
        self.m = ((1.0 - c.rho) * mu * c.normal)[coulomb]
        self.r = r[coulomb]
        self.lever = np.stack([-ry, rx], axis=1)[coulomb]
        self.w = c.vshape[coulomb]
        self.feat = feat[coulomb]
        self.eps = gm.slip_eps

    def value(self, xi):
        """Psi(xi), plus the Coulomb contacts' velocities and speeds."""
        v = self.w + xi[:2] + xi[2] * self.lever
        s = np.hypot(v[:, 0], v[:, 1])
        psi = float(self.m @ (s - self.eps * np.log1p(s / self.eps)))
        return psi + float(xi @ (0.5 * (self.K @ xi) + self.k0)) + self.c0, v, s

    def derivatives(self, xi, v, s):
        """Gradient and Hessian of Psi at ``xi``, from ``value(xi)``'s v, s."""
        se = s + self.eps
        k = self.m / se
        grad = self.K @ xi + self.k0 + _pull_back(k[:, None] * v, self.r)
        # Coulomb block k (I - (s/se) e e^T) with e = v/|v|, bounded at s = 0.
        e = np.divide(v, s[:, None], out=np.zeros_like(v), where=s[:, None] > 0)
        ks = k * s / se
        blocks = np.stack([k - ks * e[:, 0] * e[:, 0], -ks * e[:, 0] * e[:, 1],
                           k - ks * e[:, 1] * e[:, 1]])
        return grad, self.K + _assemble(blocks, self.feat)


def solve_quasistatic_velocity(contacts, gm, robot, xi0=None):
    """Twist at which net force and yaw moment vanish: the minimiser of the
    strictly convex potential Psi of ``_Dissipation``, whose gradient is
    minus the residual up to row scaling.

    Damped Newton from ``xi0`` halves each step until it passes an Armijo
    test on Psi, so Psi falls at every step and the solve converges from any
    start, with no fallback.  A final ``_residual`` pass gives the returned
    ``(xi, F, v, residual)``; a residual above RESIDUAL_TOL, or NaN, raises.
    """
    xi = np.zeros(3) if xi0 is None else np.array(xi0, dtype=float)
    pot = _Dissipation(contacts, gm, robot.friction)
    scale = _residual_scale(robot)
    psi, v, s = pot.value(xi)
    for _ in range(MAX_NEWTON_ITERS):
        grad, hess = pot.derivatives(xi, v, s)
        if not np.abs(scale * grad).max() >= NEWTON_TOL:
            break   # converged, or NaN, which the final check rejects
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        slope = ARMIJO_C1 * float(grad @ step)
        slack = 1e-13 * abs(psi)
        lam = 1.0
        for _ in range(MAX_HALVINGS):
            trial = xi + lam * step
            psi_t, v_t, s_t = pot.value(trial)
            if psi_t <= psi + lam * slope + slack:
                break
            lam *= 0.5
        else:
            break
        xi, psi, v, s = trial, psi_t, v_t, s_t

    res, F, v = _residual(xi, contacts, gm, robot)
    worst = float(np.abs(res).max())
    if not worst <= RESIDUAL_TOL:
        raise SolverError(
            f"force balance did not converge (residual {worst:.3e})",
            residual=worst,
        )
    return xi, F, v, worst


def _balance(contacts, ground, robot, xi0, where):
    """``solve_quasistatic_velocity`` with ``where`` prefixed to a failure;
    returns the twist, forces, residual and the largest power F.v of a
    loaded contact (a swing foot, at zero load, exerts no force)."""
    try:
        xi, F, v, res = solve_quasistatic_velocity(contacts, ground, robot, xi0)
    except SolverError as err:
        raise SolverError(f"{where}: {err}", residual=err.residual) from err
    power = np.einsum("ij,ij->i", F, v)[contacts.normal > 0]
    return xi, F, res, float(power.max())


def compute_joint_torques(contacts, forces, robot):
    """Nondimensional torque about each body joint from the resolved forces.

    Joint ``j`` carries the net moment of every reaction force acting
    tail-ward of it, normalized by mu * m * g * BL.  Contacts ahead of a
    joint enter its sum as exact zeros.
    """
    r = contacts.pos - contacts.joints[:, None]
    moment = r[..., 0] * forces[:, 1] - r[..., 1] * forces[:, 0]
    scale = robot.friction * robot.weight * robot.body_length
    return np.sum(moment * _behind(contacts.seg, robot), axis=1) / scale


# ---------------------------------------------------------------------------
# Trial integration

@dataclass
class TrialRecord:
    """Everything recorded from one simulated trial."""

    times: np.ndarray            # (N,)
    poses: np.ndarray            # (N + 1, 3) head-tip pose
    centers: np.ndarray          # (N + 1, 2) body-center position
    joint_angles: np.ndarray     # (N, 3)
    torques: np.ndarray          # (N, 3) nondimensional, joints 1..3
    loads: np.ndarray            # (N, 3) noisy load signal, % of stall
    cycle_speed_blc: np.ndarray  # (C,)
    cycle_median_load: np.ndarray  # (C, 3) filtered+rectified cycle medians
    cycle_phi: np.ndarray        # (C,) phase offset commanded during each cycle
    steps_per_cycle: int
    seed: int
    max_residual: float
    max_power: float             # max over steps/elements of F . v (<= 0 ideal)
    clamp_events: int


JOINT_NAMES = ("upper", "lower", "tail")


def body_center(pose, alphas, robot):
    headings, seg_start, _ = chain_frames(pose, alphas, robot)
    mids = seg_start + 0.5 * robot.segment_length * np.stack(
        [-np.cos(headings), -np.sin(headings)], axis=1
    )
    return mids.mean(axis=0)


def default_initial_pose(robot):
    """Head-tip pose placing the (straight) body center at the origin."""
    return np.array([robot.body_length / 2.0, 0.0, 0.0])


def simulate_trial(params, terrain, n_cycles, seed=0, robot=None, ground=None,
                   steps_per_cycle=STEPS_PER_CYCLE, controller=None,
                   load_cfg=None, mirror=False, rho_override=None,
                   clamp_limit=BODY_JOINT_LIMIT, blend_frac=BLEND_FRAC):
    """Run ``n_cycles`` gait cycles and record the full trial.

    ``controller``, when given, is called once per cycle boundary with that
    cycle's median lower-joint load and must return the phase offset to
    command for the next cycle.  Identical inputs and seed reproduce the
    record bit for bit.
    """
    robot = robot or RobotModel()
    ground = ground or GroundModel()
    load_cfg = load_cfg or percept.LoadPipelineConfig()
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be >= 1, got {n_cycles}")

    if mirror:
        # Reflection across the x-axis: leg attachments flip sides while
        # keeping their stance timing, and the body wave negates.
        robot = robot.mirrored()

    wave = BodyWave(params, clamp_limit=clamp_limit, blend_frac=blend_frac,
                    mirror=mirror)

    rng = np.random.default_rng(seed)
    omega = params.frequency
    dt = TWO_PI / omega / steps_per_cycle
    n_steps = n_cycles * steps_per_cycle

    pose = default_initial_pose(robot)

    times = np.empty(n_steps)
    poses = np.empty((n_steps + 1, 3))
    centers = np.empty((n_steps + 1, 2))
    joint_angles = np.empty((n_steps, 3))
    torques = np.empty((n_steps, 3))
    loads = np.empty((n_steps, 3))
    cycle_speed = np.empty(n_cycles)
    cycle_median = np.empty((n_cycles, 3))
    cycle_phi = np.empty(n_cycles)

    filt = percept.OnlineLoadPipeline(load_cfg, rng)
    xi_prev = None
    max_residual = 0.0
    max_power = -np.inf

    for k in range(n_steps):
        t = k * dt
        times[k] = t
        alphas, rates = wave.angles_and_rates(t)
        cycle_phase = (omega * t) % TWO_PI
        contacts = build_contacts(pose, alphas, rates, cycle_phase, params,
                                  robot, terrain, rho_override)
        where = f"cycle {k // steps_per_cycle}, step {k % steps_per_cycle}"
        xi, F, res, power = _balance(contacts, ground, robot, xi_prev, where)

        poses[k] = pose
        centers[k] = body_center(pose, alphas, robot)
        joint_angles[k] = alphas
        torques[k] = compute_joint_torques(contacts, F, robot)
        loads[k] = filt.push_raw(torques[k])

        # Midpoint rule: re-balance at the half step so the pose update is
        # second-order accurate in dt.
        t_mid = t + 0.5 * dt
        pose_half = pose + 0.5 * dt * xi
        alphas_m, rates_m = wave.angles_and_rates(t_mid)
        contacts_m = build_contacts(pose_half, alphas_m, rates_m,
                                    (omega * t_mid) % TWO_PI, params, robot,
                                    terrain, rho_override)
        xi_prev, _, res_m, power_m = _balance(contacts_m, ground, robot, xi,
                                              where + " (midpoint)")
        max_residual = max(max_residual, res, res_m)
        max_power = max(max_power, power, power_m)
        pose = pose + dt * xi_prev

        if (k + 1) % steps_per_cycle == 0:
            c = k // steps_per_cycle
            lo = c * steps_per_cycle
            cycle_phi[c] = wave.phi
            cycle_median[c] = filt.cycle_median(lo, k + 1)
            if controller is not None and c < n_cycles - 1:
                new_phi = controller(cycle_median[c, 1])
                wave.set_phase(new_phi, omega * (t + dt))

    alphas, _ = wave.angles_and_rates(n_steps * dt)
    poses[n_steps] = pose
    centers[n_steps] = body_center(pose, alphas, robot)
    for c in range(n_cycles):
        dx = centers[(c + 1) * steps_per_cycle, 0] - centers[c * steps_per_cycle, 0]
        cycle_speed[c] = dx / robot.body_length

    return TrialRecord(
        times=times, poses=poses, centers=centers, joint_angles=joint_angles,
        torques=torques, loads=loads,
        cycle_speed_blc=cycle_speed, cycle_median_load=cycle_median,
        cycle_phi=cycle_phi, steps_per_cycle=steps_per_cycle, seed=seed,
        max_residual=max_residual, max_power=max_power,
        clamp_events=wave.clamp_events,
    )
