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
from dataclasses import dataclass, field

import numpy as np

from . import percept
from .errors import DegenerateSupportError, SolverError
from .gait import TWO_PI, BodyWave, GaitParams, LegId, leg_contact_fraction
from .model import GroundModel, RobotModel, TerrainProfile, blend_ratio

RESIDUAL_TOL = 1e-8      # nondimensional acceptance bound per step
NEWTON_TOL = 1e-11       # solver target, well inside the acceptance bound
MAX_NEWTON_ITERS = 200   # the potential falls at every step, so more is safe
MAX_HALVINGS = 60        # line-search step halvings per Newton step
ARMIJO_C1 = 1e-4         # sufficient-decrease fraction of the Armijo test


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


@dataclass
class ContactSet:
    """Flat arrays describing every ground contact at one instant."""

    pos: np.ndarray       # (n, 2) world positions
    axis: np.ndarray      # (n, 2) element long-axis unit vectors
    rho: np.ndarray       # (n,) granular-drag blend weight
    normal: np.ndarray    # (n,) normal load, N
    vshape: np.ndarray    # (n, 2) velocity from joint motion, body twist frozen
    seg: np.ndarray       # (n,) segment index, for torque attribution
    is_foot: np.ndarray   # (n,) bool
    ref: np.ndarray       # (2,) twist reference point (head tip)


def build_contacts(pose, alphas, alpha_rates, cycle_phase, params, robot,
                   terrain, rho_override=None):
    """Assemble contact geometry, blend weights, and normal loads.

    Weight support is local: each belly element carries its own share of
    body weight, interpolated between the rigid-ground belly fraction
    (``belly_weight_frac`` collectively) and near-full granular support as
    its local blend ratio rises; the stance feet carry whatever the belly
    does not, split by contact fraction.  Keeping support local means a
    body straddling a flat-to-granular boundary does not drain normal
    load (and hence thrust) from the feet still on rigid ground.
    """
    headings, seg_start, joints = chain_frames(pose, alphas, robot)
    n_per = robot.belly_elements_per_segment
    L = robot.segment_length

    pos_list, axis_list, seg_list, foot_list, w_list = [], [], [], [], []

    fracs = (np.arange(n_per) + 0.5) / n_per
    for k in range(robot.n_segments):
        h = headings[k]
        d = np.array([-math.cos(h), -math.sin(h)])
        pts = seg_start[k] + np.outer(fracs * L, d)
        pos_list.append(pts)
        axis_list.append(np.tile([math.cos(h), math.sin(h)], (n_per, 1)))
        seg_list.append(np.full(n_per, k))
        foot_list.append(np.zeros(n_per, dtype=bool))

    n_belly = robot.n_segments * n_per
    bf = robot.belly_weight_frac

    for leg in LegId:
        s = leg_contact_fraction(leg, cycle_phase, params)
        if s <= 0.0:
            continue
        att = robot.leg_attach[leg]
        h = headings[att.segment]
        d = np.array([-math.cos(h), -math.sin(h)])
        left = np.array([-math.sin(h), math.cos(h)])
        p = seg_start[att.segment] + att.along * d + att.lateral * left
        pos_list.append(p[None, :])
        axis_list.append(np.array([[math.cos(h), math.sin(h)]]))
        seg_list.append(np.array([att.segment]))
        foot_list.append(np.array([True]))
        w_list.append(s)

    pos = np.concatenate(pos_list)
    axis = np.concatenate(axis_list)
    seg = np.concatenate(seg_list)
    is_foot = np.concatenate(foot_list)

    if rho_override is None:
        depth = np.asarray(terrain.depth_at(pos[:n_belly, 0]))
        rho_belly = np.minimum(depth / 40.0, 1.0)
    else:
        rho_belly = np.full(n_belly, float(rho_override))
    rho = np.zeros(len(pos))
    rho[:n_belly] = rho_belly

    # Local support: element i carries (W/n_belly)*(bf + rho_i*(1-f_gm-bf)),
    # so the belly bears bf*W on rigid ground and (1-f_gm)*W fully immersed.
    f_gm = robot.foot_gm_weight_frac
    normal = np.empty(len(pos))
    normal[:n_belly] = (robot.weight / n_belly) * (
        bf + rho_belly * (1.0 - f_gm - bf))
    belly_total = float(normal[:n_belly].sum())
    feet_total = robot.weight - belly_total
    s_sum = float(np.sum(w_list)) if w_list else 0.0
    if s_sum > 1e-12:
        normal[n_belly:] = feet_total * np.asarray(w_list) / s_sum
    elif feet_total > 1e-12 * robot.weight:
        if belly_total <= 1e-12:
            raise DegenerateSupportError("no ground contact supports the robot")
        normal[:n_belly] *= robot.weight / belly_total

    # Shape velocity: joint j spins every point on segments >= j about its pivot.
    vshape = np.zeros_like(pos)
    for j in range(1, robot.n_segments):
        mask = seg >= j
        r = pos[mask] - joints[j - 1]
        vshape[mask] += alpha_rates[j - 1] * np.stack([-r[:, 1], r[:, 0]], axis=1)

    return ContactSet(pos, axis, rho, normal, vshape, seg, is_foot,
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
    returns the twist, forces, residual and the largest contact power F.v."""
    try:
        xi, F, v, res = solve_quasistatic_velocity(contacts, ground, robot, xi0)
    except SolverError as err:
        raise SolverError(f"{where}: {err}", residual=err.residual) from err
    return xi, F, res, float(np.einsum("ij,ij->i", F, v).max())


def compute_joint_torques(pose, alphas, contacts, forces, robot):
    """Nondimensional torque about each body joint from the resolved forces.

    Joint ``j`` carries the net moment of every reaction force acting
    tail-ward of it, normalized by mu * m * g * BL.
    """
    _, _, joints = chain_frames(pose, alphas, robot)
    scale = robot.friction * robot.weight * robot.body_length
    tau = np.zeros(3)
    for j in range(1, 4):
        mask = contacts.seg >= j
        if not mask.any():
            continue
        r = contacts.pos[mask] - joints[j - 1]
        f = forces[mask]
        tau[j - 1] = np.sum(r[:, 0] * f[:, 1] - r[:, 1] * f[:, 0]) / scale
    return tau


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
                   steps_per_cycle=100, controller=None,
                   load_cfg=None, mirror=False, rho_override=None,
                   initial_pose=None, clamp_limit="default", blend_frac=0.1):
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

    from .gait import BODY_JOINT_LIMIT
    limit = BODY_JOINT_LIMIT if clamp_limit == "default" else clamp_limit
    wave = BodyWave(params, clamp_limit=limit, blend_frac=blend_frac,
                    mirror=mirror)

    rng = np.random.default_rng(seed)
    omega = params.frequency
    dt = TWO_PI / omega / steps_per_cycle
    n_steps = n_cycles * steps_per_cycle

    pose = np.array(initial_pose if initial_pose is not None
                    else default_initial_pose(robot), dtype=float)

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
        torques[k] = compute_joint_torques(pose, alphas, contacts, F, robot)
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


def speed_bl_per_cycle(record):
    """Per-cycle forward speed (BL/C) and its mean over the trial."""
    if len(record.cycle_speed_blc) < 1:
        raise ValueError("record contains no complete cycle")
    per_cycle = record.cycle_speed_blc
    return per_cycle, float(per_cycle.mean())


def torque_vs_rft_ratio(phi, ratios, robot=None, ground=None,
                        steps_per_cycle=100, params=None):
    """Median |tau~| per joint for each fixed drag/Coulomb blend ratio.

    One noise-free cycle per ratio; output rows follow the input order.
    """
    robot = robot or RobotModel()
    ground = ground or GroundModel()
    out = []
    for rho in ratios:
        if not 0 <= rho <= 1:
            raise ValueError(f"blend ratio must lie in [0, 1], got {rho}")
        base = params or GaitParams()
        g = GaitParams(base.amplitude, base.frequency, phi, base.beta_land,
                       base.beta_lift, base.duty, base.stance_offset,
                       base.ramp_frac)
        rec = simulate_trial(
            g, TerrainProfile.flat(), n_cycles=1, seed=0, robot=robot,
            ground=ground, steps_per_cycle=steps_per_cycle,
            rho_override=rho,
            load_cfg=percept.LoadPipelineConfig(noise_cov=0.0),
        )
        medians = np.median(np.abs(rec.torques), axis=0)
        out.append((rho, medians))
    return out
