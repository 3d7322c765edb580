"""Quasi-static locomotion simulator.

At every timestep the planar body twist (vx, vy, wz) is the one for which
the net ground-reaction force and yaw moment vanish (inertia is neglected).
Thrust arises from the interplay of the commanded body wave, the trot
stance pattern, and the depth-blended reaction-force law; joint torques are
extracted post hoc from the resolved element forces.

Each contact force is minus the velocity gradient of a convex dissipation
potential and contact velocities are affine in the twist, so the balance
minimises a strictly convex function of the twist.  The solver runs damped
primal-dual Newton on it, with no fallback: a dual per contact stands for
the Coulomb force direction, so a slipping contact's step does not
overshoot.  Both shares of the potential use one contact Jacobian, the rows
B_i mapping the twist to contact i's velocity; the drag share is quadratic
in the twist and is summed once per solve.

Independent trials advance in lock-step over a leading batch axis: every
kernel below takes leading batch axes (``...``), and a single trial is the
batch of shape ``()``, whose kernel arrays are those of one trial alone;
the recorded arrays hold one row per trial in either case.  A batch
shares one gait, and so one clock and one stance pattern, and one load
pipeline configuration; each trial keeps its own body phase offset,
terrain, seed and controller.  Each kernel works trial by trial in the same
arithmetic whatever the batch, so a trial's record does not depend on its
batch-mates.  A failure ends the whole batch: the error names the failing
trial, cycle and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import percept
from .errors import DegenerateSupportError, SolverError
from .gait import (BLEND_FRAC, BODY_JOINT_LIMIT, TWO_PI, BodyWave, LegId,
                   leg_contact_fraction)
from .model import (MAX_DEPTH_MM, GroundModel, RobotModel, TerrainProfile,
                    blend_ratio)

RESIDUAL_TOL = 1e-8      # nondimensional acceptance bound per step
NEWTON_TOL = 1e-11       # solver target, well inside the acceptance bound
MAX_NEWTON_ITERS = 200   # the potential falls at every step, so more is safe
MAX_HALVINGS = 60        # line-search step halvings per Newton step
ARMIJO_C1 = 1e-4         # sufficient-decrease fraction of the Armijo test
DUAL_RADIUS = 0.99       # the Coulomb dual is kept inside this disc (< 1)

STEPS_PER_CYCLE = 100    # integration steps per gait cycle


def blend_groups(terrains):
    """Trials grouped by terrain object, given one terrain per trial:
    ``{terrain: rows}``, so that each terrain's belly blend ratios come
    from one depth lookup over its rows."""
    groups = {}
    for i, terrain in enumerate(terrains):
        groups.setdefault(terrain, []).append(i)
    return {terrain: np.array(rows) for terrain, rows in groups.items()}


#: ``r[..., ::-1] * _ROT90`` turns vectors (x, y) into (-y, x).
_ROT90 = np.array([-1.0, 1.0])


# ---------------------------------------------------------------------------
# Kinematics

def _frames(pose, alphas, robot):
    """Segment headings, each heading's (cos, sin), and the head-end
    position of each segment.

    The head tip is the chain root at ``pose[..., :2]``; segments extend
    tail-ward.  Joint ``j`` (1-based) sits between segments ``j-1`` and
    ``j``, at ``seg_start[..., j, :]``, and bends every segment behind it.
    """
    pose = np.asarray(pose, dtype=float)
    batch, n = pose.shape[:-1], robot.n_segments
    # Each heading adds one joint angle to the one before it, and each
    # segment starts where the one before it ends; both sums run in order.
    headings = np.empty(batch + (n,))
    headings[..., 0] = pose[..., 2]
    headings[..., 1:] = alphas
    headings.cumsum(axis=-1, out=headings)
    cs = np.empty(batch + (n, 2))
    cs[..., 0] = np.cos(headings)
    cs[..., 1] = np.sin(headings)
    seg_start = np.empty(batch + (n, 2))
    seg_start[..., 0, :] = pose[..., :2]
    np.multiply(-cs[..., :-1, :], robot.segment_length,
                out=seg_start[..., 1:, :])
    seg_start.cumsum(axis=-2, out=seg_start)
    return headings, cs, seg_start


def body_center(pose, alphas, robot):
    """Body-centre position: the mean of the segment midpoints."""
    _, cs, seg_start = _frames(pose, alphas, robot)
    mids = seg_start + 0.5 * robot.segment_length * -cs
    return mids.sum(axis=-2) / robot.n_segments


@lru_cache(maxsize=None)
def _layout(robot):
    """Fixed contact layout of ``robot``: the segment index, along-segment
    offset and lateral offset (as (n, 1) columns) of each contact, and the
    (n_segments - 1, n) mask whose row j marks the contacts tail-ward of
    joint j + 1, the ones that joint bends.

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
    behind = seg >= np.arange(1, n_seg)[:, None]
    layout = (seg, along[:, None], lateral[:, None], behind)
    for a in layout:
        a.flags.writeable = False
    return layout


@dataclass
class ContactSet:
    """Flat arrays describing every ground contact at one instant; each
    array has the leading batch axes of its trials."""

    pos: np.ndarray       # (..., n, 2) world positions
    axis: np.ndarray      # (..., n, 2) element long-axis unit vectors
    rho: np.ndarray       # (..., n) granular-drag blend weight
    normal: np.ndarray    # (..., n) normal load, N
    vshape: np.ndarray    # (..., n, 2) velocity from joint motion, body twist frozen
    jac: np.ndarray       # (..., n_segments - 1, n, 2) joint Jacobian
    ref: np.ndarray       # (..., 2) twist reference point (head tip)


def build_contacts(pose, alphas, alpha_rates, cycle_phase, params, robot,
                   blend):
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

    A batch shares ``cycle_phase`` and the gait ``params``, so its feet are
    in stance together; ``blend`` is the ``blend_groups`` of its trials,
    made once per batch.  A ``DegenerateSupportError`` marks the trials it
    concerns in ``failed``.
    """
    _, cs, seg_start = _frames(pose, alphas, robot)
    seg, along, lateral, behind = _layout(robot)
    n_belly = robot.n_segments * robot.belly_elements_per_segment
    batch = cs.shape[:-2]
    n_trials = math.prod(batch)

    axis = cs[..., seg, :]
    pos = seg_start[..., seg, :] - along * axis + lateral * (axis[..., ::-1]
                                                             * _ROT90)

    rho = np.zeros(batch + (len(seg),))
    belly_rho = rho[..., :n_belly].reshape(n_trials, n_belly)   # a view
    belly_x = pos[..., :n_belly, 0].reshape(n_trials, n_belly)
    for terrain, rows in blend.items():
        belly_rho[rows] = blend_ratio(terrain.depth_at(belly_x[rows]))

    # Local support: element i carries (W/n_belly)*(bf + rho_i*(1-f_gm-bf)),
    # so the belly bears bf*W on rigid ground and (1-f_gm)*W fully immersed.
    bf, f_gm = robot.belly_weight_frac, robot.foot_gm_weight_frac
    normal = np.zeros(batch + (len(seg),))
    belly = normal[..., :n_belly]       # a view: rescaling it rescales normal
    belly[...] = (robot.weight / n_belly) * (
        bf + rho[..., :n_belly] * (1.0 - f_gm - bf))
    belly_total = belly.sum(axis=-1)
    feet_total = robot.weight - belly_total
    s = np.array([leg_contact_fraction(leg, cycle_phase, params)
                  for leg in LegId])
    s_sum = s.sum()
    if s_sum > 1e-12:
        normal[..., n_belly:] = feet_total[..., None] * s / s_sum
    else:
        # No foot in stance: the belly carries the whole weight.
        lifted = feet_total > 1e-12 * robot.weight
        unsupported = lifted & (belly_total <= 1e-12)
        if any(unsupported.flat):
            raise DegenerateSupportError(
                "no ground contact supports the robot", failed=unsupported)
        belly *= np.divide(robot.weight, belly_total, out=np.ones(batch),
                           where=lifted)[..., None]

    # Joint Jacobian: joint j spins every point behind it about its pivot.
    r = pos[..., None, :, :] - seg_start[..., 1:, None, :]
    jac = r[..., ::-1] * _ROT90 * behind[..., None]
    rates = np.asarray(alpha_rates, dtype=float)[..., None, None]
    vshape = (rates * jac).sum(axis=-3)

    return ContactSet(pos, axis, rho, normal, vshape, jac,
                      np.array(np.asarray(pose)[..., :2], dtype=float))


# ---------------------------------------------------------------------------
# Force balance

def contact_forces(v, c, gm, mu):
    """Blended reaction force on every contact for given point velocities."""
    speed = np.linalg.norm(v, axis=-1)
    f_coulomb = -mu * c.normal[..., None] * v / (speed + gm.slip_eps)[..., None]
    v_par = np.einsum("...j,...j->...", v, c.axis)
    v_perp = v - v_par[..., None] * c.axis
    f_rft = -gm.rft_par * v_par[..., None] * c.axis - gm.rft_perp * v_perp
    return (1.0 - c.rho)[..., None] * f_coulomb + c.rho[..., None] * f_rft


def _residual_scale(robot):
    """Row scaling from net force and yaw moment to the residual."""
    return np.array([1.0, 1.0, 1.0 / robot.body_length]) / (
        robot.friction * robot.weight)


def _pull_back(f, r):
    """Net force and yaw moment of per-contact forces ``f`` at lever arms ``r``."""
    q = f.mT @ r
    out = np.empty(q.shape[:-2] + (3,))
    out[..., :2] = f.sum(axis=-2)
    out[..., 2] = q[..., 1, 0] - q[..., 0, 1]
    return out


def _residual(xi, c, gm, robot):
    """Nondimensional net force and yaw moment at twist ``xi``, with the
    contact forces and velocities."""
    r = c.pos - c.ref[..., None, :]
    v = xi[..., None, :2] + xi[..., None, 2:] * (r[..., ::-1] * _ROT90) + c.vshape
    F = contact_forces(v, c, gm, robot.friction)
    return _pull_back(F, r) * _residual_scale(robot), F, v


_EYE3 = np.eye(3)
_TINY = np.finfo(float).tiny


class _Dissipation:
    """Dissipation potential Psi(xi) of one contact set.

    Psi sums (1 - rho) mu N (s - eps log(1 + s/eps)) with s = |v| over the
    Coulomb share and rho v.D.v / 2 over the drag share, whose minus
    velocity gradients are the two force laws of ``contact_forces``.  Both
    shares take the contact velocities v_i = B_i xi + w_i, with
    B_i = [[1, 0, -ry], [0, 1, rx]] at lever arm r_i.  The drag tensor
    D_i = c_perp I + (c_par - c_perp) a_i a_i^T makes the drag share
    quadratic in the twist, so it is folded once into
    ``0.5 xi.K.xi + k0.xi + c0``: K sums rho c_perp B_i^T B_i and the
    rank-one rho (c_par - c_perp) t_i t_i^T, with t_i = B_i^T a_i.

    The Coulomb share runs over every contact of ``_layout(robot)`` as
    contiguous per-component rows: the velocities are one ``(..., 2n)`` row
    per trial, x components then y components, ``map @ xi + w``, and a
    contact with rho = 1 weighs 0.  Its column set is the layout's, not the
    batch's, so each trial's sums have the same length and order alone or
    in any batch, and Psi, its gradient, the Newton matrix and the dual
    update equal the trial's own bit for bit.

    The Coulomb share of Psi is a weighted sum of smoothed norms |v_i|.
    Once a contact slips (s >> eps) its Hessian keeps only eps/(s + eps) of
    the radial curvature, so primal Newton overshoots.  The solver keeps
    instead a dual z_i ~ v_i/(s_i + eps), the contact's force direction,
    in rows laid out as v, builds its Newton matrix from it
    (``derivatives``) and updates it by the linearisation of
    (s + eps) z = v after each step (``dual``), as in primal-dual Newton
    for total variation (Chan, Golub & Mulet, SIAM J. Sci. Comput. 20,
    1999) and for sums of Euclidean norms (Andersen, Christiansen, Conn &
    Overton, SIAM J. Sci. Comput. 22, 2000).
    """

    def __init__(self, c, gm, mu):
        r = c.pos - c.ref[..., None, :]
        batch, n = r.shape[:-2], r.shape[-2]
        rx, ry = r[..., 0], r[..., 1]
        # Rows of B_i = [[1, 0, -ry], [0, 1, rx]]: x rows, then y rows.
        self.map = np.zeros(batch + (2, n, 3))
        self.map[..., 0, :, 0] = self.map[..., 1, :, 1] = 1.0
        self.map[..., 0, :, 2] = -ry
        self.map[..., 1, :, 2] = rx
        self.map = self.map.reshape(batch + (2 * n, 3))
        # B_i^T B_i = [[1, 0, -ry], [0, 1, rx], [-ry, rx, rx^2 + ry^2]],
        # flattened.
        self.btb = np.zeros(batch + (n, 9))
        self.btb[..., 0] = self.btb[..., 4] = 1.0
        self.btb[..., 2] = self.btb[..., 6] = -ry
        self.btb[..., 5] = self.btb[..., 7] = rx
        self.btb[..., 8] = rx * rx + ry * ry

        # Drag share: rho D_i = perp_i I + par_i a_i a_i^T.
        a, w = c.axis, c.vshape
        perp = c.rho * gm.rft_perp
        par = c.rho * (gm.rft_par - gm.rft_perp)
        t = np.empty(batch + (n, 3))
        t[..., :2] = a
        t[..., 2] = rx * a[..., 1] - ry * a[..., 0]
        bw = np.empty(batch + (n, 3))      # B_i^T w_i
        bw[..., :2] = w
        bw[..., 2] = rx * w[..., 1] - ry * w[..., 0]
        aw = np.vecdot(a, w)
        self.K = (np.vecmat(perp, self.btb).reshape(batch + (3, 3))
                  + (t * par[..., None]).mT @ t)
        self.k0 = np.vecmat(perp, bw) + np.vecmat(par * aw, t)
        self.c0 = 0.5 * (np.vecdot(perp, np.vecdot(w, w))
                         + np.vecdot(par, aw * aw))

        self.w = w.mT.reshape(batch + (2 * n,))
        self.m = (1.0 - c.rho) * mu * c.normal
        self.n = n
        self.eps = gm.slip_eps

    def value(self, xi):
        """Psi(xi), plus the velocity rows and the contact speeds."""
        v = np.matvec(self.map, xi) + self.w
        s = np.hypot(v[..., :self.n], v[..., self.n:])
        psi = np.vecdot(self.m, s - self.eps * np.log1p(s / self.eps))
        quad = np.vecdot(xi, 0.5 * np.matvec(self.K, xi) + self.k0)
        return psi + quad + self.c0, v, s

    def derivatives(self, xi, v, s, z):
        """Gradient of Psi at ``xi`` and the primal-dual Newton matrix, from
        ``value(xi)``'s v, s and the dual rows ``z`` (laid out as v).

        With u_i = B_i^T v_i and k = m/(s + eps), the Coulomb share adds
        sum k_i u_i to the gradient and sum k_i B_i^T B_i
        - (k_i/s_i) (B_i^T z_i) u_i^T to the matrix, the last term 0 at
        s = 0: the linearisation of the share's gradient written with its
        dual z_i = v_i/(s_i + eps).  At that z it is the Hessian of Psi;
        for any |z_i| < 1 its symmetric part is positive definite, so its
        Newton step descends.
        """
        n = self.n
        k = self.m / (s + self.eps)
        # v = 0, so u = 0, where s = 0: the last term vanishes there for
        # any finite c
        c = k / np.where(s > 0, s, 1.0)
        uv = self.map * v[..., None]
        u = uv[..., :n, :] + uv[..., n:, :]
        uz = self.map * z[..., None]
        uz = uz[..., :n, :] + uz[..., n:, :]
        uz *= c[..., None]
        grad = np.matvec(self.K, xi) + self.k0 + np.vecmat(k, u)
        hess = np.vecmat(k, self.btb).reshape(grad.shape + (3,))
        hess += self.K
        hess -= uz.mT @ u
        return grad, hess

    def dual(self, v, s, z, v_new):
        """Dual rows after a step from velocity rows ``v`` (speeds ``s``,
        dual ``z``) to ``v_new``: the linearised update of
        (s + eps) z = v, z <- (v_new - a z)/(s + eps) with a = v.v_new/s - s,
        pulled back onto the disc |z_i| <= DUAL_RADIUS where it leaves it."""
        n = self.n
        vv = v * v_new
        # v = 0 where s = 0: the max keeps 0/0 out, and a = 0 there
        a = (vv[..., :n] + vv[..., n:]) / np.maximum(s, _TINY) - s
        t = v_new - np.concatenate((a, a), axis=-1) * z
        # t/d is t/(s + eps), or t/|t| * DUAL_RADIUS if that is shorter
        d = np.maximum(np.hypot(t[..., :n], t[..., n:]) / DUAL_RADIUS,
                       s + self.eps)
        t /= np.concatenate((d, d), axis=-1)
        return t


def _newton_steps(hess, grad):
    """Newton steps -H^-1 g of stacked systems; NaN where H is singular."""
    try:
        return np.linalg.solve(hess, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if hess.ndim == 2:
            return np.full_like(grad, np.nan)
        return np.stack([_newton_steps(h, g) for h, g in zip(hess, grad)])


def _not_balanced(worst):
    return f"force balance did not converge (residual {worst:.3e})"


def solve_quasistatic_velocity(contacts, gm, robot, xi0=None):
    """Twist at which net force and yaw moment vanish: the minimiser of the
    strictly convex potential Psi of ``_Dissipation``, whose gradient is
    minus the residual up to row scaling.

    Damped primal-dual Newton from ``xi0`` and the dual z = 0 (see
    ``_Dissipation``) halves each step until it passes an Armijo test on
    Psi.  The Newton matrix's symmetric part is positive definite while
    every |z_i| < 1, which the dual update keeps, so each step descends:
    Psi falls at every step and the solve converges from any start, with
    no fallback.  Convergence is tested on the gradient of Psi alone.
    Each trial of a batch keeps its own active flag, step length and dual:
    it stops stepping once converged, after a singular Newton matrix or
    after MAX_HALVINGS failed halvings, so its iterates are those of its
    solve alone; all active trials share one batched linear solve.  A
    final ``_residual`` pass gives the returned ``(xi, F, v, residual)``; a
    residual above RESIDUAL_TOL, or NaN, raises a ``SolverError`` whose
    ``residual`` and ``failed`` cover the batch.
    """
    batch = contacts.ref.shape[:-1]
    xi = np.zeros(batch + (3,)) if xi0 is None else np.array(xi0, dtype=float)
    pot = _Dissipation(contacts, gm, robot.friction)
    scale = _residual_scale(robot)
    psi, v, s = pot.value(xi)
    z = np.zeros_like(v)
    # Per-trial flags and step lengths; scalars for a single trial.  Flags
    # are tested with any()/all() over ``.flat``, which is cheap for both.
    active = np.ones(batch, dtype=bool)[()]
    full_step = np.ones(batch)[()]
    for _ in range(MAX_NEWTON_ITERS):
        grad, hess = pot.derivatives(xi, v, s, z)
        # converged, or NaN, which the final check rejects
        active = active & (np.abs(scale * grad).max(axis=-1) >= NEWTON_TOL)
        if not any(active.flat):
            break
        everyone = all(active.flat)
        if not everyone:
            # A trial that has stopped takes a zero step.
            grad = np.where(active[..., None], grad, 0.0)
            hess = np.where(active[..., None, None], hess, _EYE3)
        step = _newton_steps(hess, grad)
        slope = ARMIJO_C1 * np.vecdot(grad, step)
        slack = 1e-13 * abs(psi)
        lam, trial, pending = full_step, xi + step, active
        for _ in range(MAX_HALVINGS):
            psi_t, v_t, s_t = pot.value(trial)
            pending = pending & ~(psi_t <= psi + lam * slope + slack)
            if not any(pending.flat):
                break
            lam = (0.5 * lam if all(pending.flat)
                   else np.where(pending, 0.5 * lam, lam))
            trial = xi + lam[..., None] * step
        if any(pending.flat) or not everyone:
            # Trials without sufficient decrease stop where they are; a
            # stopped trial's psi, v, s and z feed only rows its flag masks.
            active = active & ~pending
            xi = np.where(active[..., None], trial, xi)
        else:
            xi = trial
        z = pot.dual(v, s, z, v_t)
        psi, v, s = psi_t, v_t, s_t

    res, F, v = _residual(xi, contacts, gm, robot)
    worst = np.abs(res).max(axis=-1)
    failed = ~(worst <= RESIDUAL_TOL)
    if any(failed.flat):
        raise SolverError(_not_balanced(np.max(np.asarray(worst)[failed])),
                          residual=worst, failed=failed)
    return xi, F, v, worst


def _balance(contacts, ground, robot, xi0):
    """``solve_quasistatic_velocity``, returning the twist, forces, residual
    and the largest power F.v of a loaded contact (a swing foot, at zero
    load, exerts no force)."""
    xi, F, v, res = solve_quasistatic_velocity(contacts, ground, robot, xi0)
    power = np.einsum("...j,...j->...", F, v)
    return xi, F, res, np.where(contacts.normal > 0, power, -np.inf).max(-1)


def compute_joint_torques(contacts, forces, robot):
    """Nondimensional torque about each body joint from the resolved forces.

    Joint ``j`` carries the net moment of every reaction force acting
    tail-ward of it, J^T F over the contact Jacobian, normalized by
    mu * m * g * BL.  Contacts ahead of a joint enter its sum as exact
    zeros.
    """
    terms = contacts.jac * forces[..., None, :, :]
    scale = robot.friction * robot.weight * robot.body_length
    # x + y, as .sum(axis=-1) adds them, without its slow length-2 reduction
    return (terms[..., 0] + terms[..., 1]).sum(axis=-1) / scale


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


def default_initial_pose(robot):
    """Head-tip pose placing the (straight) body center at the origin."""
    return np.array([robot.body_length / 2.0, 0.0, 0.0])


@dataclass
class Trial:
    """What one trial of a lock-step batch keeps for itself: its body phase
    offset, terrain, seed and per-cycle controller (see ``simulate_trial``
    for each)."""

    phi: float
    terrain: TerrainProfile
    seed: int = 0
    controller: object = None


def _trial_error(err, trials, shape, where):
    """The batch error ``err`` as the error of its first failing trial,
    prefixed by ``where`` and, in a batch, by that trial's index, phase
    offset and terrain."""
    i = 0 if err.failed is None else int(np.flatnonzero(err.failed)[0])
    if shape:
        t = trials[i]
        where = (f"trial {i} (phi {t.phi:.6g}, terrain {t.terrain.label}), "
                 f"{where}")
    if isinstance(err, SolverError):
        res = float(np.reshape(err.residual, -1)[i])
        return SolverError(f"{where}: {_not_balanced(res)}", residual=res)
    return type(err)(f"{where}: {err}")


def _integrate(trials, shape, params, n_cycles, robot, ground, load_cfg,
               steps_per_cycle, clamp_limit, blend_frac):
    """Advance ``trials`` in lock-step over leading batch ``shape`` (``()``
    for one trial alone), each at its own phase offset of the shared gait
    ``params``.  Returns one TrialRecord per trial; the first
    ``SolverError``/``DegenerateSupportError`` ends the batch (see
    ``_trial_error``).

    The kernel state (pose, warm-start twist, the cycle's joint angles and
    rates) has the batch ``shape``; every record array has one row per
    trial, into which a solo trial's kernel outputs broadcast.  One load
    pipeline over the trials' generators turns each finished cycle's
    torques into loads and medians, and the body centres are computed from
    the recorded poses and joint angles once the last step is taken.
    """
    robot = robot or RobotModel()
    ground = ground or GroundModel()
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be >= 1, got {n_cycles}")
    spc = steps_per_cycle
    n_steps = n_cycles * spc
    n = len(trials)
    omega = params.frequency
    dt = TWO_PI / omega / spc
    blend = blend_groups([t.terrain for t in trials])
    waves = [BodyWave(replace(params, body_phase=t.phi),
                      clamp_limit=clamp_limit, blend_frac=blend_frac)
             for t in trials]
    filt = percept.OnlineLoadPipeline(
        load_cfg or percept.LoadPipelineConfig(),
        [np.random.default_rng(t.seed) for t in trials])

    pose = np.broadcast_to(default_initial_pose(robot), shape + (3,))
    xi_prev = None
    max_residual, max_power = np.zeros(n), np.full(n, -np.inf)
    poses = np.empty((n, n_steps + 1, 3))
    joint_angles = np.empty((n, n_steps + 1, 3))   # and the final angles
    torques = np.empty((n, n_steps, 3))
    loads = np.empty((n, n_steps, 3))
    cycle_median = np.empty((n, n_cycles, 3))
    cycle_phi = np.empty((n, n_cycles))

    for k in range(n_steps):
        c, j = divmod(k, spc)
        if j == 0:
            # A wave changes only at cycle boundaries, so the whole cycle's
            # angles and rates are known in advance: row 2j is step j, row
            # 2j + 1 its midpoint.
            ts = np.arange(k, k + spc) * dt
            ts = np.stack([ts, ts + 0.5 * dt], axis=-1).reshape(-1)
            angles, rates = zip(*(w.angles_and_rates(ts) for w in waves))
            angles = np.reshape(angles, shape + (2 * spc, 3))
            rates = np.reshape(rates, shape + (2 * spc, 3))
        t = k * dt
        where = f"cycle {c}, step {j}"
        alphas = angles[..., 2 * j, :]
        try:
            contacts = build_contacts(pose, alphas, rates[..., 2 * j, :],
                                      (omega * t) % TWO_PI, params, robot,
                                      blend)
            xi, F, res, power = _balance(contacts, ground, robot, xi_prev)

            # Midpoint rule: re-balance at the half step so the pose update
            # is second-order accurate in dt.
            where += " (midpoint)"
            contacts_m = build_contacts(
                pose + 0.5 * dt * xi, angles[..., 2 * j + 1, :],
                rates[..., 2 * j + 1, :], (omega * (t + 0.5 * dt)) % TWO_PI,
                params, robot, blend)
            xi_m, _, res_m, power_m = _balance(contacts_m, ground, robot, xi)
        except (SolverError, DegenerateSupportError) as err:
            raise _trial_error(err, trials, shape, where) from err

        poses[:, k] = pose
        joint_angles[:, k] = alphas
        torques[:, k] = compute_joint_torques(contacts, F, robot)
        max_residual = np.maximum(max_residual, np.maximum(res, res_m))
        max_power = np.maximum(max_power, np.maximum(power, power_m))
        pose = pose + dt * xi_m
        xi_prev = xi_m

        if j == spc - 1:
            raw = filt.push_raw(torques[:, c * spc:k + 1])
            loads[:, c * spc:k + 1] = raw
            cycle_median[:, c] = filt.cycle_median(raw)
            for i, (trial, wave) in enumerate(zip(trials, waves)):
                cycle_phi[i, c] = wave.phi
                if trial.controller is not None and c < n_cycles - 1:
                    wave.set_phase(trial.controller(cycle_median[i, c, 1]),
                                   omega * (t + dt))

    poses[:, n_steps] = pose
    joint_angles[:, n_steps] = np.reshape(
        [w.angles_and_rates(n_steps * dt)[0] for w in waves], pose.shape)
    # One call per trial holds its temporaries to one trial's size.
    centers = np.stack([body_center(p, a, robot)
                        for p, a in zip(poses, joint_angles)])
    speed = (centers[:, spc::spc, 0]
             - centers[:, :n_steps:spc, 0]) / robot.body_length
    return [
        TrialRecord(
            times=np.arange(n_steps) * dt, poses=poses[i], centers=centers[i],
            joint_angles=joint_angles[i, :n_steps], torques=torques[i],
            loads=loads[i],
            cycle_speed_blc=speed[i], cycle_median_load=cycle_median[i],
            cycle_phi=cycle_phi[i], steps_per_cycle=spc, seed=trial.seed,
            max_residual=float(max_residual[i]),
            max_power=float(max_power[i]), clamp_events=wave.clamp_events,
        )
        for i, (trial, wave) in enumerate(zip(trials, waves))]


def simulate_trials(trials, n_cycles, params, robot=None, ground=None,
                    steps_per_cycle=STEPS_PER_CYCLE, load_cfg=None,
                    clamp_limit=BODY_JOINT_LIMIT, blend_frac=BLEND_FRAC):
    """Run independent ``Trial``s in lock-step, one batch axis over them.

    The gait ``params`` (and with it the clock), robot, ground, step count,
    load pipeline configuration, joint clamp and phase blend are shared;
    each trial runs the gait at its own phase offset ``phi`` in place of
    ``params.body_phase``, and keeps its own terrain, seed, generator and
    controller (called at the shared cycle boundaries).
    Returns one TrialRecord per trial, in order, equal bit for bit to
    ``simulate_trial`` of that trial alone.  A failing trial ends the
    batch: its ``SolverError``/``DegenerateSupportError`` is raised, naming
    its index in the batch, phase offset, terrain, cycle and step.
    """
    trials = list(trials)
    return _integrate(trials, (len(trials),), params, n_cycles, robot, ground,
                      load_cfg, steps_per_cycle, clamp_limit, blend_frac)


def simulate_trial(params, terrain, n_cycles, seed=0, robot=None, ground=None,
                   steps_per_cycle=STEPS_PER_CYCLE, controller=None,
                   load_cfg=None, rho_override=None,
                   clamp_limit=BODY_JOINT_LIMIT, blend_frac=BLEND_FRAC):
    """Run ``n_cycles`` gait cycles and record the full trial: the batch of
    ``simulate_trials`` of shape ``()``.

    ``seed`` seeds the trial's sensor-noise generator, and ``load_cfg``
    (default ``LoadPipelineConfig()``) configures its load pipeline.
    ``controller``, when given, is called once per cycle boundary with that
    cycle's median lower-joint load and must return the phase offset to
    command for the next cycle.  ``rho_override``, when given, runs the
    trial on constant-depth terrain at ``rho_override`` * 40 mm in place of
    ``terrain``, whose blend ratio it is; a ratio outside [0, 1] raises a
    ``ValueError`` before the first step.  It is kept for callers that
    name it, such as perfbench's tracer.  Identical inputs and seed
    reproduce the record bit for bit.  A failed solve raises
    ``SolverError``, and a step with no supporting contact
    ``DegenerateSupportError``, naming its cycle and step.
    """
    if rho_override is not None:
        terrain = TerrainProfile.constant(MAX_DEPTH_MM * rho_override)
    (rec,) = _integrate([Trial(params.body_phase, terrain, seed, controller)],
                        (), params, n_cycles, robot, ground, load_cfg,
                        steps_per_cycle, clamp_limit, blend_frac)
    return rec
