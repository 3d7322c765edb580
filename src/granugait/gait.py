"""Body-wave and leg gait generation.

The body carries three actuated bending joints driven by phase-shifted
cosines; a negative phase offset between consecutive joints produces a
head-to-tail traveling wave, zero produces a standing wave.  The four legs
execute a trot: diagonal pairs share stance windows offset by half a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi

#: Hardware bending range is pi/2 total per body joint.
BODY_JOINT_LIMIT = math.pi / 4

#: Fraction of a cycle over which a phase switch blends into the new wave.
BLEND_FRAC = 0.1


class LegId(Enum):
    LF = "LF"
    RF = "RF"
    LH = "LH"
    RH = "RH"


#: Diagonal pairs that share stance windows in a trot.
DIAGONAL_PAIR_A = (LegId.LF, LegId.RH)
DIAGONAL_PAIR_B = (LegId.RF, LegId.LH)


def _check_body_phase(phi):
    if not -math.pi / 2 - 1e-12 <= phi <= 1e-12:
        raise ValueError(f"body_phase must lie in [-pi/2, 0], got {phi}")


@dataclass(frozen=True)
class GaitParams:
    """Parameters that fully determine the commanded joint trajectories."""

    amplitude: float = 1.0          # rad
    frequency: float = 1.0          # rad/s
    body_phase: float = 0.0         # rad, in [-pi/2, 0]
    duty: float = 0.5               # fraction of cycle in stance
    stance_offset: float = -math.pi / 4  # rad, stance alignment to body wave
    ramp_frac: float = 0.05         # fraction of cycle over which contact ramps

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if not self.frequency > 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        _check_body_phase(self.body_phase)
        if not 0 < self.duty <= 1:
            raise ValueError(f"duty must lie in (0, 1], got {self.duty}")
        if not 0 <= self.ramp_frac < 0.5:
            raise ValueError(f"ramp_frac must lie in [0, 0.5), got {self.ramp_frac}")
        # A stance window shorter than one ramp, or a swing window shorter
        # than one, would make the contact weight jump.
        if self.ramp_frac > 0 and not (self.ramp_frac <= self.duty
                                       <= 1 - self.ramp_frac):
            raise ValueError(
                f"duty must lie in [ramp_frac, 1 - ramp_frac] = "
                f"[{self.ramp_frac}, {1 - self.ramp_frac}], got {self.duty}")


def _check_cycle_phase(t):
    if not 0 <= t < TWO_PI:
        raise ValueError(f"cycle phase must lie in [0, 2*pi), got {t}")


def _stance_start(leg, g):
    if leg in DIAGONAL_PAIR_A:
        return g.stance_offset % TWO_PI
    return (g.stance_offset + math.pi) % TWO_PI


def leg_contact_fraction(leg, t, g):
    """Ground-contact weight in [0, 1] for ``leg`` at cycle phase ``t``.

    Stance windows are half-open; the boundary instant belongs to the pair
    entering stance.  The weight ramps linearly over ``ramp_frac`` of the
    cycle at touch-down and lift-off, a trapezoid, so the solver never sees
    an impulsive contact change.
    """
    if not isinstance(leg, LegId):
        raise ValueError(f"unknown leg id {leg!r}")
    _check_cycle_phase(t)
    rel = (t - _stance_start(leg, g)) % TWO_PI
    width = g.duty * TWO_PI
    ramp = g.ramp_frac * TWO_PI
    if rel < width:
        if ramp == 0:
            return 1.0
        # min(rel / ramp, 1.0), without overflow for a subnormal ramp
        return min(rel, ramp) / ramp
    post = rel - width
    if ramp == 0 or post >= ramp:
        return 0.0
    return 1.0 - post / ramp


def optimal_phase_for_depth(d):
    """Best-performing body phase offset (rad) for bead depth ``d`` in mm.

    Linear fit through the per-depth optima; only claimed on 0..40 mm.
    """
    if not 0 <= d <= 40:
        raise ValueError(f"depth {d} mm outside the fitted range [0, 40]")
    return -(math.pi / 120.0) * d


class BodyWave:
    """Stateful body-joint command source with continuous phase switching.

    Wraps the phase-shifted cosine trajectories and, when the commanded
    phase offset changes (once per cycle under feedback control), absorbs
    the would-be jump into per-joint offsets that decay linearly over
    ``blend_frac`` of a cycle, keeping joint angles continuous.

    Commanded angles are clamped to the hardware bending range by default;
    pass ``clamp_limit=None`` to disable.
    """

    def __init__(self, params: GaitParams, clamp_limit=BODY_JOINT_LIMIT,
                 blend_frac=BLEND_FRAC):
        self.params = params
        self.phi = params.body_phase
        self.clamp_limit = clamp_limit
        self.blend_frac = blend_frac
        self.clamp_events = 0
        self._delta = np.zeros(3)
        self._blend_start_u = 0.0

    def set_phase(self, new_phi, at_u):
        """Switch the body phase offset at unwrapped wave phase ``at_u``."""
        _check_body_phase(new_phi)
        residual, _ = self._blend(at_u)
        n = np.arange(3)
        self._delta = residual + n * (self.phi - new_phi)
        self._blend_start_u = at_u
        self.phi = new_phi

    def _blend(self, u):
        """Per-joint phase offsets at unwrapped wave phase ``u`` (any shape)
        and their derivatives in ``u``; both zero once the blend window has
        passed."""
        span = self.blend_frac * TWO_PI
        if span <= 0:
            return np.zeros(np.shape(u) + (3,)), np.zeros(np.shape(u) + (3,))
        frac = np.asarray((u - self._blend_start_u) / span)[..., None]
        fresh = frac < 1.0
        return (np.where(fresh, self._delta * (1.0 - frac), 0.0),
                np.where(fresh, -self._delta / span, 0.0))

    def angles_and_rates(self, t_abs):
        """Clamped joint angles (rad) and rates (rad/s) at absolute time
        ``t_abs``; an array of times gives (..., 3) arrays."""
        g = self.params
        u = g.frequency * np.asarray(t_abs)
        n = np.arange(3)
        offsets, offset_rates = self._blend(u)
        arg = u[..., None] + n * self.phi + offsets
        darg_du = 1.0 + offset_rates
        raw = g.amplitude * np.cos(arg)
        raw_rate = -g.amplitude * np.sin(arg) * darg_du * g.frequency
        if self.clamp_limit is None:
            return raw, raw_rate
        clamped = np.abs(raw) > self.clamp_limit
        if clamped.any():
            self.clamp_events += int(clamped.sum())
        angles = np.clip(raw, -self.clamp_limit, self.clamp_limit)
        # The joint decelerates smoothly into the stop: rates fade to zero
        # over a narrow window before saturation (C1 gate) instead of
        # jumping, so the quasi-static velocity field stays continuous in
        # time and pose integration converges cleanly under dt refinement.
        window = 0.1 * self.clamp_limit
        s = np.clip((self.clamp_limit - np.abs(raw)) / window, 0.0, 1.0)
        rates = raw_rate * s * s * (3.0 - 2.0 * s)
        return angles, rates
