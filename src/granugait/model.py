"""Robot geometry, terrain profiles, and the ground-reaction coefficients.

Ground reaction on each contacting element is a depth-dependent linear
combination of two limiting force laws: dry Coulomb friction (rigid flat
ground) and anisotropic velocity-proportional drag standing in for granular
resistive forces (deep media).  Drag anisotropy (perpendicular > parallel)
is what lets an undulating body generate net thrust in the granular limit.
This module holds the law's coefficients (``GroundModel``) and its depth
blend (``blend_ratio``); the law itself is ``sim.contact_forces``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81  # m/s^2

#: Deepest bead depth tested; the blend reaches the pure-drag limit here.
MAX_DEPTH_MM = 40.0


@dataclass(frozen=True)
class RobotModel:
    """Planar four-segment body with shoulder-mounted point feet.

    Segment 0 is the head and segment 3 the tail.  The fore shoulders sit
    ``fore_along`` m behind the head end of segment 1 and the hind
    shoulders ``hind_along`` m behind that of segment 3, the left ones
    ``leg_lateral`` m to the robot's left and the right ones mirroring
    them.  The default offsets place the fore feet near the middle of
    segment 1 and the hind feet at the tail joint, which spreads the
    flat-ground reaction moments evenly over the three body joints.
    """

    n_segments: int = 4
    segment_length: float = 0.1125   # m; body length BL = 0.45 m
    mass: float = 0.6                # kg
    friction: float = 0.3            # Coulomb coefficient
    belly_elements_per_segment: int = 8
    belly_weight_frac: float = 0.15  # weight share on the belly on rigid ground
    foot_gm_weight_frac: float = 0.06  # weight left to the feet when immersed
    fore_along: float = 0.09         # m, fore shoulders along segment 1
    hind_along: float = 0.0          # m, hind shoulders along segment 3
    leg_lateral: float = 0.02        # m, left shoulders; right ones mirror

    def __post_init__(self):
        if self.n_segments != 4:
            raise ValueError("the body model is fixed at four segments")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not self.friction > 0:
            raise ValueError(f"friction must be positive, got {self.friction}")
        if not self.segment_length > 0:
            raise ValueError(
                f"segment_length must be positive, got {self.segment_length}")
        if self.belly_elements_per_segment < 2:
            raise ValueError("belly_elements_per_segment must be at least 2, "
                             f"got {self.belly_elements_per_segment}")
        if not 0 <= self.belly_weight_frac < 1:
            raise ValueError("belly_weight_frac must lie in [0, 1), "
                             f"got {self.belly_weight_frac}")
        if not 0 <= self.foot_gm_weight_frac < 1 - self.belly_weight_frac:
            raise ValueError("foot_gm_weight_frac must lie in "
                             "[0, 1 - belly_weight_frac), "
                             f"got {self.foot_gm_weight_frac}")
        # shoulders sit on their segment
        for name in ("fore_along", "hind_along"):
            if not 0 <= getattr(self, name) <= self.segment_length:
                raise ValueError(f"{name} must lie in [0, segment_length], "
                                 f"got {getattr(self, name)}")

    @property
    def body_length(self):
        return self.n_segments * self.segment_length

    @property
    def weight(self):
        return self.mass * GRAVITY

    def mirrored(self):
        """Same robot with left/right leg geometry swapped."""
        return dataclasses.replace(self, leg_lateral=-self.leg_lateral)


@dataclass(frozen=True)
class GroundModel:
    """Coefficients of the blended reaction-force law.

    ``rft_par``/``rft_perp`` are per-element drag coefficients (N*s/m) along
    and across an element's long axis; anisotropy requires perp > par > 0.
    ``slip_eps`` regularizes the Coulomb direction at zero slip.
    """

    rft_par: float = 1.5
    rft_perp: float = 3.75
    slip_eps: float = 1e-4

    def __post_init__(self):
        if not 0 < self.rft_par < self.rft_perp:
            raise ValueError("drag anisotropy requires rft_perp > rft_par > 0, "
                             f"got rft_par = {self.rft_par}, "
                             f"rft_perp = {self.rft_perp}")
        if not self.slip_eps > 0:
            raise ValueError(f"slip_eps must be positive, got {self.slip_eps}")


def blend_ratio(d):
    """Granular-drag fraction of the force blend at bead depth ``d`` (mm),
    a scalar or an array.

    0 at flat ground (pure Coulomb), 1 at 40 mm and beyond (pure drag).
    """
    d = np.asarray(d, dtype=float)
    if not np.all(d >= 0):
        raise ValueError("depth must be nonnegative, got "
                         f"{np.min(d[~(d >= 0)]):g} mm")
    return np.minimum(d / MAX_DEPTH_MM, 1.0)


def depth_law(x, x_start, ramp_length, depth_mm):
    """Bead depth (mm) at arena x (m); the parameters broadcast against x."""
    u = (np.asarray(x, dtype=float) - x_start) / ramp_length
    # clip to [0, 1]; np.clip's Python wrapper costs more than these two
    return np.minimum(np.maximum(u, 0.0), 1.0) * depth_mm


@dataclass(frozen=True)
class TerrainProfile:
    """Bead depth (mm) at arena x (m) by ``depth_law``: flat up to
    ``x_start``, then a linear rise to ``depth_mm`` over ``ramp_length``.

    A terrain of uniform depth has ``x_start = -inf``.  Construction
    rejects parameters outside the model's range, naming the terrain.
    """

    label: str
    depth_mm: float
    x_start: float = -math.inf
    ramp_length: float = 1.0

    def __post_init__(self):
        for ok, what in [
            (0 <= self.depth_mm <= MAX_DEPTH_MM,
             f"depth {self.depth_mm} mm outside [0, {MAX_DEPTH_MM:g}]"),
            (-math.inf <= self.x_start < math.inf,
             f"x_start {self.x_start} m is neither finite nor -inf"),
            (0 < self.ramp_length < math.inf,
             f"ramp_length {self.ramp_length} m is not positive and finite"),
        ]:
            if not ok:
                raise ValueError(f"terrain {self.label}: {what}")

    @property
    def law(self):  # the parameters of ``depth_law``, in order
        return self.x_start, self.ramp_length, self.depth_mm

    def depth_at(self, x):
        return depth_law(x, *self.law)

    @staticmethod
    def flat():
        return TerrainProfile("flat", 0.0)

    @staticmethod
    def constant(depth_mm):
        return TerrainProfile(f"constant-{depth_mm}mm", depth_mm)

    @staticmethod
    def ramp(x_start, ramp_length, depth_mm=MAX_DEPTH_MM):
        """Flat, then a linear rise to ``depth_mm`` over ``ramp_length`` m."""
        return TerrainProfile(f"ramp-{x_start}m-{ramp_length}m-{depth_mm}mm",
                              depth_mm, x_start, ramp_length)
