"""Linear per-cycle phase-offset feedback control.

Once per gait cycle the commanded body phase offset is nudged by a term
proportional to the deviation of the cycle's median load from a calibrated
midpoint, plus a weak spring toward a central phase, and clamped to the
tested gait range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CalibrationError, ControllerStateError


@dataclass(frozen=True)
class ControllerParams:
    b1: float = -0.004            # rad per load-%
    k: float = 0.005              # per cycle, pull toward phi0
    phi0: float = -math.pi / 6    # rad, center of the desired phase range
    tau0: float | None = None     # load %, set by calibration
    phi_min: float = -math.pi / 2
    phi_max: float = 0.0

    def __post_init__(self):
        if not 0 < self.k < 1:
            raise ValueError(f"k must lie in (0, 1), got {self.k}")
        if not self.phi_min < self.phi_max:
            raise ValueError(f"phi_min must lie below phi_max, got "
                             f"{self.phi_min} >= {self.phi_max}")

    def clamp(self, phi):
        return min(max(phi, self.phi_min), self.phi_max)


@dataclass
class ControllerState:
    phi: float
    cycle: int = 0
    history: list = field(default_factory=list)   # (phi_before, tau_m) pairs


def update_phase(state, tau_m, params):
    """One feedback step; mutates ``state`` and returns the new phase."""
    if params.tau0 is None:
        raise ControllerStateError("controller is uncalibrated (tau0 unset)")
    state.history.append((state.phi, tau_m))
    phi_new = state.phi + params.b1 * (tau_m - params.tau0) \
        - params.k * (state.phi - params.phi0)
    phi_new = params.clamp(phi_new)
    state.phi = phi_new
    state.cycle += 1
    return phi_new


def fixed_point(tau_m, params):
    """Steady-state phase for a constant median load (clamped)."""
    if params.k == 0:
        raise ValueError("fixed point undefined for k = 0")
    if params.tau0 is None:
        raise ControllerStateError("controller is uncalibrated (tau0 unset)")
    phi_ss = params.phi0 + (params.b1 / params.k) * (tau_m - params.tau0)
    return params.clamp(phi_ss)


def calibrate_tau0(air_load, max_terrain_load):
    """Midpoint of the suspended-in-air and deepest-terrain cycle medians."""
    if air_load >= max_terrain_load:
        raise CalibrationError(
            f"air load {air_load} >= terrain load {max_terrain_load}; "
            "load pipeline looks broken"
        )
    return 0.5 * (air_load + max_terrain_load)


class PhaseController:
    """Callable per-cycle hook for the trial runner.

    Consumes the lower-joint median load and returns the phase to command
    for the next cycle.
    """

    def __init__(self, params: ControllerParams, phi_init):
        self.params = params
        self.state = ControllerState(phi=params.clamp(phi_init))

    def __call__(self, tau_m_lower):
        return update_phase(self.state, float(tau_m_lower), self.params)
