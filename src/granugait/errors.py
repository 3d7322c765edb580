"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for simulator-specific failures."""


class SolverError(SimulationError):
    """Quasi-static balance solver failed to converge.

    Carries the last residual (nondimensional inf-norm) for diagnostics.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateSupportError(SimulationError):
    """No ground contact available to support the robot."""


class CalibrationError(SimulationError):
    """Load calibration produced inconsistent values (air load >= terrain load)."""


class ControllerStateError(SimulationError):
    """Controller used before calibration supplied a load setpoint."""


class ConfigError(SimulationError):
    """Experiment configuration value out of range; message names the offending key."""
