"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for simulator-specific failures.

    Any of them aborts its experiment, and the command line exits 2.  A
    kernel's error for a batch of trials marks the ones it concerns in
    ``failed``, a boolean array over the batch (None means every trial);
    the integrator re-raises it as the first failing trial's own error.
    """

    def __init__(self, message, failed=None):
        super().__init__(message)
        self.failed = failed


class SolverError(SimulationError):
    """Quasi-static balance solver failed to converge.

    Carries the last residual (nondimensional inf-norm) for diagnostics,
    one per trial for a batch.
    """

    def __init__(self, message, residual=None, failed=None):
        super().__init__(message, failed)
        self.residual = residual


class DegenerateSupportError(SimulationError):
    """No ground contact available to support the robot."""


class CalibrationError(SimulationError):
    """Load calibration produced inconsistent values (air load >= terrain load)."""


class ControllerStateError(SimulationError):
    """Controller used before calibration supplied a load setpoint."""


class ConfigError(SimulationError):
    """Experiment configuration value out of range; message names the offending key."""
