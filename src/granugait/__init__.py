"""Quasi-static gait simulator and adaptive phase controller for a
lizard-like quadruped on granular media of varying depth."""

__version__ = "0.1.0"

from .gait import (  # noqa: F401
    BodyWave, GaitParams, LegId, optimal_phase_for_depth,
)
from .model import (  # noqa: F401
    GroundModel, RobotModel, TerrainProfile, blend_ratio,
)
from .sim import (  # noqa: F401
    Trial, TrialRecord, simulate_trial, simulate_trials,
    solve_quasistatic_velocity,
)
from .percept import (  # noqa: F401
    DepthClassifier, LabeledFeature, LoadPipelineConfig, add_sensor_noise,
    evaluate, knn_classify, knn_train, lowpass, rectify, torque_to_load,
)
from .control import (  # noqa: F401
    ControllerParams, ControllerState, PhaseController, calibrate_tau0,
    fixed_point, update_phase,
)
from .config import RunConfig  # noqa: F401
