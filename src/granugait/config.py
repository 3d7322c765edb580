"""Experiment configuration: defaults, INI-file loading, validation.

One flat key-value file with a section per module drives a full experiment;
the resolved configuration is echoed into every run manifest so outputs are
self-describing.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .gait import BODY_JOINT_LIMIT, GaitParams
from .model import GroundModel, RobotModel
from .percept import (
    DEPTH_CLASSES, LOWPASS_THEN_RECTIFY, RECTIFY_THEN_LOWPASS,
    LoadPipelineConfig,
)
from .control import ControllerParams

DEFAULT_PHI_GRID = (0.0, -math.pi / 12, -math.pi / 6, -math.pi / 4,
                    -math.pi / 3, -5 * math.pi / 12, -math.pi / 2)

EXPERIMENT_KINDS = ("sweep", "model-torque", "classify", "closedloop",
                    "transition", "calibrate")


@dataclass
class RunConfig:
    # [robot]
    mass: float = 0.6
    friction: float = 0.3
    segment_length: float = 0.1125
    belly_elements_per_segment: int = 8
    belly_weight_frac: float = 0.15
    foot_gm_weight_frac: float = 0.06
    leg_lateral: float = 0.02
    fore_along: float = 0.09
    hind_along: float = 0.0

    # [ground]
    rft_par: float = 1.5
    rft_perp: float = 3.75
    slip_eps: float = 1e-4

    # [gait]
    amplitude: float = 1.0
    frequency: float = 1.0
    duty: float = 0.5
    beta_land: float = math.pi / 3
    beta_lift: float = 0.0
    stance_offset: float = -math.pi / 4
    ramp_frac: float = 0.05
    clamp_enabled: bool = True
    clamp_limit: float = BODY_JOINT_LIMIT
    blend_frac: float = 0.1

    # [percept]
    gain: float = 175.0
    noise_cov: float = 0.13
    bias_sd: float = 5.0
    alpha: float = 0.45
    order: str = LOWPASS_THEN_RECTIFY
    clip: float = 100.0

    # [control]
    b1: float = -0.004
    k: float = 0.005
    phi0: float = -math.pi / 6
    phi_min: float = -math.pi / 2
    phi_max: float = 0.0
    calibration_phi: float = 0.0

    # [experiment]
    seed: int = 12345
    steps_per_cycle: int = 100
    depths: tuple = (0.0, 20.0, 40.0)
    phi_grid: tuple = DEFAULT_PHI_GRID
    sweep_trials: int = 3
    sweep_cycles: int = 5
    rho_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    classify_trials_per_cell: int = 10
    classify_cycles: int = 5
    knn_k: int = 6
    closedloop_cycles: int = 24
    closedloop_depth: float = 40.0
    closedloop_phi_init: float = 0.0
    transition_cycles: int = 25
    transition_flat_length: float = 0.02
    transition_ramp_length: float = 0.45

    _SECTIONS = {
        "robot": ("mass", "friction", "segment_length",
                  "belly_elements_per_segment", "belly_weight_frac",
                  "foot_gm_weight_frac", "leg_lateral", "fore_along",
                  "hind_along"),
        "ground": ("rft_par", "rft_perp", "slip_eps"),
        "gait": ("amplitude", "frequency", "duty", "beta_land", "beta_lift",
                 "stance_offset", "ramp_frac", "clamp_enabled", "clamp_limit",
                 "blend_frac"),
        "percept": ("gain", "noise_cov", "bias_sd", "alpha", "order", "clip"),
        "control": ("b1", "k", "phi0", "phi_min", "phi_max",
                    "calibration_phi"),
        "experiment": ("seed", "steps_per_cycle", "depths", "phi_grid",
                       "sweep_trials", "sweep_cycles", "rho_grid",
                       "classify_trials_per_cell", "classify_cycles", "knn_k",
                       "closedloop_cycles", "closedloop_depth",
                       "closedloop_phi_init", "transition_cycles",
                       "transition_flat_length", "transition_ramp_length"),
    }

    # ------------------------------------------------------------------
    @classmethod
    def from_ini(cls, path):
        cfg = cls()
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        defaults = {f.name: getattr(cfg, f.name) for f in fields(cls)}
        for section in parser.sections():
            if section not in cls._SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in cls._SECTIONS[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
                setattr(cfg, key, _convert(key, raw, defaults[key]))
        cfg.validate()
        return cfg

    def validate(self):
        # the KNN trains on half of the classify dataset
        train_size = (len(DEPTH_CLASSES) * len(self.phi_grid)
                      * self.classify_trials_per_cell * self.classify_cycles
                      // 2)
        checks = [
            ("mass", self.mass > 0),
            ("friction", self.friction > 0),
            ("segment_length", self.segment_length > 0),
            ("belly_elements_per_segment", self.belly_elements_per_segment >= 2),
            ("belly_weight_frac", 0 <= self.belly_weight_frac < 1),
            ("foot_gm_weight_frac",
             0 <= self.foot_gm_weight_frac < 1 - self.belly_weight_frac),
            # shoulders sit on their segment, the left ones on the left
            ("leg_lateral", self.leg_lateral > 0),
            ("fore_along", 0 <= self.fore_along <= self.segment_length),
            ("hind_along", 0 <= self.hind_along <= self.segment_length),
            ("rft_par", 0 < self.rft_par < self.rft_perp),
            ("slip_eps", self.slip_eps > 0),
            ("amplitude", self.amplitude > 0),
            ("frequency", self.frequency > 0),
            ("duty", 0 < self.duty <= 1),
            ("beta_land", 0 < self.beta_land <= math.pi / 2),
            ("ramp_frac", 0 <= self.ramp_frac < 0.5),
            ("clamp_limit", self.clamp_limit > 0),
            ("blend_frac", self.blend_frac >= 0),
            ("gain", self.gain > 0),
            ("noise_cov", self.noise_cov >= 0),
            ("bias_sd", self.bias_sd >= 0),
            ("alpha", 0 < self.alpha <= 1),
            ("order", self.order in (LOWPASS_THEN_RECTIFY, RECTIFY_THEN_LOWPASS)),
            ("clip", self.clip > 0),
            ("k", 0 < self.k < 1),
            ("phi_min", self.phi_min < self.phi_max),
            ("seed", self.seed >= 0),
            ("steps_per_cycle", self.steps_per_cycle >= 10),
            ("depths", all(0 <= d <= 40 for d in self.depths)),
            ("phi_grid", len(self.phi_grid) > 0
             and all(self.phi_min - 1e-9 <= p <= self.phi_max + 1e-9
                     for p in self.phi_grid)),
            ("rho_grid", all(0 <= r <= 1 for r in self.rho_grid)),
            ("sweep_trials", self.sweep_trials >= 1),
            ("sweep_cycles", self.sweep_cycles >= 1),
            ("classify_trials_per_cell", self.classify_trials_per_cell >= 2),
            ("classify_cycles", self.classify_cycles >= 1),
            ("knn_k", 1 <= self.knn_k <= train_size),
            ("closedloop_cycles", self.closedloop_cycles >= 1),
            ("closedloop_depth", 0 <= self.closedloop_depth <= 40),
            ("closedloop_phi_init",
             self.phi_min <= self.closedloop_phi_init <= self.phi_max),
            ("transition_cycles", self.transition_cycles >= 1),
            ("transition_flat_length", self.transition_flat_length >= 0),
            ("transition_ramp_length", self.transition_ramp_length > 0),
        ]
        # inf passes every one-sided bound above, so non-finite values are
        # rejected first, naming the offending key.
        checks = [(f.name, math.isfinite(getattr(self, f.name)))
                  for f in fields(self)
                  if isinstance(getattr(self, f.name), float)] + checks
        for key, ok in checks:
            if not ok:
                raise ConfigError(
                    f"config value out of range: {key} = {getattr(self, key)!r}"
                )

    # ------------------------------------------------------------------
    def robot(self):
        return RobotModel(
            mass=self.mass, friction=self.friction,
            segment_length=self.segment_length,
            belly_elements_per_segment=self.belly_elements_per_segment,
            belly_weight_frac=self.belly_weight_frac,
            foot_gm_weight_frac=self.foot_gm_weight_frac,
            fore_along=self.fore_along, hind_along=self.hind_along,
            leg_lateral=self.leg_lateral,
        )

    def ground(self):
        return GroundModel(self.rft_par, self.rft_perp, self.slip_eps)

    def gait(self, phi):
        return GaitParams(
            amplitude=self.amplitude, frequency=self.frequency,
            body_phase=phi, beta_land=self.beta_land,
            beta_lift=self.beta_lift, duty=self.duty,
            stance_offset=self.stance_offset, ramp_frac=self.ramp_frac,
        )

    def load_cfg(self, noise_cov=None, bias=None):
        cov = self.noise_cov if noise_cov is None else noise_cov
        return LoadPipelineConfig(gain=self.gain, clip=self.clip,
                                  noise_cov=cov, bias_sd=self.bias_sd,
                                  bias=bias, alpha=self.alpha,
                                  order=self.order)

    def controller_params(self, tau0):
        return ControllerParams(b1=self.b1, k=self.k, phi0=self.phi0,
                                tau0=tau0, phi_min=self.phi_min,
                                phi_max=self.phi_max)

    @property
    def effective_clamp(self):
        return self.clamp_limit if self.clamp_enabled else None

    def to_text(self):
        """INI echo of every resolved value, for run manifests."""
        parser = configparser.ConfigParser()
        for section, keys in self._SECTIONS.items():
            parser[section] = {}
            for key in keys:
                val = getattr(self, key)
                if isinstance(val, tuple):
                    val = ", ".join(f"{v:.12g}" for v in val)
                parser[section][key] = str(val)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


def _convert(key, raw, default):
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(float(x) for x in raw.split(",") if x.strip())
        return raw
    except ValueError as err:
        raise ConfigError(f"cannot parse config key '{key}' = {raw!r}") from err
