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
from .gait import BLEND_FRAC, BODY_JOINT_LIMIT, GaitParams
from .model import MAX_DEPTH_MM, GroundModel, RobotModel
from .percept import DEPTH_CLASSES, LoadPipelineConfig
from .control import ControllerParams
from .sim import STEPS_PER_CYCLE

DEFAULT_PHI_GRID = (0.0, -math.pi / 12, -math.pi / 6, -math.pi / 4,
                    -math.pi / 3, -5 * math.pi / 12, -math.pi / 2)

#: The solver's terms are products of at most three physical scales (SI
#: units) and sums of a few dozen such products, so with every scale below
#: this bound, and the divisors above its inverse, they stay finite.
SOLVER_SCALE = 1e100


@dataclass
class RunConfig:
    """Every experiment setting.  A key that feeds a component (robot,
    ground, gait, load pipeline, controller) shares the name, default and
    range check of that component's field."""

    # [robot]
    mass: float = RobotModel.mass
    friction: float = RobotModel.friction
    segment_length: float = RobotModel.segment_length
    belly_elements_per_segment: int = RobotModel.belly_elements_per_segment
    belly_weight_frac: float = RobotModel.belly_weight_frac
    foot_gm_weight_frac: float = RobotModel.foot_gm_weight_frac
    leg_lateral: float = RobotModel.leg_lateral
    fore_along: float = RobotModel.fore_along
    hind_along: float = RobotModel.hind_along

    # [ground]
    rft_par: float = GroundModel.rft_par
    rft_perp: float = GroundModel.rft_perp
    slip_eps: float = GroundModel.slip_eps

    # [gait]
    amplitude: float = GaitParams.amplitude
    frequency: float = GaitParams.frequency
    duty: float = GaitParams.duty
    stance_offset: float = GaitParams.stance_offset
    ramp_frac: float = GaitParams.ramp_frac
    clamp_enabled: bool = True
    clamp_limit: float = BODY_JOINT_LIMIT
    blend_frac: float = BLEND_FRAC

    # [percept]
    gain: float = LoadPipelineConfig.gain
    noise_cov: float = LoadPipelineConfig.noise_cov
    bias_sd: float = LoadPipelineConfig.bias_sd
    alpha: float = LoadPipelineConfig.alpha
    order: str = LoadPipelineConfig.order
    clip: float = LoadPipelineConfig.clip

    # [control]
    b1: float = ControllerParams.b1
    k: float = ControllerParams.k
    phi0: float = ControllerParams.phi0
    phi_min: float = ControllerParams.phi_min
    phi_max: float = ControllerParams.phi_max
    calibration_phi: float = 0.0

    # [experiment]
    seed: int = 12345
    steps_per_cycle: int = STEPS_PER_CYCLE
    depths: tuple = (0.0, 20.0, 40.0)
    phi_grid: tuple = DEFAULT_PHI_GRID
    sweep_trials: int = 3
    sweep_cycles: int = 5
    rho_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    classify_trials_per_cell: int = 10
    classify_cycles: int = 5
    knn_k: int = 6
    closedloop_cycles: int = 24
    closedloop_depth: float = MAX_DEPTH_MM
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
        "gait": ("amplitude", "frequency", "duty", "stance_offset",
                 "ramp_frac", "clamp_enabled", "clamp_limit", "blend_frac"),
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
    _KEYS = frozenset(key for keys in _SECTIONS.values() for key in keys)

    # ------------------------------------------------------------------
    @classmethod
    def from_ini(cls, path):
        cfg = cls()
        # The format has no %-interpolation: a value is read as written.
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as err:
            detail = " ".join(str(err).split())    # one line
            raise ConfigError(
                f"malformed config file {path}: {detail}") from err
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
        """Raise ``ConfigError`` naming the first key out of range.

        The components check their own fields; this adds only what none of
        them owns, and requires every phase an experiment can command to be
        a valid gait phase, in [-pi/2, 0].
        """
        # inf passes every one-sided bound, so non-finite values are
        # rejected first.
        for f in fields(self):
            if isinstance(getattr(self, f.name), float):
                _require(self, f.name, math.isfinite(getattr(self, f.name)))
        # Component fields carry the names of the keys that feed them.
        try:
            self.robot()
            self.ground()
            self.load_cfg()
            self.controller_params(0.0)
            self.gait(0.0)
        except ValueError as err:
            raise ConfigError(f"config value out of range: {err}") from err
        # Scales the solver multiplies or divides by: the friction force on
        # the weight, the stiffest Coulomb contact, the drag coefficient, the
        # body length and the fastest joint-driven speed.
        robot = self.robot()
        force = self.friction * robot.weight
        speed = self.amplitude * self.frequency * robot.body_length
        for name, scale, lo in [
            ("friction * mass * g", force, 1 / SOLVER_SCALE),
            ("friction * mass * g / slip_eps", force / self.slip_eps, 0.0),
            ("rft_perp", self.rft_perp, 0.0),
            ("body length (4 * segment_length)", robot.body_length,
             1 / SOLVER_SCALE),
            ("amplitude * frequency * body length", speed, 0.0),
        ]:
            if not lo <= scale <= SOLVER_SCALE:
                raise ConfigError(
                    f"config value out of range: {name} = {scale:.3g} is "
                    f"outside the solver's range [{lo:g}, {SOLVER_SCALE:g}]")
        # the KNN trains on half of the classify dataset
        train_size = (len(DEPTH_CLASSES) * len(self.phi_grid)
                      * self.classify_trials_per_cell * self.classify_cycles
                      // 2)
        for key, ok in [
            # left shoulders on the left; the robot itself takes either
            # sign, since its mirror image negates it
            ("leg_lateral", self.leg_lateral > 0),
            ("clamp_limit", self.clamp_limit > 0),
            ("blend_frac", self.blend_frac >= 0),
            ("seed", self.seed >= 0),
            ("steps_per_cycle", self.steps_per_cycle >= 10),
            ("depths", len(self.depths) > 0
             and all(0 <= d <= MAX_DEPTH_MM for d in self.depths)),
            ("phi_grid", len(self.phi_grid) > 0
             and all(self.phi_min - 1e-9 <= p <= self.phi_max + 1e-9
                     for p in self.phi_grid)),
            ("rho_grid", len(self.rho_grid) > 0
             and all(0 <= r <= 1 for r in self.rho_grid)),
            ("sweep_trials", self.sweep_trials >= 1),
            ("sweep_cycles", self.sweep_cycles >= 1),
            # a virtual trial's index is one 32-bit word of its seed
            ("classify_trials_per_cell",
             2 <= self.classify_trials_per_cell <= 2**32),
            ("classify_cycles", self.classify_cycles >= 1),
            ("knn_k", 1 <= self.knn_k <= train_size),
            ("closedloop_cycles", self.closedloop_cycles >= 1),
            ("closedloop_depth", 0 <= self.closedloop_depth <= MAX_DEPTH_MM),
            ("closedloop_phi_init",
             self.phi_min <= self.closedloop_phi_init <= self.phi_max),
            ("transition_cycles", self.transition_cycles >= 1),
            ("transition_flat_length", self.transition_flat_length >= 0),
            ("transition_ramp_length", self.transition_ramp_length > 0),
        ]:
            _require(self, key, ok)
        # each grid point is one cell of its experiment
        for key in ("depths", "phi_grid", "rho_grid"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise ConfigError(
                    f"config value repeats an entry: {key} = {values!r}")
        # The bounds first, then the phases held to them.
        phases = ([("phi_min", self.phi_min), ("phi_max", self.phi_max)]
                  + [("phi_grid", p) for p in self.phi_grid]
                  + [("calibration_phi", self.calibration_phi),
                     ("closedloop_phi_init", self.closedloop_phi_init)])
        for key, phi in phases:
            try:
                self.gait(phi)
            except ValueError as err:
                raise ConfigError(
                    f"config value out of range: {key} = {phi!r} ({err})"
                ) from err

    # ------------------------------------------------------------------
    def _component(self, cls, **given):
        """``cls`` with every field that shares a config key's name taken
        from this config, and the rest from ``given`` or the defaults."""
        own = {f.name: getattr(self, f.name) for f in fields(cls)
               if f.name in self._KEYS}
        return cls(**{**own, **given})

    def robot(self):
        return self._component(RobotModel)

    def ground(self):
        return self._component(GroundModel)

    def gait(self, phi):
        return self._component(GaitParams, body_phase=phi)

    def load_cfg(self, noise_cov=None, bias=None):
        given = {} if noise_cov is None else {"noise_cov": noise_cov}
        return self._component(LoadPipelineConfig, bias=bias, **given)

    def controller_params(self, tau0):
        return self._component(ControllerParams, tau0=tau0)

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


def _require(cfg, key, ok):
    if not ok:
        raise ConfigError(
            f"config value out of range: {key} = {getattr(cfg, key)!r}")


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
