"""Experiment runner: the five study protocols plus load calibration.

Every experiment writes deterministic CSV files (fixed-precision, sorted
rows) and a run manifest echoing the resolved configuration, so a rerun
with the same config file and seed reproduces the outputs byte for byte.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__, control, percept
from .config import RunConfig
from .errors import SolverError
from .gait import optimal_phase_for_depth
from .model import TerrainProfile
from .percept import DEPTH_CLASSES, LabeledFeature
from .sim import JOINT_NAMES, simulate_trial

TRANSITION_MODES = ("adaptive", "fixed_phi_0", "fixed_phi_-pi/3")


def _subseed(master, *idx):
    ss = np.random.SeedSequence([int(master)] + [int(i) for i in idx])
    return int(ss.generate_state(1)[0])


def _fmt(x):
    return f"{x:.9f}"


def _simulate(cfg, phi, terrain, n_cycles, seed, **kw):
    """``simulate_trial`` of gait ``phi`` with the robot, ground, step
    count, joint clamp and phase blend of ``cfg``; every trial an
    experiment runs goes through here."""
    return simulate_trial(
        cfg.gait(phi), terrain, n_cycles=n_cycles, seed=seed,
        robot=cfg.robot(), ground=cfg.ground(),
        steps_per_cycle=cfg.steps_per_cycle, clamp_limit=cfg.effective_clamp,
        blend_frac=cfg.blend_frac, **kw)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def write_manifest(out_dir, cfg, kind, extra=None):
    path = os.path.join(out_dir, "run_manifest.txt")
    with open(path, "w") as fh:
        fh.write(f"granugait {__version__}\n")
        fh.write(f"experiment = {kind}\n")
        fh.write(f"seed = {cfg.seed}\n")
        for key, val in (extra or {}).items():
            fh.write(f"{key} = {val}\n")
        fh.write("\n")
        fh.write(cfg.to_text())
    return path


# ---------------------------------------------------------------------------
# Calibration

@dataclass
class CalibrationResult:
    air_load: float
    max_terrain_load: float
    tau0: float


def _session_bias(cfg: RunConfig):
    """Sensor zero-drift for one experiment session.

    Drift is slow, so calibration and every trial launched in the same
    session read the sensor through the same offset.  Seeded from the
    master seed; None when the sensor model is noise-free.
    """
    if cfg.noise_cov <= 0 or cfg.bias_sd <= 0:
        return None
    rng = np.random.default_rng(_subseed(cfg.seed, 9999))
    return tuple(percept._draw_bias(cfg.bias_sd, rng))


def run_calibrate(cfg: RunConfig, out_dir=None, bias=None):
    """Two calibration trials: suspended in air and on the deepest terrain.

    Suspended, no substrate reacts on the body, so every joint load is
    exactly zero; the deep-terrain trial runs the configured calibration
    gait at 40 mm and reports the mean of its lower-joint cycle medians.
    """
    if bias is None:
        bias = _session_bias(cfg)
    air_load = 0.0
    rec = _simulate(cfg, cfg.calibration_phi, TerrainProfile.constant(40.0),
                    cfg.sweep_cycles, _subseed(cfg.seed, 9000),
                    load_cfg=cfg.load_cfg(bias=bias))
    max_load = float(rec.cycle_median_load[:, 1].mean())
    tau0 = control.calibrate_tau0(air_load, max_load)
    result = CalibrationResult(air_load, max_load, tau0)
    if out_dir is not None:
        _write_csv(os.path.join(out_dir, "calibration.csv"),
                   ["air_load_pct", "max_load_pct", "tau0_pct"],
                   [[air_load, max_load, tau0]])
        write_manifest(out_dir, cfg, "calibrate", {"tau0_pct": _fmt(tau0)})
    return result


# ---------------------------------------------------------------------------
# Sweep

@dataclass
class SweepResult:
    rows: list                     # (depth, phi, trial, cycle, speed)
    cell_means: dict               # (depth, phi) -> mean speed
    argmax_phi: dict               # depth -> best phi
    failures: list = field(default_factory=list)


def run_sweep(cfg: RunConfig, out_dir=None):
    """Speed vs body phase offset across depths; reports per-depth argmax.

    Without a controller the seed only feeds the sensor noise, which speed
    does not read, so each (depth, phi) cell is simulated once and its
    speeds are reported for every trial index.
    """
    if not cfg.phi_grid:
        raise ValueError("phi grid must be nonempty")
    rows, failures = [], []
    cell_means = {}
    for depth in cfg.depths:
        terrain = TerrainProfile.constant(depth)
        for phi in cfg.phi_grid:
            try:
                rec = _simulate(cfg, phi, terrain, cfg.sweep_cycles, 0,
                                load_cfg=cfg.load_cfg(noise_cov=0.0))
            except SolverError as err:
                failures.extend((depth, phi, trial, str(err))
                                for trial in range(cfg.sweep_trials))
                continue
            for trial in range(cfg.sweep_trials):
                for c, s in enumerate(rec.cycle_speed_blc):
                    rows.append((float(depth), float(phi), trial, c, float(s)))
            # Mean over the trial copies, to the last bit as per-trial runs.
            speeds = [rec.cycle_speed_blc.mean()] * cfg.sweep_trials
            cell_means[(depth, phi)] = float(np.mean(speeds))
    argmax_phi = {}
    for depth in cfg.depths:
        cells = {phi: m for (d, phi), m in cell_means.items() if d == depth}
        if cells:
            argmax_phi[depth] = max(cells, key=cells.get)
    result = SweepResult(rows, cell_means, argmax_phi, failures)
    if out_dir is not None:
        _write_csv(os.path.join(out_dir, "sweep.csv"),
                   ["depth_mm", "phi_rad", "trial", "cycle", "speed_blc"],
                   rows)
        _write_csv(os.path.join(out_dir, "sweep_summary.csv"),
                   ["depth_mm", "phi_rad", "mean_speed_blc"],
                   [[float(d), float(p), m]
                    for (d, p), m in sorted(cell_means.items())])
        _write_csv(os.path.join(out_dir, "sweep_argmax.csv"),
                   ["depth_mm", "best_phi_rad", "predicted_phi_rad"],
                   [[float(d), float(p), optimal_phase_for_depth(d)]
                    for d, p in sorted(argmax_phi.items())])
        if failures:
            _write_csv(os.path.join(out_dir, "sweep_failures.csv"),
                       ["depth_mm", "phi_rad", "trial", "error"], failures)
        write_manifest(out_dir, cfg, "sweep")
    return result


# ---------------------------------------------------------------------------
# Model torque

def run_model_torque(cfg: RunConfig, out_dir=None):
    """Median |tau~| per joint versus the drag/Coulomb blend ratio.

    One noise-free cycle on flat ground per (phi, ratio), with the ratio
    imposed on every belly element.
    """
    rows = []
    table = {}
    for phi in (0.0, -math.pi / 3):
        for rho in cfg.rho_grid:
            rec = _simulate(cfg, phi, TerrainProfile.flat(), 1, 0,
                            load_cfg=cfg.load_cfg(noise_cov=0.0),
                            rho_override=rho)
            medians = np.median(np.abs(rec.torques), axis=0)
            table[(phi, rho)] = medians
            for j, name in enumerate(JOINT_NAMES):
                rows.append((float(phi), float(rho), name, float(medians[j])))
    if out_dir is not None:
        _write_csv(os.path.join(out_dir, "model_torque.csv"),
                   ["phi_rad", "ratio", "joint", "median_tau_tilde"], rows)
        write_manifest(out_dir, cfg, "model-torque")
    return table


# ---------------------------------------------------------------------------
# Classifier

def generate_feature_dataset(cfg: RunConfig):
    """Synthetic (tau_m, phi, depth) features for every joint.

    The dynamics for a (depth, phi) cell are deterministic, so each cell is
    simulated once noise-free and its virtual trials differ only in the
    seeded sensor-noise draw applied to the recorded torques; one load
    pipeline call processes all of a cell's virtual trials.
    """
    features = {name: [] for name in JOINT_NAMES}
    rows = []
    depths = [d for d in DEPTH_CLASSES]
    for di, depth in enumerate(depths):
        terrain = TerrainProfile.constant(depth)
        for pi, phi in enumerate(cfg.phi_grid):
            rec = _simulate(cfg, phi, terrain, cfg.classify_cycles, 0,
                            load_cfg=cfg.load_cfg(noise_cov=0.0))
            rngs = (np.random.default_rng(_subseed(cfg.seed, 100, di, pi, trial))
                    for trial in range(cfg.classify_trials_per_cell))
            medians = percept.trial_cycle_medians(
                rec.torques, cfg.steps_per_cycle, cfg.load_cfg(), rngs)
            for trial, trial_medians in enumerate(medians.tolist()):
                for cyc, cycle_medians in enumerate(trial_medians):
                    for name, tau_m in zip(JOINT_NAMES, cycle_medians):
                        features[name].append(
                            LabeledFeature(tau_m, float(phi), depth))
                        rows.append((name, float(phi), tau_m, depth, trial, cyc))
    return features, rows


@dataclass
class ClassifierResult:
    accuracy: dict                # joint -> accuracy
    confusion: dict               # joint -> 3x3 matrix
    classifiers: dict             # joint -> DepthClassifier


def _confusion_text(confusion):
    lines = ["true\\pred " + " ".join(f"{c:>6}" for c in DEPTH_CLASSES)]
    for i, c in enumerate(DEPTH_CLASSES):
        lines.append(f"{c:>9} " + " ".join(f"{v:>6}" for v in confusion[i]))
    return "\n".join(lines) + "\n"


def run_classifier_eval(cfg: RunConfig, out_dir=None):
    """Train/evaluate one KNN per joint on a seeded 50/50 split."""
    features, rows = generate_feature_dataset(cfg)
    accuracy, confusion, classifiers = {}, {}, {}
    for name in JOINT_NAMES:
        data = features[name]
        rng = np.random.default_rng(_subseed(cfg.seed, 200))
        idx = rng.permutation(len(data))
        half = len(data) // 2
        train = [data[i] for i in idx[:half]]
        test = [data[i] for i in idx[half:]]
        clf = percept.knn_train(train, cfg.knn_k)
        mat, acc = percept.evaluate(clf, test)
        accuracy[name], confusion[name], classifiers[name] = acc, mat, clf
    result = ClassifierResult(accuracy, confusion, classifiers)
    if out_dir is not None:
        percept.write_dataset(os.path.join(out_dir, "dataset.csv"), rows)
        for name in JOINT_NAMES:
            _write_csv(os.path.join(out_dir, f"confusion_{name}.csv"),
                       ["true_depth_mm"] + [f"pred_{c}" for c in DEPTH_CLASSES],
                       [[DEPTH_CLASSES[i]] + list(map(int, confusion[name][i]))
                        for i in range(3)])
            with open(os.path.join(out_dir, f"confusion_{name}.txt"), "w") as fh:
                fh.write(_confusion_text(confusion[name]))
        _write_csv(os.path.join(out_dir, "classify_summary.csv"),
                   ["joint", "accuracy"],
                   [[name, float(accuracy[name])] for name in JOINT_NAMES])
        write_manifest(out_dir, cfg, "classify")
    return result


# ---------------------------------------------------------------------------
# Closed loop

@dataclass
class ClosedLoopResult:
    depth: float
    phi_init: float
    phi_star: float
    final_phi: float
    phi_history: np.ndarray
    tau_history: np.ndarray
    speed_history: np.ndarray
    tau0: float

    @property
    def final_error(self):
        return abs(self.final_phi - self.phi_star)


def run_closedloop(cfg: RunConfig, out_dir=None, calibration=None):
    """Adaptive-phase trial on constant-depth terrain."""
    bias = _session_bias(cfg)
    calib = calibration or run_calibrate(cfg, bias=bias)
    params = cfg.controller_params(calib.tau0)
    controller = control.PhaseController(params, cfg.closedloop_phi_init)
    rec = _simulate(cfg, params.clamp(cfg.closedloop_phi_init),
                    TerrainProfile.constant(cfg.closedloop_depth),
                    cfg.closedloop_cycles, _subseed(cfg.seed, 300),
                    controller=controller, load_cfg=cfg.load_cfg(bias=bias))
    phi_star = optimal_phase_for_depth(cfg.closedloop_depth)
    result = ClosedLoopResult(
        cfg.closedloop_depth, cfg.closedloop_phi_init, phi_star,
        float(rec.cycle_phi[-1]), rec.cycle_phi,
        rec.cycle_median_load[:, 1], rec.cycle_speed_blc, calib.tau0,
    )
    if out_dir is not None:
        _write_csv(os.path.join(out_dir, "closedloop.csv"),
                   ["cycle", "phi_rad", "tau_m_pct", "speed_blc"],
                   [[c, float(rec.cycle_phi[c]),
                     float(rec.cycle_median_load[c, 1]),
                     float(rec.cycle_speed_blc[c])]
                    for c in range(cfg.closedloop_cycles)])
        _write_csv(os.path.join(out_dir, "closedloop_summary.csv"),
                   ["depth_mm", "phi_init_rad", "phi_star_rad",
                    "final_phi_rad", "abs_error_rad", "tau0_pct"],
                   [[float(cfg.closedloop_depth), float(cfg.closedloop_phi_init),
                     phi_star, result.final_phi, result.final_error,
                     calib.tau0]])
        write_manifest(out_dir, cfg, "closedloop",
                       {"tau0_pct": _fmt(calib.tau0)})
    return result


# ---------------------------------------------------------------------------
# Transition

@dataclass
class TransitionResult:
    rows: list
    mean_speed: dict              # mode -> 25-cycle mean
    start_speed: dict             # mode -> mean over cycles 1..3
    end_speed: dict               # mode -> mean over last 4 cycles
    phi_trajectory: dict          # mode -> per-cycle phi
    tau0: float


def transition_terrain(cfg: RunConfig):
    return TerrainProfile.ramp(cfg.transition_flat_length,
                               cfg.transition_ramp_length, 40.0)


def run_transition(cfg: RunConfig, out_dir=None, calibration=None):
    """Flat-to-deep terrain crossing: adaptive phase vs the two fixed gaits."""
    bias = _session_bias(cfg)
    calib = calibration or run_calibrate(cfg, bias=bias)
    terrain = transition_terrain(cfg)
    n = cfg.transition_cycles
    rows = []
    mean_speed, start_speed, end_speed, phi_traj = {}, {}, {}, {}
    for mi, mode in enumerate(TRANSITION_MODES):
        controller = None
        phi_init = 0.0
        if mode == "adaptive":
            controller = control.PhaseController(
                cfg.controller_params(calib.tau0), 0.0)
        elif mode == "fixed_phi_-pi/3":
            phi_init = -math.pi / 3
        rec = _simulate(cfg, phi_init, terrain, n, _subseed(cfg.seed, 400, mi),
                        controller=controller,
                        load_cfg=cfg.load_cfg(bias=bias))
        for c in range(n):
            x_pos = float(rec.centers[(c + 1) * cfg.steps_per_cycle, 0])
            rows.append((mode, c, float(rec.cycle_phi[c]),
                         float(rec.cycle_median_load[c, 1]),
                         float(rec.cycle_speed_blc[c]), x_pos))
        mean_speed[mode] = float(rec.cycle_speed_blc.mean())
        start_speed[mode] = float(rec.cycle_speed_blc[:3].mean())
        end_speed[mode] = float(rec.cycle_speed_blc[-4:].mean())
        phi_traj[mode] = rec.cycle_phi
    result = TransitionResult(rows, mean_speed, start_speed, end_speed,
                              phi_traj, calib.tau0)
    if out_dir is not None:
        _write_csv(os.path.join(out_dir, "transition.csv"),
                   ["mode", "cycle", "phi_rad", "tau_m_pct", "speed_blc",
                    "x_position_m"], rows)
        _write_csv(os.path.join(out_dir, "transition_summary.csv"),
                   ["mode", "mean_speed_blc", "start_speed_blc",
                    "end_speed_blc"],
                   [[mode, mean_speed[mode], start_speed[mode],
                     end_speed[mode]] for mode in TRANSITION_MODES])
        write_manifest(out_dir, cfg, "transition",
                       {"tau0_pct": _fmt(calib.tau0)})
    return result
