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
from .gait import optimal_phase_for_depth
from .model import MAX_DEPTH_MM, TerrainProfile
from .percept import DEPTH_CLASSES
from .sim import JOINT_NAMES, Trial, simulate_trial, simulate_trials

TRANSITION_MODES = ("adaptive", "fixed_phi_0", "fixed_phi_-pi/3")


# numpy's SeedSequence hash (bit_generator.pyx), over many entropy rows at
# once.  NEP 19 keeps SeedSequence and PCG64 streams stable across numpy
# releases, so these constants fix every sub-seed and noise draw.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645


def _words(*ints):
    """The entropy words of ``SeedSequence(list(ints))``: each int split into
    little-endian 32-bit words, 0 giving one zero word."""
    words = []
    for n in ints:
        n = int(n)
        if n < 0:
            raise ValueError(f"seed entropy must be non-negative, got {n}")
        words.append(n & _MASK32)
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
    return words


def _hash_pool(entropy):
    """SeedSequence's entropy pool for each row of the (m, L) uint32
    ``entropy``: a list of ``_POOL_SIZE`` (m,) uint32 columns."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * _MULT_A) & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    m, n_words = entropy.shape
    zero = np.zeros(m, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zero)
            for i in range(_POOL_SIZE)]
    # Mix all bits together so late bits can affect earlier bits.
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, n_words):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))
    return pool


def _generate_state(pool, n_words):
    """``SeedSequence.generate_state(n_words)`` (uint32) for each pool row:
    an (m, n_words) uint32 array."""
    const = _INIT_B
    out = np.empty((len(pool[0]), n_words), dtype=np.uint32)
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = value * const
        out[:, i] = value ^ (value >> 16)
    return out


def _subseed(master, *idx):
    """``SeedSequence([master, *idx]).generate_state(1)[0]`` as an int."""
    entropy = np.array([_words(master, *idx)], dtype=np.uint32)
    return int(_generate_state(_hash_pool(entropy), 1)[0, 0])


def _trial_rngs(n, master, *idx):
    """The generators ``np.random.default_rng(_subseed(master, *idx, t))``
    of trials t = 0 .. n-1, seeded in one vectorized pass.

    Yields one Generator, re-seeded in place for each trial, so a trial's
    draws must all be taken before the next one is asked for.  The trial
    index is one entropy word, so ``n`` may be at most 2**32.
    """
    prefix = _words(master, *idx)
    entropy = np.empty((n, len(prefix) + 1), dtype=np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(n)
    subseeds = _generate_state(_hash_pool(entropy), 1)
    # default_rng(s) seeds PCG64 from generate_state(4, uint64) of
    # SeedSequence(s), whose entropy is the one word s < 2**32.
    w = _generate_state(_hash_pool(subseeds), 8).astype(np.uint64)
    seeds = (w[:, 0::2] | (w[:, 1::2] << 32)).tolist()
    rng = np.random.default_rng(0)
    bit_gen = rng.bit_generator
    for w0, w1, w2, w3 in seeds:
        inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        yield rng


def _fmt(x):
    return f"{x:.9f}"


def _shared(cfg):
    """What every trial of ``cfg`` shares: robot, ground, step count,
    joint clamp and phase blend."""
    return dict(robot=cfg.robot(), ground=cfg.ground(),
                steps_per_cycle=cfg.steps_per_cycle,
                clamp_limit=cfg.effective_clamp, blend_frac=cfg.blend_frac)


def _simulate(cfg, phi, terrain, n_cycles, seed, **kw):
    """``simulate_trial`` of gait ``phi`` under ``cfg``, for the trials
    whose cycles depend on an earlier trial: calibration, closed loops."""
    return simulate_trial(cfg.gait(phi), terrain, n_cycles=n_cycles,
                          seed=seed, **_shared(cfg), **kw)


def _simulate_batch(cfg, trials, n_cycles, load_cfg):
    """``simulate_trials`` of independent ``trials`` under ``cfg``'s gait,
    each at its own phase, in one lock-step batch through one load
    pipeline of ``load_cfg``: one TrialRecord per trial; a failing trial
    raises its SimulationError."""
    return simulate_trials(trials, n_cycles, cfg.gait(0.0),
                           load_cfg=load_cfg, **_shared(cfg))


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
    rec = _simulate(cfg, cfg.calibration_phi,
                    TerrainProfile.constant(MAX_DEPTH_MM),
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
    failures: list = field(default_factory=list)   # always empty


def run_sweep(cfg: RunConfig, out_dir=None):
    """Speed vs body phase offset across depths; reports per-depth argmax.

    Without a controller the seed only feeds the sensor noise, which speed
    does not read, so each (depth, phi) cell is simulated once, all cells
    in one lock-step batch, and its speeds are reported for every trial
    index.  A cell whose solve fails raises its error, naming the cell's
    phase and terrain, and no file is written.
    """
    if not cfg.phi_grid:
        raise ValueError("phi grid must be nonempty")
    rows = []
    cell_means = {}
    cells = [(depth, phi) for depth in cfg.depths for phi in cfg.phi_grid]
    records = _simulate_batch(
        cfg, [Trial(phi, TerrainProfile.constant(depth))
              for depth, phi in cells],
        cfg.sweep_cycles, cfg.load_cfg(noise_cov=0.0))
    for (depth, phi), rec in zip(cells, records):
        for trial in range(cfg.sweep_trials):
            for c, s in enumerate(rec.cycle_speed_blc):
                rows.append((float(depth), float(phi), trial, c, float(s)))
        # Mean over the trial copies, to the last bit as per-trial runs.
        speeds = [rec.cycle_speed_blc.mean()] * cfg.sweep_trials
        cell_means[(depth, phi)] = float(np.mean(speeds))
    argmax_phi = {depth: max(cfg.phi_grid,
                             key=lambda phi: cell_means[(depth, phi)])
                  for depth in cfg.depths}
    result = SweepResult(rows, cell_means, argmax_phi)
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
        write_manifest(out_dir, cfg, "sweep")
    return result


# ---------------------------------------------------------------------------
# Model torque

def run_model_torque(cfg: RunConfig, out_dir=None):
    """Median |tau~| per joint versus the drag/Coulomb blend ratio.

    One noise-free cycle per (phi, ratio) on constant-depth terrain at
    ratio * 40 mm, all of them in one lock-step batch, whose belly blend
    ratio (ratio * 40) / 40 is the ratio to within one unit in the last
    place (exactly at 0, 0.25, 0.5, 0.75 and 1).
    """
    rows = []
    table = {}
    cells = [(phi, rho) for phi in (0.0, -math.pi / 3) for rho in cfg.rho_grid]
    records = _simulate_batch(
        cfg, [Trial(phi, TerrainProfile.constant(MAX_DEPTH_MM * rho))
              for phi, rho in cells], 1,
        cfg.load_cfg(noise_cov=0.0))
    for (phi, rho), rec in zip(cells, records):
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
    """Synthetic (tau_m, phi, depth) features for every joint, as columns
    keyed by ``percept.DATASET_COLUMNS``, one row per (cell, trial, cycle,
    joint) in that order.

    The dynamics for a (depth, phi) cell are deterministic, so each cell is
    simulated once noise-free, all cells in one lock-step batch, and its
    virtual trials differ only in the seeded sensor-noise draw applied to
    the recorded torques; one load pipeline call processes all of a cell's
    virtual trials, whose generators are seeded in one pass.
    """
    cells = [(di, depth, pi, phi) for di, depth in enumerate(DEPTH_CLASSES)
             for pi, phi in enumerate(cfg.phi_grid)]
    records = _simulate_batch(
        cfg, [Trial(phi, TerrainProfile.constant(depth))
              for _, depth, _, phi in cells],
        cfg.classify_cycles, cfg.load_cfg(noise_cov=0.0))
    medians = np.stack([percept.trial_cycle_medians(
        rec.torques, cfg.steps_per_cycle, cfg.load_cfg(),
        _trial_rngs(cfg.classify_trials_per_cell, cfg.seed, 100, di, pi))
        for (di, _, pi, _), rec in zip(cells, records)])
    cell, trial, cycle, joint = np.indices(medians.shape).reshape(4, -1)
    return {"joint": np.array(JOINT_NAMES)[joint],
            "phi_rad": np.array([phi for *_, phi in cells], dtype=float)[cell],
            "tau_m_pct": medians.ravel(),
            "depth_mm": np.array([depth for _, depth, _, _ in cells])[cell],
            "trial_id": trial, "cycle_id": cycle}


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
    """Train/evaluate one KNN per joint on a seeded 50/50 split: one
    permutation of each joint's rows, the first half for training."""
    columns = generate_feature_dataset(cfg)
    perm = np.random.default_rng(_subseed(cfg.seed, 200)).permutation(
        len(columns["joint"]) // len(JOINT_NAMES))
    half = len(perm) // 2
    accuracy, confusion, classifiers = {}, {}, {}
    for name in JOINT_NAMES:
        rows = np.flatnonzero(columns["joint"] == name)[perm]
        tau, phi, depth = (columns[c][rows]
                           for c in ("tau_m_pct", "phi_rad", "depth_mm"))
        clf = percept.knn_train(tau[:half], phi[:half], depth[:half], cfg.knn_k)
        mat, acc = percept.evaluate(clf, tau[half:], phi[half:], depth[half:])
        accuracy[name], confusion[name], classifiers[name] = acc, mat, clf
    result = ClassifierResult(accuracy, confusion, classifiers)
    if out_dir is not None:
        percept.write_dataset(os.path.join(out_dir, "dataset.csv"), columns)
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
                               cfg.transition_ramp_length)


def run_transition(cfg: RunConfig, out_dir=None, calibration=None):
    """Flat-to-deep terrain crossing: adaptive phase vs the two fixed gaits,
    the three in one lock-step batch."""
    bias = _session_bias(cfg)
    calib = calibration or run_calibrate(cfg, bias=bias)
    terrain = transition_terrain(cfg)
    n = cfg.transition_cycles
    rows = []
    mean_speed, start_speed, end_speed, phi_traj = {}, {}, {}, {}
    trials = []
    for mi, mode in enumerate(TRANSITION_MODES):
        controller = None
        phi_init = 0.0
        if mode == "adaptive":
            controller = control.PhaseController(
                cfg.controller_params(calib.tau0), 0.0)
        elif mode == "fixed_phi_-pi/3":
            phi_init = -math.pi / 3
        trials.append(Trial(phi_init, terrain, _subseed(cfg.seed, 400, mi),
                            controller))
    records = _simulate_batch(cfg, trials, n, cfg.load_cfg(bias=bias))
    for mode, rec in zip(TRANSITION_MODES, records):
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
