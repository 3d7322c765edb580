"""Proprioceptive load pipeline and KNN terrain-depth classification.

Simulated joint torques are mapped to a servo-style load percentage with a
register zero offset, corrupted with multiplicative sensor noise (the raw
stage), smoothed with a first-order low-pass filter and rectified (the
filter stage), and summarized by a per-cycle median.  One implementation
of each stage serves both the offline ``trial_cycle_medians`` and the
streaming ``OnlineLoadPipeline``, which carries the filter state across
cycles and so yields the same medians bit for bit.  A K-nearest-neighbors
model over (median load, phase offset) features then classifies bead
depth into the {0, 20, 40} mm classes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

DEPTH_CLASSES = (0, 20, 40)

LOWPASS_THEN_RECTIFY = "lowpass_then_rectify"
RECTIFY_THEN_LOWPASS = "rectify_then_lowpass"


# ---------------------------------------------------------------------------
# Signal pipeline

@dataclass(frozen=True)
class LoadPipelineConfig:
    gain: float = 175.0          # load % per unit nondimensional torque
    clip: float = 100.0          # hardware register limit, %
    noise_cov: float = 0.13      # multiplicative coefficient of variation
    bias_sd: float = 5.0         # load %, std of the per-trial zero offset
    bias: tuple | None = None    # fixed per-session offsets; None = draw
    alpha: float = 0.45          # low-pass smoothing factor
    order: str = LOWPASS_THEN_RECTIFY

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("gain must be positive")
        if not self.clip > 0:
            raise ValueError("clip must be positive")
        if self.noise_cov < 0:
            raise ValueError("noise_cov must be nonnegative")
        if self.bias_sd < 0:
            raise ValueError("bias_sd must be nonnegative")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if self.order not in (LOWPASS_THEN_RECTIFY, RECTIFY_THEN_LOWPASS):
            raise ValueError(f"unknown pipeline order {self.order!r}")


def _draw_bias(bias_sd, rng):
    """Per-trial register zero offset: bounded uniform with std ``bias_sd``."""
    lim = math.sqrt(3.0) * bias_sd
    return rng.uniform(-lim, lim, 3)


def _bias(cfg, rng):
    """Register zero offset of one trial: pinned for a session, drawn once
    per trial from ``rng``, or zero when the sensor model is noise-free.
    Constant within the trial, so it survives filtering and per-cycle
    medians like real sensor drift does."""
    if cfg.bias is not None:
        return np.asarray(cfg.bias, dtype=float)
    if cfg.bias_sd > 0 and cfg.noise_cov > 0:
        return _draw_bias(cfg.bias_sd, rng)
    return np.zeros(3)


def torque_to_load(tau, gain, clip=100.0):
    """Linear torque-to-load map, clipped to the hardware percentage range."""
    if gain <= 0:
        raise ValueError("gain must be positive")
    return np.clip(gain * np.asarray(tau, dtype=float), -clip, clip)


def add_sensor_noise(samples, cov, seed):
    """Multiplicative Gaussian noise: x -> x * (1 + cov * z), seeded."""
    if cov < 0:
        raise ValueError("cov must be nonnegative")
    samples = np.asarray(samples, dtype=float)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = rng.standard_normal(samples.shape)
    return samples * (1.0 + cov * z)


def lowpass(samples, alpha, y0=None):
    """First-order exponential smoothing from the carried state ``y0``;
    without one, y[0] = x[0]."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot filter an empty series")
    y = np.empty_like(samples)
    if y0 is None:
        y[0] = samples[0]
    else:
        y[0] = alpha * samples[0] + (1.0 - alpha) * y0
    for k in range(1, len(samples)):
        y[k] = alpha * samples[k] + (1.0 - alpha) * y[k - 1]
    return y


def rectify(samples):
    """Sample-wise absolute value, removing rotation-direction dependence."""
    return np.abs(np.asarray(samples, dtype=float))


def _raw_loads(tau, cfg, bias, rng):
    """Raw stage: clipped load plus the zero offset, then sensor noise."""
    raw = torque_to_load(tau, cfg.gain, cfg.clip) + bias
    if cfg.noise_cov > 0:
        raw = add_sensor_noise(raw, cfg.noise_cov, rng)
    return raw


def _filtered(raw, cfg, y0=None):
    """Filter stage over a (n, 3) raw block: low-pass and rectify in the
    configured order.  Returns the processed block and the filter state to
    carry into the next block."""
    if cfg.order == LOWPASS_THEN_RECTIFY:
        y = lowpass(raw, cfg.alpha, y0)
        return rectify(y), y[-1]
    y = lowpass(rectify(raw), cfg.alpha, y0)
    return y, y[-1]


class OnlineLoadPipeline:
    """Streaming load pipeline for all three body joints.

    Each step draws its raw sample as it comes; ``cycle_median`` filters a
    finished cycle's block, carrying the filter state from the previous
    cycle like a servo-side filter that never resets.  Cycles must be read
    in order.
    """

    def __init__(self, cfg: LoadPipelineConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self._bias = _bias(cfg, rng)
        self._raw = []
        self._y = None      # filter state after the last median's block
        self._read = 0      # samples consumed by cycle_median

    def push_raw(self, tau):
        """Feed one timestep of nondimensional torques (3,); returns the
        noisy raw load sample."""
        raw = _raw_loads(tau, self.cfg, self._bias, self.rng)
        self._raw.append(raw)
        return raw

    def cycle_median(self, lo, hi):
        """Per-joint median of the processed samples ``lo:hi``."""
        if lo != self._read:
            raise ValueError(f"cycle starts at {lo}, not at {self._read}")
        proc, self._y = _filtered(np.asarray(self._raw[lo:hi]), self.cfg,
                                  self._y)
        self._read = hi
        return np.median(proc, axis=0)


def trial_cycle_medians(torques, steps_per_cycle, cfg, rng):
    """Full load pipeline applied offline to a (N, 3) torque history.

    Returns per-cycle medians (C, 3), equal to streaming the trial through
    OnlineLoadPipeline with the same generator.
    """
    torques = np.asarray(torques, dtype=float)
    n = len(torques)
    if n == 0 or n % steps_per_cycle != 0:
        raise ValueError("torque history must hold whole cycles")
    proc, _ = _filtered(_raw_loads(torques, cfg, _bias(cfg, rng), rng), cfg)
    c = n // steps_per_cycle
    return np.median(proc.reshape(c, steps_per_cycle, 3), axis=1)


# ---------------------------------------------------------------------------
# KNN depth classification

@dataclass(frozen=True)
class LabeledFeature:
    tau_m: float     # load %, cycle median
    phi: float       # rad, commanded phase offset
    label: int       # depth class, mm

    def __post_init__(self):
        if self.label not in DEPTH_CLASSES:
            raise ValueError(f"label {self.label} not in {DEPTH_CLASSES}")


@dataclass(frozen=True)
class DepthClassifier:
    features: np.ndarray   # (n, 2) standardized (tau_m, phi)
    labels: np.ndarray     # (n,)
    k: int
    mean: np.ndarray       # (2,)
    scale: np.ndarray      # (2,)


def knn_train(data, k):
    """Fit a KNN depth classifier with z-scored features."""
    if not data:
        raise ValueError("training data must be nonempty")
    if not 1 <= k <= len(data):
        raise ValueError(f"k must lie in [1, {len(data)}], got {k}")
    X = np.array([[f.tau_m, f.phi] for f in data], dtype=float)
    y = np.array([f.label for f in data])
    present = set(np.unique(y))
    if present != set(DEPTH_CLASSES):
        missing = sorted(set(DEPTH_CLASSES) - present)
        raise ValueError(f"training data missing depth classes {missing}")
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return DepthClassifier((X - mean) / scale, y, k, mean, scale)


def knn_classify(c, tau_m, phi):
    """Majority label among the k nearest standardized-Euclidean neighbors.

    Ties are broken by the nearest neighbor among the tied classes, then by
    the smaller depth label.
    """
    q = (np.array([tau_m, phi], dtype=float) - c.mean) / c.scale
    d2 = np.sum((c.features - q) ** 2, axis=1)
    order = np.lexsort((np.arange(len(d2)), d2))
    top = c.labels[order[: c.k]]
    counts = {lab: int((top == lab).sum()) for lab in DEPTH_CLASSES}
    best = max(counts.values())
    tied = [lab for lab in DEPTH_CLASSES if counts[lab] == best]
    if len(tied) == 1:
        return tied[0]
    for lab in top:  # nearest-first scan over the k neighbors
        if lab in tied:
            return int(lab)
    return min(tied)


def evaluate(c, test_set):
    """3x3 confusion matrix (rows = true class) and overall accuracy."""
    if not test_set:
        raise ValueError("test set must be nonempty")
    idx = {lab: i for i, lab in enumerate(DEPTH_CLASSES)}
    confusion = np.zeros((3, 3), dtype=int)
    for f in test_set:
        pred = knn_classify(c, f.tau_m, f.phi)
        confusion[idx[f.label], idx[pred]] += 1
    accuracy = float(np.trace(confusion)) / len(test_set)
    return confusion, accuracy


# ---------------------------------------------------------------------------
# Dataset CSV interface

DATASET_COLUMNS = ("joint", "phi_rad", "tau_m_pct", "depth_mm", "trial_id",
                   "cycle_id")


def write_dataset(path, rows):
    """Write (joint, phi, tau_m, depth, trial, cycle) feature rows as CSV."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DATASET_COLUMNS)
        for joint, phi, tau_m, depth, trial, cycle in rows:
            w.writerow([joint, f"{phi:.9f}", f"{tau_m:.9f}", depth, trial, cycle])


def read_dataset(path):
    rows = []
    with open(path, newline="") as fh:
        r = csv.DictReader(fh)
        if tuple(r.fieldnames) != DATASET_COLUMNS:
            raise ValueError(f"unexpected dataset columns {r.fieldnames}")
        for rec in r:
            rows.append((rec["joint"], float(rec["phi_rad"]),
                         float(rec["tau_m_pct"]), int(rec["depth_mm"]),
                         int(rec["trial_id"]), int(rec["cycle_id"])))
    return rows
