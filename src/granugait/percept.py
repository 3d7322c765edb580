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

Every stage works on batches, bit for bit as one call per item: both
load pipelines take one generator per trial and ``knn_classify`` 1-D
arrays of queries.  A feature set is 1-D arrays of one length:
``knn_train`` and ``evaluate`` take its ``tau_m``, ``phi`` and ``labels``,
and ``write_dataset`` writes its ``DATASET_COLUMNS`` as CSV.
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
        if not self.gain > 0:
            raise ValueError(f"gain must be positive, got {self.gain}")
        if not self.clip > 0:
            raise ValueError(f"clip must be positive, got {self.clip}")
        if not self.noise_cov >= 0:
            raise ValueError(f"noise_cov must be nonnegative, got {self.noise_cov}")
        if not self.bias_sd >= 0:
            raise ValueError(f"bias_sd must be nonnegative, got {self.bias_sd}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.order not in (LOWPASS_THEN_RECTIFY, RECTIFY_THEN_LOWPASS):
            raise ValueError(f"order must be {LOWPASS_THEN_RECTIFY!r} or "
                             f"{RECTIFY_THEN_LOWPASS!r}, got {self.order!r}")


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


def _noisy(raw, cfg, rng):
    """Multiplicative sensor noise, when the sensor model has any."""
    if cfg.noise_cov > 0:
        return add_sensor_noise(raw, cfg.noise_cov, rng)
    return raw


def _filtered(raw, cfg, y0=None):
    """Filter stage over a raw block whose first axis is time: low-pass
    and rectify in the configured order.  Returns the processed block and
    the filter state to carry into the next block."""
    if cfg.order == LOWPASS_THEN_RECTIFY:
        y = lowpass(raw, cfg.alpha, y0)
        return rectify(y), y[-1]
    y = lowpass(rectify(raw), cfg.alpha, y0)
    return y, y[-1]


class OnlineLoadPipeline:
    """Streaming load pipeline for all three body joints of a batch of
    trials, one generator per trial; every array it takes or returns has a
    leading trial axis.

    ``push_raw`` draws a block's raw samples as they come; ``cycle_median``
    filters a finished cycle's raw block, carrying the filter state from
    the previous cycle like a servo-side filter that never resets, so
    cycles must be given in order.  Each trial's generator draws its bias
    at construction and then its noise block by block, so a trial's
    samples and medians equal those of a pipeline over its generator
    alone, bit for bit.
    """

    def __init__(self, cfg: LoadPipelineConfig, rngs):
        self.cfg = cfg
        self.rngs = list(rngs)
        self._bias = [_bias(cfg, g) for g in self.rngs]
        self._y = None      # filter state after the last median's block

    def push_raw(self, tau):
        """Feed one timestep of nondimensional torques per trial (n, 3), or
        a block of consecutive timesteps per trial (n, m, 3); returns the
        noisy raw load samples.  The generators draw the same noise either
        way."""
        load = torque_to_load(tau, self.cfg.gain, self.cfg.clip)
        return np.stack([_noisy(x + b, self.cfg, g) for x, b, g
                         in zip(load, self._bias, self.rngs, strict=True)])

    def cycle_median(self, raw):
        """Per-trial, per-joint median (n, 3) of one cycle's processed
        samples, from its (n, m, 3) block of raw samples."""
        proc, self._y = _filtered(np.swapaxes(raw, 0, 1), self.cfg, self._y)
        return np.median(proc, axis=0)


def trial_cycle_medians(torques, steps_per_cycle, cfg, rngs):
    """Full load pipeline applied offline to a (N, 3) torque history, one
    virtual trial per generator in ``rngs``: per-cycle medians (T, C, 3),
    trial t equal to streaming the torques through an OnlineLoadPipeline
    over generator t.  Each generator draws its bias, then its noise, and
    the filter stage runs once over the stacked (N, T, 3) block.
    """
    torques = np.asarray(torques, dtype=float)
    n = len(torques)
    if n == 0 or n % steps_per_cycle != 0:
        raise ValueError("torque history must hold whole cycles")
    load = torque_to_load(torques, cfg.gain, cfg.clip)
    # Generators are consumed one at a time, so none outlives its draws.
    raw = np.stack([_noisy(load + _bias(cfg, g), cfg, g) for g in rngs],
                   axis=1)
    proc, _ = _filtered(raw, cfg)
    return np.median(
        proc.reshape(n // steps_per_cycle, steps_per_cycle, -1, 3),
        axis=1).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# KNN depth classification

@dataclass(frozen=True)
class DepthClassifier:
    features: np.ndarray   # (n, 2) standardized (tau_m, phi)
    labels: np.ndarray     # (n,)
    k: int
    mean: np.ndarray       # (2,)
    scale: np.ndarray      # (2,)
    by_load: np.ndarray    # (n,) training indices in ascending standardized
                           # tau_m, ties in training order


def _feature_set(tau_m, phi, labels):
    """``tau_m``, ``phi`` (as floats) and ``labels``, checked to be nonempty
    1-D arrays of one length with every label a depth class."""
    tau, phi = np.asarray(tau_m, dtype=float), np.asarray(phi, dtype=float)
    labels = np.asarray(labels)
    if not tau.shape == phi.shape == labels.shape or tau.ndim != 1 \
            or not len(tau):
        raise ValueError("tau_m, phi and labels must be nonempty 1-D arrays "
                         "of one length")
    unknown = set(np.unique(labels).tolist()) - set(DEPTH_CLASSES)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} not in {DEPTH_CLASSES}")
    return tau, phi, labels


def knn_train(tau_m, phi, labels, k):
    """Fit a KNN depth classifier on z-scored (tau_m, phi) features."""
    tau, phi, y = _feature_set(tau_m, phi, labels)
    if not 1 <= k <= len(y):
        raise ValueError(f"k must lie in [1, {len(y)}], got {k}")
    X = np.stack([tau, phi], axis=1)
    if not np.isfinite(X).all():
        raise ValueError("training features must be finite")
    missing = sorted(set(DEPTH_CLASSES) - set(np.unique(y)))
    if missing:
        raise ValueError(f"training data missing depth classes {missing}")
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    Z = (X - mean) / scale
    return DepthClassifier(Z, y, k, mean, scale,
                           np.argsort(Z[:, 0], kind="stable"))


#: First window: the KNN_WINDOW training points nearest each query in
#: standardized load (k of them if k is larger).  KNN_CHUNK queries share a
#: block at that width and a widened pass takes proportionally fewer, down
#: to 4 queries, so a block's (queries, window) arrays hold at most
#: max(KNN_CHUNK * KNN_WINDOW, 4 n) entries for n training points: at full
#: width, the brute-force scan's 4 queries.  Larger blocks run barely faster
#: but raise peak memory.
KNN_WINDOW = 32
KNN_CHUNK = 128


def knn_classify(c, tau_m, phi):
    """Majority label among the k nearest standardized-Euclidean neighbors.

    Distance ties go to the earlier training point.  A tied vote goes to
    the tied class of the nearest neighbor.  Scalar ``tau_m``, ``phi`` give
    an ``int``; 1-D arrays give an array of labels, equal element by
    element to scalar calls.

    The search is exact but reads only a window of the training points
    sorted by standardized load, around each query's own load.  A point
    outside the window is at least its load difference squared away, and
    that bound grows with distance from the window; once both points just
    outside exceed the window's k-th distance, the window holds every
    neighbor and every tie.  Otherwise the window widens fourfold, up to
    all the points.
    """
    tau, phi = np.asarray(tau_m, dtype=float), np.asarray(phi, dtype=float)
    if tau.ndim > 1 or tau.shape != phi.shape:
        raise ValueError("tau_m and phi must be scalars or 1-D arrays of "
                         "one length")
    q = (np.stack([np.atleast_1d(tau), np.atleast_1d(phi)], axis=1)
         - c.mean) / c.scale
    if not np.isfinite(q).all():
        raise ValueError("KNN queries must be finite")
    classes = np.array(DEPTH_CLASSES)
    n, k = len(c.labels), c.k
    f0, f1 = c.features[c.by_load].T
    label_idx = np.searchsorted(classes, c.labels)[c.by_load]
    # Sorted loads with a sentinel at each end, whose bound is infinite.
    edges = np.concatenate([[-np.inf], f0, [np.inf]])
    pos = np.searchsorted(f0, q[:, 0])
    out = np.empty(len(q), dtype=int)
    todo = np.arange(len(q))
    width = min(max(KNN_WINDOW, k), n)
    while todo.size:
        step = max(4, KNN_CHUNK * KNN_WINDOW // width)
        wider = []
        for lo in range(0, len(todo), step):
            block = todo[lo:lo + step]
            q0, q1 = q[block, :1], q[block, 1:]
            start = np.clip(pos[block] - width // 2, 0, n - width)
            win = start[:, None] + np.arange(width)
            d2 = f0[win] - q0
            d2 *= d2
            d1 = f1[win] - q1
            d1 *= d1
            d2 += d1      # (f0 - q0)**2 + (f1 - q1)**2, in place
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
            # The nearest load outside the window on either side bounds
            # the distance of every point beyond it.
            left = edges[start, None] - q0
            right = edges[start + width + 1, None] - q0
            done = ((left * left > kth) & (right * right > kth))[:, 0]
            done |= width == n      # even where distances overflow to inf
            # Candidates at or below the k-th distance, ordered by (query,
            # distance, training index); the first k of each query are its
            # neighbors, nearest first.
            rows, cols = np.nonzero(d2 <= kth)
            pick = win[rows, cols]
            order = np.lexsort((c.by_load[pick], d2[rows, cols], rows))
            starts = np.searchsorted(rows, np.arange(len(block)))
            top = label_idx[pick[order[starts[:, None] + np.arange(k)]]]
            counts = (top[:, :, None] == np.arange(len(classes))).sum(axis=1)
            tied = counts == counts.max(axis=1, keepdims=True)
            # The first neighbor whose class has the most votes wins.
            first = np.take_along_axis(tied, top, axis=1).argmax(axis=1)
            out[block[done]] = classes[top[done, first[done]]]
            wider.append(block[~done])
        todo = np.concatenate(wider)
        width = min(4 * width, n)
    return int(out[0]) if tau.ndim == 0 else out


def evaluate(c, tau_m, phi, labels):
    """3x3 confusion matrix (rows = true class) and overall accuracy."""
    tau, phi, y = _feature_set(tau_m, phi, labels)
    pred = knn_classify(c, tau, phi)
    classes = np.array(DEPTH_CLASSES)
    confusion = np.zeros((3, 3), dtype=int)
    np.add.at(confusion, (np.searchsorted(classes, y),
                          np.searchsorted(classes, pred)), 1)
    accuracy = float(np.trace(confusion)) / len(y)
    return confusion, accuracy


# ---------------------------------------------------------------------------
# Dataset CSV interface

DATASET_COLUMNS = ("joint", "phi_rad", "tau_m_pct", "depth_mm", "trial_id",
                   "cycle_id")


def write_dataset(path, columns):
    """Write feature columns, keyed by DATASET_COLUMNS, as CSV rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DATASET_COLUMNS)
        for joint, phi, tau_m, depth, trial, cycle in zip(
                *(columns[name] for name in DATASET_COLUMNS)):
            w.writerow([joint, f"{phi:.9f}", f"{tau_m:.9f}", depth, trial, cycle])
