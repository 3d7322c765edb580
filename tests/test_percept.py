"""Load pipeline and KNN depth-classification tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from granugait.percept import (
    DEPTH_CLASSES, LOWPASS_THEN_RECTIFY, LabeledFeature, LoadPipelineConfig,
    OnlineLoadPipeline, RECTIFY_THEN_LOWPASS, add_sensor_noise, evaluate,
    knn_classify, knn_train, lowpass, read_dataset, rectify, torque_to_load,
    trial_cycle_medians, write_dataset,
)


# ---------------------------------------------------------------------------
# torque_to_load

def test_zero_torque_zero_load():
    np.testing.assert_allclose(torque_to_load(np.zeros(5), 150.0), 0.0)


def test_load_linearity_and_clip():
    tau = np.array([0.1, -0.2, 1.0])
    np.testing.assert_allclose(torque_to_load(tau, 100.0),
                               [10.0, -20.0, 100.0])
    np.testing.assert_allclose(torque_to_load(tau, 200.0)[:2],
                               2 * torque_to_load(tau, 100.0)[:2])


def test_load_rejects_nonpositive_gain():
    with pytest.raises(ValueError):
        torque_to_load([0.1], 0.0)


# ---------------------------------------------------------------------------
# add_sensor_noise

def test_noise_cov_matches_target():
    out = add_sensor_noise(np.full(100_000, 50.0), 0.13, seed=42)
    cov = out.std() / abs(out.mean())
    assert cov == pytest.approx(0.13, abs=0.005)


def test_zero_cov_is_identity():
    x = np.linspace(-3, 3, 11)
    np.testing.assert_array_equal(add_sensor_noise(x, 0.0, seed=1), x)


def test_noise_deterministic_per_seed():
    x = np.ones(100)
    np.testing.assert_array_equal(add_sensor_noise(x, 0.13, seed=9),
                                  add_sensor_noise(x, 0.13, seed=9))
    assert not np.array_equal(add_sensor_noise(x, 0.13, seed=9),
                              add_sensor_noise(x, 0.13, seed=10))


def test_noise_rejects_negative_cov():
    with pytest.raises(ValueError):
        add_sensor_noise(np.ones(3), -0.1, seed=0)


# ---------------------------------------------------------------------------
# lowpass / rectify

def test_lowpass_identity_at_alpha_one():
    x = np.array([3.0, -1.0, 2.0])
    np.testing.assert_array_equal(lowpass(x, 1.0), x)


def test_lowpass_constant_fixed_point():
    np.testing.assert_allclose(lowpass(np.full(50, 4.2), 0.2), 4.2)


def test_lowpass_step_from_zero_closed_form():
    n = 30
    x = np.concatenate([[0.0], np.ones(n)])
    y = lowpass(x, 0.5)
    k = np.arange(1, n + 1)
    np.testing.assert_allclose(y[1:], 1.0 - 0.5 ** k)


def test_lowpass_carried_state_continues_the_series():
    x = np.random.default_rng(3).standard_normal((40, 3))
    whole = lowpass(x, 0.3)
    head = lowpass(x[:15], 0.3)
    np.testing.assert_array_equal(lowpass(x[15:], 0.3, y0=head[-1]),
                                  whole[15:])


def test_lowpass_rejects_bad_input():
    with pytest.raises(ValueError):
        lowpass(np.empty(0), 0.5)
    with pytest.raises(ValueError):
        lowpass(np.ones(3), 0.0)


def test_rectify():
    np.testing.assert_array_equal(rectify([-3.0, 2.0, -1.0]), [3.0, 2.0, 1.0])
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(rectify(x), x)
    np.testing.assert_array_equal(rectify(rectify([-5.0])), rectify([-5.0]))


# ---------------------------------------------------------------------------
# Online pipeline vs offline pipeline

def test_online_and_offline_pipelines_agree():
    """Streaming and offline medians are equal to the last bit, in both
    orders, with a drawn and with a pinned bias."""
    rng_t = np.random.default_rng(5)
    torques = 0.2 * rng_t.standard_normal((200, 3))
    for order in (LOWPASS_THEN_RECTIFY, RECTIFY_THEN_LOWPASS):
        for bias in (None, (4.0, -2.5, 1.0)):
            cfg = LoadPipelineConfig(order=order, bias=bias)
            online = OnlineLoadPipeline(cfg, np.random.default_rng(77))
            for tau in torques:
                online.push_raw(tau)
            med_online = np.stack([online.cycle_median(c * 50, (c + 1) * 50)
                                   for c in range(4)])
            med_offline = trial_cycle_medians(torques, 50, cfg,
                                              np.random.default_rng(77))
            np.testing.assert_array_equal(med_online, med_offline)


# Unfiltered, noise-free pipeline: each load is |100 * tau|.
PLAIN = LoadPipelineConfig(gain=100.0, noise_cov=0.0, alpha=1.0)


def test_cycle_median_conventions():
    online = OnlineLoadPipeline(PLAIN, np.random.default_rng(0))
    for x in (1.0, 2, 3, 4, 5, 1, 2, 3, 4):
        online.push_raw(np.full(3, x / 100.0))
    with pytest.raises(ValueError):    # cycles are read in order
        online.cycle_median(5, 9)
    np.testing.assert_allclose(online.cycle_median(0, 5), 3.0)
    np.testing.assert_allclose(online.cycle_median(5, 9), 2.5)


@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=3,
                max_size=20))
def test_cycle_median_permutation_invariant(vals):
    x = np.repeat(np.array(vals)[:, None], 3, axis=1)
    perm = x[np.random.default_rng(0).permutation(len(x))]
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(
        trial_cycle_medians(x, len(x), PLAIN, rng),
        trial_cycle_medians(perm, len(x), PLAIN, rng))


def test_pipeline_order_configurable():
    # A zero-mean oscillation separates the two orders: smoothing first
    # cancels sign flips before rectification, rectifying first does not.
    torques = 0.3 * np.cos(np.linspace(0, 20 * np.pi, 100)) \
        .reshape(-1, 1) * np.ones((1, 3))
    a = trial_cycle_medians(torques, 100, LoadPipelineConfig(noise_cov=0.0),
                            np.random.default_rng(0))
    b = trial_cycle_medians(
        torques, 100,
        LoadPipelineConfig(noise_cov=0.0, order=RECTIFY_THEN_LOWPASS),
        np.random.default_rng(0))
    assert not np.allclose(a, b)


def test_fixed_bias_shifts_noise_free_loads():
    torques = np.zeros((100, 3))
    cfg = LoadPipelineConfig(noise_cov=0.0, bias=(5.0, -3.0, 1.0))
    med = trial_cycle_medians(torques, 100, cfg, np.random.default_rng(0))
    np.testing.assert_allclose(med[0], [5.0, 3.0, 1.0])


@pytest.mark.parametrize("order", [LOWPASS_THEN_RECTIFY, RECTIFY_THEN_LOWPASS])
@pytest.mark.parametrize("noise_cov", [0.0, 0.13])
@pytest.mark.parametrize("bias", [None, (4.0, -2.5, 1.0)])
def test_many_generators_equal_one_call_each(order, noise_cov, bias):
    """T generators in one call give the T single-generator results bit
    for bit, over C = 3 cycles, in both orders, with and without noise,
    with a drawn and with a pinned bias."""
    torques = 0.3 * np.random.default_rng(8).standard_normal((60, 3))
    cfg = LoadPipelineConfig(order=order, noise_cov=noise_cov, bias=bias)
    seeds = (3, 14, 15, 92, 65)
    batch = trial_cycle_medians(
        torques, 20, cfg, (np.random.default_rng(s) for s in seeds))
    assert batch.shape == (len(seeds), 3, 3)
    for s, got in zip(seeds, batch):
        np.testing.assert_array_equal(
            got, trial_cycle_medians(torques, 20, cfg,
                                     np.random.default_rng(s)))


def test_many_generators_leave_each_generator_where_one_call_does():
    torques = np.ones((40, 3))
    a, b = np.random.default_rng(1), np.random.default_rng(1)
    trial_cycle_medians(torques, 20, LoadPipelineConfig(), [a])
    trial_cycle_medians(torques, 20, LoadPipelineConfig(), b)
    assert a.random() == b.random()


def test_config_validation():
    with pytest.raises(ValueError):
        LoadPipelineConfig(gain=0.0)
    with pytest.raises(ValueError):
        LoadPipelineConfig(clip=-5.0)
    with pytest.raises(ValueError):
        LoadPipelineConfig(noise_cov=-0.1)
    with pytest.raises(ValueError):
        LoadPipelineConfig(bias_sd=-1.0)
    with pytest.raises(ValueError):
        LoadPipelineConfig(alpha=0.0)
    with pytest.raises(ValueError):
        LoadPipelineConfig(order="nonsense")


# ---------------------------------------------------------------------------
# KNN

def _toy_dataset(n_per_class=30, spread=1.0, seed=3):
    rng = np.random.default_rng(seed)
    data = []
    for label, center in zip(DEPTH_CLASSES, (10.0, 30.0, 50.0)):
        for _ in range(n_per_class):
            data.append(LabeledFeature(
                center + spread * rng.standard_normal(),
                float(rng.uniform(-math.pi / 2, 0)), label))
    return data


def _brute_force_knn(data, k, tau_m, phi, mean, scale):
    """Oracle: full sort of all standardized distances, same tie-break."""
    X = np.array([[f.tau_m, f.phi] for f in data])
    y = np.array([f.label for f in data])
    q = (np.array([tau_m, phi]) - mean) / scale
    Z = (X - mean) / scale
    d2 = np.sum((Z - q) ** 2, axis=1)
    order = sorted(range(len(d2)), key=lambda i: (d2[i], i))
    top = [int(y[i]) for i in order[:k]]
    counts = {lab: top.count(lab) for lab in DEPTH_CLASSES}
    best = max(counts.values())
    tied = [lab for lab in DEPTH_CLASSES if counts[lab] == best]
    if len(tied) == 1:
        return tied[0]
    for lab in top:
        if lab in tied:
            return lab
    return min(tied)


def test_knn_single_point_query_returns_its_label():
    data = _toy_dataset()
    clf = knn_train(data, 1)
    f = data[17]
    assert knn_classify(clf, f.tau_m, f.phi) == f.label


def test_knn_training_validation():
    data = _toy_dataset()
    with pytest.raises(ValueError):
        knn_train([], 1)
    with pytest.raises(ValueError):
        knn_train(data, len(data) + 1)
    single = [f for f in data if f.label == 0]
    with pytest.raises(ValueError):
        knn_train(single, 1)
    with pytest.raises(ValueError):
        knn_train(data + [LabeledFeature(math.nan, 0.0, 0)], 1)


def test_labeled_feature_rejects_unknown_class():
    with pytest.raises(ValueError):
        LabeledFeature(1.0, 0.0, 30)


def test_knn_far_query_gets_deepest_class():
    clf = knn_train(_toy_dataset(), 6)
    assert knn_classify(clf, 1000.0, -math.pi / 6) == 40


def test_knn_matches_brute_force_oracle():
    data = _toy_dataset(spread=8.0)   # heavy class overlap provokes ties
    clf = knn_train(data, 6)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        tau = float(rng.uniform(-10, 70))
        phi = float(rng.uniform(-math.pi / 2, 0))
        assert knn_classify(clf, tau, phi) == _brute_force_knn(
            data, 6, tau, phi, clf.mean, clf.scale)


def _tie_heavy_dataset(seed=5):
    """Points on a coarse grid with many exact duplicates and mixed labels:
    equal distances and tied votes are common."""
    rng = np.random.default_rng(seed)
    data = [LabeledFeature(float(rng.integers(0, 4)),
                           -math.pi / 6 * float(rng.integers(0, 3)),
                           int(rng.choice(DEPTH_CLASSES)))
            for _ in range(40)]
    return data + data[:10]


@pytest.mark.parametrize("k", [1, 2, 4, 5, 6, 50])
def test_knn_array_equals_scalar_calls_and_oracle_on_ties(k):
    data = _tie_heavy_dataset()
    assert k <= len(data)
    clf = knn_train(data, k)
    rng = np.random.default_rng(k)
    # exactly on training points, halfway between grid points, and random
    tau = np.concatenate([[f.tau_m for f in data],
                          np.arange(-0.5, 4.0, 0.5).repeat(3),
                          rng.uniform(-1, 4, 30)])
    phi = np.concatenate([[f.phi for f in data],
                          np.tile([0.0, -math.pi / 12, -math.pi / 4], 9),
                          rng.uniform(-math.pi / 2, 0, 30)])
    got = knn_classify(clf, tau, phi)
    assert got.shape == tau.shape
    want = [_brute_force_knn(data, k, t, p, clf.mean, clf.scale)
            for t, p in zip(tau, phi)]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        got, [knn_classify(clf, float(t), float(p)) for t, p in zip(tau, phi)])


def test_knn_scalar_query_returns_int():
    clf = knn_train(_toy_dataset(), 6)
    assert type(knn_classify(clf, 30.0, -0.5)) is int
    assert type(knn_classify(clf, np.float64(30.0), np.float64(-0.5))) is int


def test_knn_rejects_bad_queries():
    clf = knn_train(_toy_dataset(), 6)
    with pytest.raises(ValueError):
        knn_classify(clf, [1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        knn_classify(clf, math.nan, 0.0)


def test_evaluate_matches_scalar_queries():
    data = _tie_heavy_dataset()
    clf = knn_train(data[::2], 4)
    confusion, _ = evaluate(clf, data)
    want = np.zeros((3, 3), dtype=int)
    for f in data:
        pred = knn_classify(clf, f.tau_m, f.phi)
        want[DEPTH_CLASSES.index(f.label), DEPTH_CLASSES.index(pred)] += 1
    np.testing.assert_array_equal(confusion, want)


def test_knn_scale_invariance():
    data = _toy_dataset()
    clf = knn_train(data, 6)
    scaled = [LabeledFeature(f.tau_m * 7.5, f.phi, f.label) for f in data]
    clf_s = knn_train(scaled, 6)
    rng = np.random.default_rng(4)
    for _ in range(200):
        tau = float(rng.uniform(0, 60))
        phi = float(rng.uniform(-math.pi / 2, 0))
        assert knn_classify(clf, tau, phi) == knn_classify(clf_s, tau * 7.5, phi)


def test_knn_retraining_deterministic():
    data = _toy_dataset()
    a, b = knn_train(data, 6), knn_train(data, 6)
    for tau in np.linspace(0, 60, 25):
        assert knn_classify(a, tau, -0.5) == knn_classify(b, tau, -0.5)


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_perfect_on_training_set_k1():
    data = _toy_dataset()
    clf = knn_train(data, 1)
    confusion, acc = evaluate(clf, data)
    assert acc == 1.0
    assert np.trace(confusion) == len(data)


def test_evaluate_row_sums_and_order_invariance():
    data = _toy_dataset(spread=10.0)
    clf = knn_train(data[: len(data) // 2] + data[-len(data) // 2:], 6)
    test = data
    confusion, acc = evaluate(clf, test)
    counts = [sum(1 for f in test if f.label == lab) for lab in DEPTH_CLASSES]
    np.testing.assert_array_equal(confusion.sum(axis=1), counts)
    confusion2, acc2 = evaluate(clf, list(reversed(test)))
    np.testing.assert_array_equal(confusion, confusion2)
    assert acc == acc2


def test_evaluate_rejects_empty_test_set():
    clf = knn_train(_toy_dataset(), 6)
    with pytest.raises(ValueError):
        evaluate(clf, [])


# ---------------------------------------------------------------------------
# Dataset CSV round trip

def test_dataset_csv_round_trip(tmp_path):
    rows = [("lower", -0.5, 31.25, 20, 0, 3), ("tail", 0.0, 4.0, 0, 1, 0)]
    path = tmp_path / "dataset.csv"
    write_dataset(path, rows)
    back = read_dataset(path)
    assert back[0][0] == "lower"
    assert back[0][1] == pytest.approx(-0.5)
    assert back[0][3:] == (20, 0, 3)
    assert back[1][0] == "tail"
