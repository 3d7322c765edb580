"""Experiment runner and CLI tests: configs, CSV outputs, determinism."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import granugait
from granugait import cli, harness
from granugait.config import RunConfig
from granugait.errors import ConfigError, SolverError

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")

SMALL = dict(
    phi_grid=(0.0, -math.pi / 3), depths=(0.0, 40.0), sweep_trials=1,
    sweep_cycles=2, steps_per_cycle=50, rho_grid=(0.0, 1.0),
    classify_trials_per_cell=2, classify_cycles=2, closedloop_cycles=4,
    transition_cycles=4,
)


def small_cfg(**overrides):
    cfg = RunConfig()
    for key, val in {**SMALL, **overrides}.items():
        setattr(cfg, key, val)
    cfg.validate()
    return cfg


def read_all_csvs(out_dir):
    data = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data[name] = fh.read()
    return data


# ---------------------------------------------------------------------------
# RunConfig

def test_config_defaults_valid():
    RunConfig().validate()


def test_config_from_ini_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[experiment]\nseed = 99\nsteps_per_cycle = 50\n"
        "depths = 0, 40\n[gait]\nduty = 0.4\n[percept]\ngain = 120\n"
    )
    cfg = RunConfig.from_ini(path)
    assert cfg.seed == 99
    assert cfg.steps_per_cycle == 50
    assert cfg.depths == (0.0, 40.0)
    assert cfg.duty == pytest.approx(0.4)
    assert cfg.gain == pytest.approx(120.0)
    assert cfg.mass == RunConfig().mass   # untouched keys keep defaults


def test_config_missing_file():
    with pytest.raises(ConfigError):
        RunConfig.from_ini("/nonexistent/run.ini")


def test_config_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[nonsense]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        RunConfig.from_ini(path)


def test_config_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[gait]\nwarp_speed = 9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        RunConfig.from_ini(path)


def test_config_unparseable_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[robot]\nmass = heavy\n")
    with pytest.raises(ConfigError, match="mass"):
        RunConfig.from_ini(path)


@pytest.mark.parametrize("key,value", [
    ("mass", -1.0), ("duty", 0.0), ("alpha", 2.0), ("knn_k", 0),
    ("steps_per_cycle", 5), ("closedloop_depth", 50.0),
    ("phi_grid", (0.5,)), ("order", "nonsense"),
    ("clip", -5.0), ("seed", -1), ("clamp_limit", 0.0), ("blend_frac", -0.1),
    ("rho_grid", (1.5,)),
    ("knn_k", 526),   # default training split: 3 * 7 * 10 * 5 // 2 = 525
    ("fore_along", 5.0), ("fore_along", -0.01), ("hind_along", 0.2),
    ("hind_along", -0.01), ("leg_lateral", 0.0), ("leg_lateral", -0.02),
])
def test_config_validation_names_offending_key(key, value):
    cfg = RunConfig()
    setattr(cfg, key, value)
    with pytest.raises(ConfigError, match=key):
        cfg.validate()


FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig)
              if isinstance(getattr(RunConfig(), f.name), float)]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_rejects_non_finite_floats(key, value):
    cfg = RunConfig()
    setattr(cfg, key, value)
    with pytest.raises(ConfigError, match=key):
        cfg.validate()


def test_knn_k_bounded_by_training_split():
    split = 3 * len(SMALL["phi_grid"]) * SMALL["classify_trials_per_cell"] \
        * SMALL["classify_cycles"] // 2
    small_cfg(knn_k=split)
    with pytest.raises(ConfigError, match="knn_k"):
        small_cfg(knn_k=split + 1)


def test_cli_rejects_negative_seed_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(granugait.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "granugait.cli", "calibrate", "--seed", "-1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "seed" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_rejects_shoulder_off_its_segment_without_traceback(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[robot]\nfore_along = 5.0\n")
    src = os.path.dirname(os.path.dirname(granugait.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "granugait.cli", "calibrate", "--config",
         str(bad), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "fore_along" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_shipped_configs_validate():
    for name in ("default.ini", "quick.ini"):
        RunConfig.from_ini(os.path.join(CONFIGS, name))


def test_cli_rejects_infinite_mass(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[robot]\nmass = inf\n")
    code = cli.main(["calibrate", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "mass" in capsys.readouterr().err


def test_config_echo_contains_every_key(tmp_path):
    cfg = RunConfig()
    text = cfg.to_text()
    for section, keys in cfg._SECTIONS.items():
        assert f"[{section}]" in text
        for key in keys:
            assert key in text


# ---------------------------------------------------------------------------
# Experiment runners (reduced-size configs)

def test_calibrate_outputs(tmp_path):
    cfg = small_cfg()
    result = harness.run_calibrate(cfg, out_dir=tmp_path)
    assert result.air_load < result.tau0 < result.max_terrain_load
    assert (tmp_path / "calibration.csv").exists()
    manifest = (tmp_path / "run_manifest.txt").read_text()
    assert "calibrate" in manifest and f"seed = {cfg.seed}" in manifest


def test_sweep_outputs_and_determinism(tmp_path):
    cfg = small_cfg()
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    res = harness.run_sweep(cfg, out_dir=a_dir)
    harness.run_sweep(cfg, out_dir=b_dir)
    assert read_all_csvs(a_dir) == read_all_csvs(b_dir)
    assert not res.failures
    assert set(res.argmax_phi) == {0.0, 40.0}
    header = (a_dir / "sweep.csv").read_text().splitlines()[0]
    assert header == "depth_mm,phi_rad,trial,cycle,speed_blc"
    n_rows = len((a_dir / "sweep.csv").read_text().splitlines()) - 1
    assert n_rows == 2 * 2 * 1 * 2   # depths x phis x trials x cycles


def test_sweep_simulates_each_cell_once(tmp_path, monkeypatch):
    calls = []
    real = harness.simulate_trial

    def counting(params, terrain, *args, **kwargs):
        calls.append((terrain.label, params.body_phase))
        return real(params, terrain, *args, **kwargs)

    monkeypatch.setattr(harness, "simulate_trial", counting)
    cfg = small_cfg(sweep_trials=3)
    res = harness.run_sweep(cfg, out_dir=tmp_path)
    assert len(calls) == len(set(calls)) == len(cfg.depths) * len(cfg.phi_grid)
    assert len(res.rows) == len(calls) * 3 * cfg.sweep_cycles
    assert sorted({row[2] for row in res.rows}) == [0, 1, 2]


def test_sweep_records_a_failure_per_trial(monkeypatch):
    def failing(*args, **kwargs):
        raise SolverError("force balance did not converge", residual=1.0)

    monkeypatch.setattr(harness, "simulate_trial", failing)
    cfg = small_cfg(sweep_trials=3)
    res = harness.run_sweep(cfg)
    assert len(res.failures) == len(cfg.depths) * len(cfg.phi_grid) * 3
    assert not res.rows and not res.cell_means


def test_sweep_rejects_empty_grid():
    cfg = small_cfg()
    cfg.phi_grid = ()
    with pytest.raises(ValueError):
        harness.run_sweep(cfg)


def test_model_torque_row_count(tmp_path):
    cfg = small_cfg()
    table = harness.run_model_torque(cfg, out_dir=tmp_path)
    assert len(table) == 4   # 2 phis x 2 ratios
    rows = (tmp_path / "model_torque.csv").read_text().splitlines()
    assert len(rows) - 1 == 12   # 2 phis x 2 ratios x 3 joints


def test_classifier_eval_structure(tmp_path):
    cfg = small_cfg()
    res = harness.run_classifier_eval(cfg, out_dir=tmp_path)
    for joint in ("upper", "lower", "tail"):
        assert 0.0 <= res.accuracy[joint] <= 1.0
        mat = res.confusion[joint]
        assert mat.shape == (3, 3)
        assert mat.sum() == 3 * len(cfg.phi_grid) * \
            cfg.classify_trials_per_cell * cfg.classify_cycles // 2
        assert (tmp_path / f"confusion_{joint}.csv").exists()
    assert (tmp_path / "dataset.csv").exists()


def test_closedloop_outputs(tmp_path):
    cfg = small_cfg(closedloop_depth=40.0, closedloop_phi_init=0.0)
    res = harness.run_closedloop(cfg, out_dir=tmp_path)
    assert res.phi_star == pytest.approx(-math.pi / 3)
    assert len(res.phi_history) == cfg.closedloop_cycles
    # phase moves away from the standing wave under deep-terrain load
    assert res.final_phi < res.phi_history[0]
    rows = (tmp_path / "closedloop.csv").read_text().splitlines()
    assert len(rows) - 1 == cfg.closedloop_cycles


def test_transition_outputs(tmp_path):
    cfg = small_cfg()
    res = harness.run_transition(cfg, out_dir=tmp_path)
    assert set(res.mean_speed) == set(harness.TRANSITION_MODES)
    rows = (tmp_path / "transition.csv").read_text().splitlines()
    assert len(rows) - 1 == 3 * cfg.transition_cycles
    # fixed modes never change phase; adaptive starts at the standing wave
    np.testing.assert_allclose(res.phi_trajectory["fixed_phi_0"], 0.0)
    np.testing.assert_allclose(res.phi_trajectory["fixed_phi_-pi/3"],
                               -math.pi / 3)
    assert res.phi_trajectory["adaptive"][0] == 0.0


def test_session_bias_shared_and_seeded():
    cfg = small_cfg()
    assert harness._session_bias(cfg) == harness._session_bias(cfg)
    cfg2 = small_cfg(seed=cfg.seed + 1)
    assert harness._session_bias(cfg) != harness._session_bias(cfg2)
    cfg3 = small_cfg(noise_cov=0.0)
    assert harness._session_bias(cfg3) is None


def test_subseed_deterministic_and_distinct():
    assert harness._subseed(1, 2, 3) == harness._subseed(1, 2, 3)
    assert harness._subseed(1, 2, 3) != harness._subseed(1, 3, 2)


# ---------------------------------------------------------------------------
# CLI

def _ini_for_small(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(
        "[experiment]\n"
        "phi_grid = 0, -1.0471975511965976\n"
        "depths = 0, 40\n"
        "sweep_trials = 1\nsweep_cycles = 2\nsteps_per_cycle = 50\n"
        "rho_grid = 0, 1\n"
        "classify_trials_per_cell = 2\nclassify_cycles = 2\n"
        "closedloop_cycles = 4\ntransition_cycles = 4\n"
    )
    return str(path)


def test_cli_calibrate_success(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = cli.main(["calibrate", "--config", _ini_for_small(tmp_path),
                     "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "calibration.csv"))
    assert "calibrate" in capsys.readouterr().out


def test_cli_seed_and_steps_override(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    args = ["calibrate", "--config", _ini_for_small(tmp_path),
            "--steps-per-cycle", "40"]
    assert cli.main(args + ["--seed", "5", "--out", out_a]) == 0
    assert cli.main(args + ["--seed", "5", "--out", out_b]) == 0
    assert read_all_csvs(out_a) == read_all_csvs(out_b)
    manifest = open(os.path.join(out_a, "run_manifest.txt")).read()
    assert "seed = 5" in manifest
    assert "steps_per_cycle = 40" in manifest


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[robot]\nmass = -1\n")
    code = cli.main(["calibrate", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "mass" in capsys.readouterr().err


def test_cli_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
