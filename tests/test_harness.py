"""Experiment runner and CLI tests: configs, CSV outputs, determinism."""

import configparser
import csv
import dataclasses
import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import granugait
from granugait import cli, gait, harness, model, percept, sim
from granugait.config import RunConfig
from granugait.control import ControllerParams
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
    ("rho_grid", (1.5,)), ("depths", ()), ("rho_grid", ()),
    ("knn_k", 526),   # default training split: 3 * 7 * 10 * 5 // 2 = 525
    ("fore_along", 5.0), ("fore_along", -0.01), ("hind_along", 0.2),
    ("hind_along", -0.01), ("leg_lateral", 0.0), ("leg_lateral", -0.02),
    # phases outside the gait range [-pi/2, 0]
    ("calibration_phi", 0.5), ("phi_max", 0.3), ("phi_min", -2.0),
    # a repeated grid point would run its cell twice
    ("depths", (0.0, 40.0, 0.0)), ("phi_grid", (0.0, 0.0)),
    ("rho_grid", (0.5, 0.5)),
    # finite, but the solver's terms would overflow
    ("mass", 1e307), ("mass", 1e-310), ("friction", 1e-310),
    ("slip_eps", 1e-200), ("rft_perp", 1e300), ("segment_length", 1e155),
    ("amplitude", 1e300), ("frequency", 1e300),
    # a virtual trial's index is one 32-bit word of its seed
    ("classify_trials_per_cell", 2**32 + 1),
    # the contact weight would jump (default ramp_frac 0.05)
    ("duty", 1.0), ("duty", 0.01), ("duty", 0.99),
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


@pytest.mark.parametrize("command,key,ini", [
    ("calibrate", "calibration_phi", "[control]\ncalibration_phi = 0.5\n"),
    ("closedloop", "phi_max", "[control]\nphi_max = 0.3\n"
                              "[experiment]\nclosedloop_phi_init = 0.3\n"),
], ids=["calibration_phi", "phi_max"])
def test_cli_rejects_phase_outside_gait_range_without_traceback(
        tmp_path, command, key, ini):
    bad = tmp_path / "bad.ini"
    bad.write_text(ini)
    src = os.path.dirname(os.path.dirname(granugait.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "granugait.cli", command, "--config",
         str(bad), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_rejects_output_below_a_regular_file_without_traceback(tmp_path):
    blocker = tmp_path / "results"
    blocker.write_text("")
    src = os.path.dirname(os.path.dirname(granugait.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "granugait.cli", "calibrate",
         "--out", str(blocker / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot create output directory")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_cli_reports_a_failed_output_write_without_traceback(tmp_path):
    """An output file that cannot be written (here a directory stands in
    its place) exits 2 with one error line naming it."""
    blocker = tmp_path / "out" / "calibration.csv"
    blocker.mkdir(parents=True)
    src = os.path.dirname(os.path.dirname(granugait.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "granugait.cli", "calibrate", "--config",
         _ini_for_small(tmp_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {blocker}: Is a directory\n"
    assert proc.stdout == ""


def test_shipped_configs_validate():
    for name in ("default.ini", "quick.ini"):
        RunConfig.from_ini(os.path.join(CONFIGS, name))
    # default.ini spells out every key (test_model.py checks that each is
    # at its default)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(os.path.join(CONFIGS, "default.ini"), encoding="utf-8")
    assert {s: tuple(parser[s]) for s in parser.sections()} == \
        RunConfig._SECTIONS


@pytest.mark.parametrize("content", [
    b"[robot]\nmass = 0.6\nmass = 0.7\n",
    b"[robot]\nmass = 0.6\n[robot]\nfriction = 0.3\n",
    b"mass = 0.6\n",
    b"[robot]\nmass = \xff\n",
    b"[percept]\norder = 50%\n",
], ids=["duplicate_key", "duplicate_section", "no_section_header",
        "non_utf8_byte", "percent_sign"])
def test_cli_rejects_malformed_config_without_traceback(tmp_path, content):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(content)
    src = os.path.dirname(os.path.dirname(granugait.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "granugait.cli", "calibrate", "--config",
         str(bad), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_rejects_infinite_mass(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[robot]\nmass = inf\n")
    code = cli.main(["calibrate", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "mass" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("robot", "mass", "1e307"), ("robot", "mass", "1e308"),
    ("gait", "frequency", "1e300")])
def test_cli_rejects_overflowing_config_without_running(tmp_path, capsys,
                                                        section, key, value):
    """Finite values whose solver terms overflow are rejected before any
    trial runs (pytest turns a RuntimeWarning from a run into an error)."""
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{section}]\n{key} = {value}\n")
    code = cli.main(["calibrate", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert key in err
    assert not (tmp_path / "out").exists()


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
    """The sweep runs every (depth, phi) cell exactly once, in one batch."""
    calls = []
    real = harness.simulate_trials

    def counting(trials, *args, **kwargs):
        calls.append([(t.terrain.label, t.phi) for t in trials])
        return real(trials, *args, **kwargs)

    monkeypatch.setattr(harness, "simulate_trials", counting)
    cfg = small_cfg(sweep_trials=3)
    res = harness.run_sweep(cfg, out_dir=tmp_path)
    assert len(calls) == 1
    cells = calls[0]
    assert len(cells) == len(set(cells)) == len(cfg.depths) * len(cfg.phi_grid)
    assert len(res.rows) == len(cells) * 3 * cfg.sweep_cycles
    assert sorted({row[2] for row in res.rows}) == [0, 1, 2]


def _poison_solve(monkeypatch, call, rows=...):
    """Make solve number ``call`` (1-based) fail, for the batch rows
    ``rows`` of its contacts."""
    real = sim.solve_quasistatic_velocity
    calls = []

    def poisoned(contacts, gm, robot, xi0=None):
        calls.append(None)
        if len(calls) == call:
            contacts.normal[rows] = np.nan
        return real(contacts, gm, robot, xi0)

    monkeypatch.setattr(sim, "solve_quasistatic_velocity", poisoned)


def test_sweep_raises_the_failing_cells_error(tmp_path, monkeypatch):
    """A cell whose solve fails ends the sweep with its SolverError, which
    names the cell's trial, phase, terrain, cycle and step; no file is
    written."""
    _poison_solve(monkeypatch, 2 * 3 + 2, rows=1)   # midpoint of step 3
    cfg = small_cfg(sweep_trials=3)
    with pytest.raises(SolverError) as err:
        harness.run_sweep(cfg, out_dir=tmp_path)
    # cells run depth by depth: cell 1 is 0 mm at -pi/3
    assert str(err.value) == (
        "trial 1 (phi -1.0472, terrain constant-0.0mm), cycle 0, step 3 "
        "(midpoint): force balance did not converge (residual nan)")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command", list(cli.RUNNERS))
def test_cli_failing_trial_aborts_its_experiment(tmp_path, capsys,
                                                 monkeypatch, command):
    """Every experiment handles a failing trial alike: one ``error:`` line
    naming its cycle and step, exit code 2, and no output file."""
    _poison_solve(monkeypatch, 2 * 3 + 2)            # midpoint of step 3
    out = tmp_path / "out"
    code = cli.main([command, "--config", _ini_for_small(tmp_path),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "cycle 0, step 3 (midpoint): force balance did not converge" in err
    assert "Traceback" not in err
    assert not os.listdir(out)


def test_sweep_rejects_empty_grid():
    cfg = small_cfg()
    cfg.phi_grid = ()
    with pytest.raises(ValueError):
        harness.run_sweep(cfg)


def test_perfbench_tracer_wraps_and_restores_its_entry_points():
    """perfbench/tracing.py wraps named functions of the package from
    outside it (``harness.simulate_trial``, ``sim.body_center``, ...).  A
    renamed or removed one fails here, not in a traced benchmark round; a
    traced batched and solo experiment run, and uninstall restores every
    original."""
    path = os.path.join(os.path.dirname(CONFIGS), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bound = [(sim, name) for name in (
        "simulate_trial", "build_contacts", "solve_quasistatic_velocity",
        "contact_forces", "compute_joint_torques", "body_center")] + [
        (harness, "simulate_trial"), (gait.BodyWave, "angles_and_rates"),
        (percept.OnlineLoadPipeline, "push_raw"),
        (percept.OnlineLoadPipeline, "cycle_median")]
    before = [getattr(owner, name) for owner, name in bound]
    tracer = tracing.Tracer().install()
    try:
        assert all(getattr(owner, name) is not raw
                   for (owner, name), raw in zip(bound, before))
        cfg = small_cfg()
        harness.run_model_torque(cfg)
        harness.run_calibrate(cfg)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is raw
               for (owner, name), raw in zip(bound, before))
    assert harness.simulate_trial is sim.simulate_trial
    metrics = tracing.layer_metrics(tracer, 0)
    assert metrics["sim.trials"] == 1            # the calibration trial
    assert metrics["sim.trials_unique"] == 1
    # its solves carry its terrain regime, and its load pipeline ran
    assert metrics["sim.solve_s.40mm"] > 0
    assert metrics["percept.online_load_s"] > 0
    # two solves a step: one cycle for the model-torque batch, then the
    # calibration trial
    assert metrics["sim.solves"] == 2 * cfg.steps_per_cycle * (
        1 + cfg.sweep_cycles)


def test_perfbench_check_defaults_are_the_component_defaults():
    """perfbench/checks.py keeps its own copy of the robot, ground and
    controller defaults, so that its checks stay independent of the
    program; a default changed on one side only fails here."""
    path = os.path.join(os.path.dirname(CONFIGS), "perfbench", "checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    components = [model.RobotModel(), model.GroundModel(),
                  ControllerParams()]
    for key, value in checks.DEFAULTS.items():
        owners = [c for c in components if hasattr(c, key)]
        assert len(owners) == 1, key
        assert getattr(owners[0], key) == value, key
    assert checks.GRAVITY == model.GRAVITY
    assert checks.N_SEGMENTS == model.RobotModel().n_segments


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


def test_classifiers_are_trained_on_the_dataset_csv_split(tmp_path):
    """Each joint's KNN holds exactly the training half of its dataset.csv
    rows under the documented split: a permutation of the joint's rows
    seeded from SeedSequence([seed, 200]), the first half for training."""
    cfg = RunConfig.from_ini(os.path.join(CONFIGS, "quick.ini"))
    cfg.validate()
    res = harness.run_classifier_eval(cfg, out_dir=tmp_path)
    with open(tmp_path / "dataset.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    seed = np.random.SeedSequence([cfg.seed, 200]).generate_state(1)[0]
    for joint in ("upper", "lower", "tail"):
        mine = [r for r in rows if r["joint"] == joint]
        idx = np.random.default_rng(int(seed)).permutation(len(mine))
        train = [mine[i] for i in idx[:len(mine) // 2]]
        clf = res.classifiers[joint]
        np.testing.assert_allclose(
            clf.features * clf.scale + clf.mean,
            [(float(r["tau_m_pct"]), float(r["phi_rad"])) for r in train],
            rtol=0, atol=5e-10)
        np.testing.assert_array_equal(
            clf.labels, [int(r["depth_mm"]) for r in train])


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


@pytest.mark.parametrize("entropy, subseed", [
    ((12345, 100, 0, 0, 0), 3300683279), ((12345, 9999), 4110949668),
    ((0,), 2968811710), ((2**64 + 5, 400, 2), 1594923272),
    ((2**32 - 1, 100, 2, 6, 299), 665524075)])
def test_subseed_literal_values(entropy, subseed):
    """Pinned values of the hash every seeded stream starts from."""
    assert harness._subseed(*entropy) == subseed


def _oracle_subseed(*entropy):
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


# masters of one, two and three 32-bit words
MASTERS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5]


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(MASTERS), st.integers(0, 2**96)),
       st.lists(st.integers(0, 2**40), max_size=6),
       st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_trial_rngs_match_default_rng_bit_for_bit(master, prefix, n, last):
    """The vectorized seeding reproduces numpy's SeedSequence and PCG64
    seeding exactly, and the scalar sub-seed is its one-row case."""
    assert (harness._subseed(master, *prefix, last)
            == _oracle_subseed(master, *prefix, last))
    trials = 0
    for t, rng in enumerate(harness._trial_rngs(n, master, *prefix)):
        oracle = np.random.default_rng(_oracle_subseed(master, *prefix, t))
        np.testing.assert_array_equal(rng.uniform(-1.0, 1.0, 3),
                                      oracle.uniform(-1.0, 1.0, 3))
        np.testing.assert_array_equal(rng.standard_normal(7),
                                      oracle.standard_normal(7))
        trials += 1
    assert trials == n


def test_trial_cycle_medians_over_trial_rngs_equals_fresh_generators():
    """The re-seeded generator, consumed one trial at a time by the load
    pipeline, gives the medians of one fresh generator per trial."""
    cfg = RunConfig().load_cfg()
    torques = 0.3 * np.random.default_rng(8).standard_normal((60, 3))
    fresh = [np.random.default_rng(harness._subseed(7, 100, 1, 2, t))
             for t in range(25)]
    np.testing.assert_array_equal(
        percept.trial_cycle_medians(torques, 20, cfg,
                                    harness._trial_rngs(25, 7, 100, 1, 2)),
        percept.trial_cycle_medians(torques, 20, cfg, fresh))


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
