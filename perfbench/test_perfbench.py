"""Fast self-test of the benchmark.

Each workload runs in-process at its tiny size and passes every check, and a
deliberately corrupted output makes the matching check fail.
"""

import csv
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from granugait import harness, model  # noqa: E402
from granugait.config import RunConfig  # noqa: E402

SEED = 3


def run_tiny(workload, root):
    paths = workloads.write_configs(workload, SEED, root, size="tiny")
    params = workloads.configs(workload, SEED, "tiny")
    cfgs = {name: RunConfig.from_ini(path) for name, path in paths.items()}
    out = {}
    for name in workloads.OUT_DIRS[workload]:
        out[name] = str(root / name)
        Path(out[name]).mkdir()
    results = workloads.run(workload, harness, cfgs, out)
    evidence = checks.gather(workload, cfgs, params, results, out, SEED)
    return params, out, evidence


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def tiny_run(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    return (request.param, root) + run_tiny(request.param, root)


def test_tiny_workload_passes_every_check(tiny_run):
    workload, _, params, out, evidence = tiny_run
    assert checks.verify(workload, params, out, evidence) == []


def test_corrupted_output_fails_its_check(tiny_run):
    workload, root, params, out, evidence = tiny_run
    evidence = dict(evidence)
    if workload == "openloop":
        # A perturbed twist no longer balances the contact forces.
        state = dict(evidence["states"][0])
        state["xi"] = state["xi"] + [1e-4, 0.0, 0.0]
        evidence["states"] = [state] + evidence["states"][1:]
        expect = "net force"
    elif workload == "classify":
        # A flipped KNN label disagrees with the brute-force oracle.
        joint, tau, phi, pred = evidence["predictions"][0]
        flipped = next(c for c in checks.DEPTH_CLASSES if c != pred)
        evidence["predictions"] = ([(joint, tau, phi, flipped)]
                                   + evidence["predictions"][1:])
        expect = "brute force"
    else:
        # An edited phase row breaks the controller recursion.
        edited = root / "edited"
        shutil.copytree(out["closedloop_40"], edited)
        path = edited / "closedloop.csv"
        rows = list(csv.reader(path.open()))
        rows[5][1] = f"{float(rows[5][1]) + 1e-3:.9f}"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = dict(out, closedloop_40=str(edited))
        expect = "controller law"
    bad = checks.verify(workload, params, out, evidence)
    assert any(expect in msg for msg in bad), bad


def test_self_time_subtracts_covered_part_of_children():
    spans = [["a", 0.0, 10.0, -1, None],
             ["b", 1.0, 3.0, 0, None],
             ["c", 2.0, 5.0, 0, None],      # overlaps b: covered is [1, 5]
             ["d", 6.0, 7.0, 0, None],
             ["e", 6.5, 6.75, 3, None]]
    assert tracing.self_times(spans) == [5.0, 2.0, 3.0, 0.75, 0.25]


def test_trial_regime_names():
    assert tracing.trial_regime(model.TerrainProfile.constant(0.0), None) == "0mm"
    assert tracing.trial_regime(model.TerrainProfile.constant(20), None) == "20mm"
    assert tracing.trial_regime(model.TerrainProfile.ramp(0.02, 0.45), None) == "ramp"
    assert tracing.trial_regime(model.TerrainProfile.flat(), 0.5) == "rho"

