"""The benchmark's three workloads.

Each workload is a fixed sequence of public experiment calls
(``harness.run_*``) on configurations the benchmark generates from the
workload seed.  The seed only sets the program's master seed, so every seed
asks for the same amount of work; the program sees nothing but the INI files
written here.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("openloop", "classify", "adaptive")

#: The paper's seven body phase offsets, 0 to -pi/2 in steps of pi/12.
PHI_GRID = tuple(-i * math.pi / 12 for i in range(7))

#: Blend ratios of the model-torque experiment.
RHO_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Phase offsets ``run_model_torque`` evaluates (it fixes them itself).
MODEL_TORQUE_PHIS = 2

#: [experiment] keys per workload and size.  ``full`` is what the benchmark
#: measures; ``tiny`` is the smallest size at which every check still holds,
#: used by the benchmark's own test.
SIZES = {
    "full": {
        "openloop": dict(steps_per_cycle=25, depths=(0.0, 20.0, 40.0),
                         phi_grid=PHI_GRID, sweep_trials=2, sweep_cycles=1,
                         rho_grid=RHO_GRID),
        "classify": dict(steps_per_cycle=20, phi_grid=PHI_GRID,
                         classify_cycles=1, classify_trials_per_cell=300,
                         knn_k=6),
        "adaptive": dict(steps_per_cycle=20, sweep_cycles=2,
                         closedloop_cycles=24, closedloop_depth=40.0,
                         closedloop_phi_init=0.0, transition_cycles=25),
    },
    "tiny": {
        "openloop": dict(steps_per_cycle=25, depths=(0.0, 20.0, 40.0),
                         phi_grid=PHI_GRID[::2], sweep_trials=1,
                         sweep_cycles=1, rho_grid=RHO_GRID[::2]),
        "classify": dict(steps_per_cycle=20, phi_grid=PHI_GRID,
                         classify_cycles=1, classify_trials_per_cell=20,
                         knn_k=6),
        "adaptive": dict(steps_per_cycle=10, sweep_cycles=1,
                         closedloop_cycles=24, closedloop_depth=40.0,
                         closedloop_phi_init=0.0, transition_cycles=25),
    },
}

#: Output directory of each experiment call, per workload.
OUT_DIRS = {
    "openloop": ("sweep", "model_torque"),
    "classify": ("classify",),
    "adaptive": ("calibrate", "closedloop_40", "closedloop_0", "transition"),
}


def master_seed(workload, seed):
    """The program's master seed for one workload seed (63 bits)."""
    return random.Random(f"{workload}/{seed}").getrandbits(63)


def configs(workload, seed, size="full"):
    """Named [experiment] settings of every config the workload loads."""
    params = dict(SIZES[size][workload], seed=master_seed(workload, seed))
    out = {"main": params}
    if workload == "adaptive":
        # On flat ground phi* = 0 is also the starting phase, so half the
        # cycles show the same path at half the cost.
        out["flat"] = dict(params, closedloop_depth=0.0,
                           closedloop_cycles=params["closedloop_cycles"] // 2)
    return out


def write_configs(workload, seed, directory, size="full"):
    """Write one INI file per config; returns ``{name: path}``."""
    paths = {}
    for name, params in configs(workload, seed, size).items():
        path = os.path.join(directory, f"{name}.ini")
        with open(path, "w") as fh:
            fh.write("[experiment]\n")
            for key, val in params.items():
                if isinstance(val, tuple):
                    val = ", ".join(repr(float(v)) for v in val)
                fh.write(f"{key} = {val}\n")
        paths[name] = path
    return paths


def run(workload, harness, cfgs, out):
    """The workload's experiment calls, in order; returns their results.

    Entry points are looked up on ``harness`` at call time so that a traced
    round sees its wrappers.
    """
    main = cfgs["main"]
    if workload == "openloop":
        return {"sweep": harness.run_sweep(main, out["sweep"]),
                "model_torque": harness.run_model_torque(
                    main, out["model_torque"])}
    if workload == "classify":
        return {"classify": harness.run_classifier_eval(main, out["classify"])}
    calib = harness.run_calibrate(main, out["calibrate"])
    return {
        "calibrate": calib,
        "closedloop_40": harness.run_closedloop(
            main, out["closedloop_40"], calibration=calib),
        "closedloop_0": harness.run_closedloop(
            cfgs["flat"], out["closedloop_0"], calibration=calib),
        "transition": harness.run_transition(
            main, out["transition"], calibration=calib),
    }


def operations(workload, p):
    """Trials the experiments ask for in one round (classify: virtual trials)."""
    if workload == "openloop":
        return (len(p["depths"]) * len(p["phi_grid"]) * p["sweep_trials"]
                + MODEL_TORQUE_PHIS * len(p["rho_grid"]))
    if workload == "classify":
        return 3 * len(p["phi_grid"]) * p["classify_trials_per_cell"]
    return 1 + 2 + 3     # calibration, two closed loops, three transition modes


def steps(workload, p):
    """Timesteps of trial data one round delivers."""
    spc = p["steps_per_cycle"]
    if workload == "openloop":
        sweep = (len(p["depths"]) * len(p["phi_grid"]) * p["sweep_trials"]
                 * p["sweep_cycles"])
        return spc * (sweep + MODEL_TORQUE_PHIS * len(p["rho_grid"]))
    if workload == "classify":
        return (spc * 3 * len(p["phi_grid"]) * p["classify_trials_per_cell"]
                * p["classify_cycles"])
    return spc * (p["sweep_cycles"] + p["closedloop_cycles"]
                  + p["closedloop_cycles"] // 2 + 3 * p["transition_cycles"])


def failed(workload, results):
    """Trials that failed in one round (only the sweep records failures)."""
    if workload == "openloop":
        return len(results["sweep"].failures)
    return 0
