"""Count the force-balance solver's work per solve, regime by regime.

    python scripts/solver_calls.py SRC

SRC is the ``src`` directory of a granugait tree.  The script imports that
tree's package, wraps ``sim.solve_quasistatic_velocity`` and the
``_Dissipation`` methods from outside, and prints a Markdown table of
calls per solve in three columns:

- gradient calls (``gradient``);
- Newton-matrix calls (``newton_matrix``);
- Psi calls (``value``).

The regimes are:

- one solo trial at 0, 20 and 40 mm (``configs/default.ini`` settings,
  2 cycles at phase offset -pi/6), each split into its cycle 0 and its
  later cycles;
- the transition batch of three trials at 20 steps per cycle over
  25 cycles, the size the benchmark's ``adaptive`` workload runs.

A lock-step batch counts one call per batched call.  The counts are
deterministic, so the tables of two trees can be compared line by line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

SOLO_DEPTHS = (0.0, 20.0, 40.0)
SOLO_CYCLES = 2
COLUMNS = (("grad", "gradient"), ("matrix", "Newton-matrix"), ("psi", "Psi"))


def _solo(depth):
    return f"{depth:.0f} mm solo"


REGIMES = tuple(f"{_solo(d)}, {part}" for d in SOLO_DEPTHS
                for part in ("cycle 0", "cycles 1+")) + ("transition batch",)


def count_calls(src):
    """``{regime: {column: counts}}``, each list of counts with one entry
    per solve, for the columns of ``COLUMNS``."""
    sys.path.insert(0, os.path.abspath(src))
    from granugait import harness, sim
    from granugait.config import RunConfig
    from granugait.model import TerrainProfile

    solves = {}
    current = dict.fromkeys([name for name, _ in COLUMNS], 0)
    regime = [None]

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            current[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_solve = sim.solve_quasistatic_velocity

    def solve(*args, **kwargs):
        for name in current:
            current[name] = 0
        try:
            return real_solve(*args, **kwargs)
        finally:
            if regime[0] is not None:
                solves.setdefault(regime[0], []).append(dict(current))

    pot = sim._Dissipation
    methods = {"value": "psi", "gradient": "grad", "newton_matrix": "matrix"}
    real = {m: getattr(pot, m) for m in methods}
    for m, name in methods.items():
        setattr(pot, m, counting(real[m], name))
    sim.solve_quasistatic_velocity = solve
    try:
        cfg = RunConfig()
        for depth in SOLO_DEPTHS:
            regime[0] = _solo(depth)
            harness._simulate(cfg, -math.pi / 6,
                              TerrainProfile.constant(depth), SOLO_CYCLES, 0)
        small = RunConfig(steps_per_cycle=20, transition_cycles=25)
        regime[0] = None
        calib = harness.run_calibrate(small)
        regime[0] = "transition batch"
        harness.run_transition(small, calibration=calib)
    finally:
        sim.solve_quasistatic_velocity = real_solve
        for m in methods:
            setattr(pot, m, real[m])

    # A solo trial solves twice per step: the step and its midpoint.
    per_cycle = 2 * cfg.steps_per_cycle
    parts = {"transition batch": solves["transition batch"]}
    for depth in SOLO_DEPTHS:
        runs = solves[_solo(depth)]
        parts[f"{_solo(depth)}, cycle 0"] = runs[:per_cycle]
        parts[f"{_solo(depth)}, cycles 1+"] = runs[per_cycle:]
    return {regime: {name: [run[name] for run in runs] for name, _ in COLUMNS}
            for regime, runs in parts.items()}


def table(counts):
    lines = ["| regime | solves | "
             + " | ".join(f"{label} calls per solve (max)"
                          for _, label in COLUMNS) + " |",
             "| --- | --- |" + " --- |" * len(COLUMNS)]
    for regime in REGIMES:
        cells = [f"{sum(c) / len(c):.2f} ({max(c)})"
                 for c in (counts[regime][name] for name, _ in COLUMNS)]
        n = len(counts[regime][COLUMNS[0][0]])
        lines.append(f"| {regime} | {n} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="src directory of a granugait tree")
    args = ap.parse_args(argv)
    print(table(count_calls(args.src)))


if __name__ == "__main__":
    main()
