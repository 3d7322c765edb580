"""Count the force-balance solver's work per solve, regime by regime.

    python scripts/solver_calls.py SRC

SRC is the ``src`` directory of a granugait tree.  The script imports that
tree's package, wraps ``sim.solve_quasistatic_velocity`` and the
``_Dissipation`` methods ``value`` (one Psi evaluation) and
``derivatives`` (one gradient and Newton matrix) from outside, and prints
a Markdown table of calls per solve:

- one solo trial at 0, 20 and 40 mm (``configs/default.ini`` settings,
  2 cycles at phase offset -pi/6);
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

REGIMES = ("0 mm solo", "20 mm solo", "40 mm solo", "transition batch")


def count_calls(src):
    """``{regime: (gradient calls, Psi calls)}``, each a list with one
    count per solve."""
    sys.path.insert(0, os.path.abspath(src))
    from granugait import harness, sim
    from granugait.config import RunConfig
    from granugait.model import TerrainProfile

    counts = {}
    current = {"grad": 0, "psi": 0}
    regime = [None]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            current[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_solve = sim.solve_quasistatic_velocity

    def solve(*args, **kwargs):
        current["grad"] = current["psi"] = 0
        try:
            return real_solve(*args, **kwargs)
        finally:
            if regime[0] is not None:
                grads, psis = counts.setdefault(regime[0], ([], []))
                grads.append(current["grad"])
                psis.append(current["psi"])

    pot = sim._Dissipation
    real_value, real_derivatives = pot.value, pot.derivatives
    pot.value = counting("psi", real_value)
    pot.derivatives = counting("grad", real_derivatives)
    sim.solve_quasistatic_velocity = solve
    try:
        cfg = RunConfig()
        for depth in (0.0, 20.0, 40.0):
            regime[0] = f"{depth:.0f} mm solo"
            harness._simulate(cfg, -math.pi / 6,
                              TerrainProfile.constant(depth), 2, 0)
        small = RunConfig(steps_per_cycle=20, transition_cycles=25)
        regime[0] = None
        calib = harness.run_calibrate(small)
        regime[0] = "transition batch"
        harness.run_transition(small, calibration=calib)
    finally:
        sim.solve_quasistatic_velocity = real_solve
        pot.value, pot.derivatives = real_value, real_derivatives
    return counts


def table(counts):
    lines = ["| regime | solves | gradient/Hessian calls per solve (max) "
             "| Psi calls per solve (max) |",
             "| --- | --- | --- | --- |"]
    for regime in REGIMES:
        grads, psis = counts[regime]
        lines.append(f"| {regime} | {len(grads)} "
                     f"| {sum(grads) / len(grads):.2f} ({max(grads)}) "
                     f"| {sum(psis) / len(psis):.2f} ({max(psis)}) |")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="src directory of a granugait tree")
    args = ap.parse_args(argv)
    print(table(count_calls(args.src)))


if __name__ == "__main__":
    main()
