"""In-process A/B timing of two granugait trees on a benchmark workload.

    python scripts/ab.py PARENT CHANGE --workload openloop --pairs 10

PARENT and CHANGE are tree roots, each holding ``src/granugait``.  Both
packages are imported into this one process under different names, so a
host whose speed drifts between processes (or over a run) slows both sides
alike.  The workload is the benchmark's own: this repository's
``perfbench/workloads.py`` writes its configs and makes its experiment
calls, and nothing under ``perfbench/`` is changed.

Each tree first runs the workload once untimed; the two output trees are
then compared as ``scripts/compare_outputs.py`` does.  Then come ``--pairs``
timed pairs, alternating which side runs first.  For every pair the script
takes the change/parent ratio of the wall times, and it prints the median
ratio with its quartiles, the number of pairs the change won (ratio
below 1) and each side's median time.  ``--json PATH`` also writes these
figures and every pair's times.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _load(name, path, package_dir=None):
    """Import the module (or package, from its ``__init__.py``) at ``path``
    under ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=(
            None if package_dir is None else [str(package_dir)]))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(tree, name):
    """The granugait package of ``tree`` as the top-level package ``name``;
    returns its ``harness`` and ``config`` modules."""
    pkg = Path(tree) / "src" / "granugait"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no src/granugait package under {tree}")
    _load(name, pkg / "__init__.py", pkg)
    return (importlib.import_module(f"{name}.harness"),
            importlib.import_module(f"{name}.config"))


class Side:
    """One tree's experiment calls on the workload's configs."""

    def __init__(self, tree, name, workloads, workload, config_paths):
        self.harness, config = load_tree(tree, name)
        self.workloads, self.workload = workloads, workload
        self.cfgs = {}
        for key, path in config_paths.items():
            cfg = config.RunConfig.from_ini(path)
            cfg.validate()
            self.cfgs[key] = cfg

    def run(self, out_root):
        """One untraced round writing under ``out_root``; its wall time."""
        out = {d: os.path.join(out_root, d)
               for d in self.workloads.OUT_DIRS[self.workload]}
        for d in out.values():
            os.makedirs(d)
        gc.collect()
        t0 = time.perf_counter()
        self.workloads.run(self.workload, self.harness, self.cfgs, out)
        return time.perf_counter() - t0


def ab(parent, change, workload, pairs, seed, scratch):
    """Time ``pairs`` alternating pairs; returns the result record."""
    workloads = _load("_ab_workloads", ROOT / "perfbench" / "workloads.py")
    compare = _load("_ab_compare", ROOT / "scripts" / "compare_outputs.py")
    paths = workloads.write_configs(workload, seed, scratch)
    sides = {s: Side(tree, f"_ab_{s}", workloads, workload, paths)
             for s, tree in zip(SIDES, (parent, change))}

    for s in SIDES:
        sides[s].run(os.path.join(scratch, "warmup", s))
    print("outputs, parent against change:")
    warmup = os.path.join(scratch, "warmup")
    differing = compare.compare_trees(os.path.join(warmup, "parent"),
                                      os.path.join(warmup, "change"))

    times = {s: [] for s in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for s in order:
            times[s].append(sides[s].run(
                os.path.join(scratch, f"pair{i}", s)))
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"workload": workload, "seed": seed, "pairs": pairs,
            "ratio_median": med, "ratio_q1": q1, "ratio_q3": q3,
            "won": sum(r < 1.0 for r in ratios),
            "parent_median_s": statistics.median(times["parent"]),
            "change_median_s": statistics.median(times["change"]),
            "files_differing": differing,
            "parent_s": times["parent"], "change_s": times["change"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT", help="parent tree root")
    ap.add_argument("change", metavar="CHANGE", help="changed tree root")
    ap.add_argument("--workload", required=True,
                    choices=("openloop", "classify", "adaptive"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--json", help="also write the result record here")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    # one thread, as in perfbench's workers; numpy is imported after this
    os.environ.update({var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as scratch:
        rec = ab(args.parent, args.change, args.workload, args.pairs,
                 args.seed, scratch)
    print(f"{rec['workload']}: change/parent {rec['ratio_median']:.3f} "
          f"(quartiles {rec['ratio_q1']:.3f}-{rec['ratio_q3']:.3f}), "
          f"change won {rec['won']}/{rec['pairs']}; median "
          f"{rec['parent_median_s']:.3f} s -> {rec['change_median_s']:.3f} s")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rec, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
