"""Run one granugait benchmark workload and print its metrics.

    python3 perfbench/run.py --workload openloop --seed 1 --seconds 30 --trace 0

Each round runs in a fresh single-threaded Python process (``worker.py``)
that imports the package from ``src/``, loads the generated configs and runs
the workload's experiment calls once.  Rounds repeat until ``--seconds`` of
measuring time are used; the first round is followed by the correctness
checks, whose time does not count.  With ``--trace 1`` every other round is
traced, and the per-layer figures come from the traced rounds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any error (the package missing, a
worker crashing or overrunning) exits with code 1 and prints no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0           # every run exits well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"wall_s": "s", "trial_steps_per_s": "steps/s", "setup_s": "s",
             "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def layer_unit(name):
    if name.startswith("sim.force_evals_per_solve."):
        return "evals/solve"
    return "s" if name.endswith("_s") or "_s." in name else "count"


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_round(args, configs_dir, round_dir, trace, check, deadline):
    """One worker process; returns its report plus set-up time and the
    hash of its CSV outputs."""
    round_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--configs", str(configs_dir), "--dir", str(round_dir),
           "--trace", str(int(trace)), "--check", str(int(check))]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT,
                            stdout=sys.stderr.fileno())
    try:
        code = proc.wait(timeout=max(deadline - t_spawn, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker overran the run's time limit") from None
    t_end = time.monotonic()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    with open(round_dir / "report.json") as fh:
        report = json.load(fh)
    report.update(traced=trace, setup_s=report["setup_end"] - t_spawn,
                  round_s=t_end - t_spawn,
                  hash=checks.hash_csvs(round_dir / "out"))
    return report


def measure(args, run_dir, configs_dir):
    """Rounds until ``--seconds`` of measuring time are used."""
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    rounds, check_s = [], 0.0
    while True:
        i = len(rounds)
        traced = bool(args.trace) and i % 2 == 1
        rep = run_round(args, configs_dir, run_dir / f"round{i}", traced,
                        i == 0, deadline)
        if traced:
            spans = STATE / "spans" / f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(run_dir / f"round{i}" / "spans.json"), spans)
        shutil.rmtree(run_dir / f"round{i}")
        rounds.append(rep)
        check_s += rep.get("check_s", 0.0)
        if args.trace and len(rounds) < 2:
            continue
        used = time.monotonic() - t_start - check_s
        longest = max(r["round_s"] - r.get("check_s", 0.0) for r in rounds)
        if used + longest > args.seconds:
            return rounds


def inputs_digest(configs_dir):
    """Digest of the package source and the generated configs."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
            configs_dir.glob("*.ini")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def hashes_agree(args, rounds, digest):
    """CSV outputs identical in every round, and in every earlier run of
    this workload and seed on the same source and configs."""
    seen = {r["hash"] for r in rounds}
    store = STATE / "hashes.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{args.workload}/{args.seed}/{digest}"
    seen.add(known.setdefault(key, rounds[0]["hash"]))
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return len(seen) == 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "granugait").is_dir():
        print("error: no granugait package under src/", file=sys.stderr)
        return 1
    run_dir = STATE / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    configs_dir = run_dir / "configs"
    configs_dir.mkdir(parents=True)
    try:
        workloads.write_configs(args.workload, args.seed, configs_dir)
        rounds = measure(args, run_dir, configs_dir)
        digest = inputs_digest(configs_dir)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    params = workloads.configs(args.workload, args.seed)["main"]
    failures = rounds[0]["check_failures"]
    if not hashes_agree(args, rounds, digest):
        failures.append("CSV outputs differ between runs of one seed")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        names = traced[0]["layers"]
        values = {n: statistics.median(r["layers"][n] for r in traced)
                  for n in names}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - wall)
        metrics = {n: {"value": v, "unit": layer_unit(n)}
                   for n, v in values.items()}
    else:
        values = {
            "wall_s": wall,
            "trial_steps_per_s": workloads.steps(args.workload, params) / wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]}
                   for n, v in values.items()}

    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds, wall s "
          + " ".join(f"{r['wall_s']:.4f}{'t' * r['traced']}" for r in rounds))
    for name, m in metrics.items():
        share = (f"  {100 * m['value'] / wall:6.2f}% of wall"
                 if args.trace and m["unit"] == "s" else "")
        print(f"{name:36s} {m['value']:16.6f} {m['unit']}{share}")
    print(json.dumps({
        "correct": not failures,
        "attempted": workloads.operations(args.workload, params) * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
