"""One benchmark round in a fresh process.

Loads the generated configs as the command line does (``from_ini``, then
``validate``), runs the workload's experiment calls under a wall clock,
optionally traced, optionally followed by the correctness checks, and writes
a JSON report.  ``run.py`` starts this script; it is not meant to be run by
hand.
"""

import argparse
import json
import os
import resource
import sys
import time
import warnings


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--configs", required=True, help="directory of INI files")
    ap.add_argument("--dir", required=True, help="this round's directory")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", type=int, default=0)
    args = ap.parse_args()

    from granugait import harness
    from granugait.config import RunConfig
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
    params = workloads.configs(args.workload, args.seed)
    cfgs = {}
    for name in params:
        cfg = RunConfig.from_ini(os.path.join(args.configs, f"{name}.ini"))
        cfg.validate()
        cfgs[name] = cfg
    out = {}
    for name in workloads.OUT_DIRS[args.workload]:
        out[name] = os.path.join(args.dir, "out", name)
        os.makedirs(out[name])

    with warnings.catch_warnings(record=bool(tracer)) as caught:
        if tracer:
            warnings.simplefilter("always", RuntimeWarning)
        setup_end = time.monotonic()
        t0 = time.perf_counter()
        results = workloads.run(args.workload, harness, cfgs, out)
        wall = time.perf_counter() - t0

    peak_kib = max(resource.getrusage(who).ru_maxrss for who in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    report = {"setup_end": setup_end, "wall_s": wall,
              "peak_rss_mb": peak_kib / 1024.0,
              "failed": workloads.failed(args.workload, results)}
    if tracer:
        tracer.uninstall()
        n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        report["layers"] = tracing.layer_metrics(tracer, n_warn)
        tracer.write(os.path.join(args.dir, "spans.json"))
    if args.check:
        import checks
        t0 = time.perf_counter()
        evidence = checks.gather(args.workload, cfgs, params, results, out,
                                 args.seed)
        report["check_failures"] = checks.verify(args.workload, params, out,
                                                 evidence)
        report["check_s"] = time.perf_counter() - t0
    with open(os.path.join(args.dir, "report.json"), "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
