"""In-memory span tracer that wraps the public functions of each granugait
layer from outside the package.

A span is ``[name, start, end, parent, attr]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at the
top) and ``attr`` the terrain regime for trial and solve spans.  Counts that
have no span of their own (force evaluations, solver errors) go into
``Tracer.counts``.  Nothing under ``src/`` changes: ``install`` swaps module
and class attributes for wrappers and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import collections
import inspect
import json
from time import perf_counter

REGIMES = ("0mm", "20mm", "40mm", "ramp", "rho")
EXPERIMENTS = ("run_sweep", "run_model_torque", "run_classifier_eval",
               "run_calibrate", "run_closedloop", "run_transition")


def trial_regime(terrain, rho_override):
    """Regime of one trial, from its blend-ratio override or terrain label."""
    if rho_override is not None:
        return "rho"
    label = terrain.label
    if label == "flat":
        return "0mm"
    if label.startswith("ramp-"):
        return "ramp"
    if label.startswith("constant-") and label.endswith("mm"):
        return f"{float(label[len('constant-'):-2]):g}mm"
    return "other"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.trial_keys = set()
        self._stack = []
        self._regime = []
        self._patches = []
        self._force_evals = 0

    # -- recording ---------------------------------------------------------
    def _enter(self, name, attr=None):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, attr]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _exit(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
        return wrapper

    def _trial(self, fn):
        tracer = self
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            regime = trial_regime(a["terrain"], a["rho_override"])
            if a["controller"] is None:
                tracer.trial_keys.add((repr(a["params"]), a["terrain"].label,
                                       a["n_cycles"], a["steps_per_cycle"],
                                       a["rho_override"]))
            else:
                tracer.trial_keys.add(("controlled", len(tracer.spans)))
            tracer._regime.append(regime)
            rec = tracer._enter("sim.trial", regime)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
                tracer._regime.pop()
        return wrapper

    def _solve(self, fn, solver_error):
        tracer = self

        def wrapper(*args, **kwargs):
            regime = tracer._regime[-1] if tracer._regime else "other"
            evals0 = tracer._force_evals
            rec = tracer._enter("sim.solve", regime)
            try:
                return fn(*args, **kwargs)
            except solver_error:
                tracer.counts["sim.solver_errors"] += 1
                raise
            finally:
                tracer._exit(rec)
                tracer.counts[f"force_evals.{regime}"] += (
                    tracer._force_evals - evals0)
        return wrapper

    def _count_force_evals(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._force_evals += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced entry point; returns ``self``."""
        from granugait import config, control, gait, harness, percept, sim
        from granugait.errors import SolverError

        def named(name):
            return lambda fn: self.span(name, fn)

        self._patch(gait.BodyWave, "angles_and_rates", named("gait.wave"))
        self._patch(sim, "simulate_trial", self._trial)
        self._patch(harness, "simulate_trial", self._trial)
        self._patch(sim, "build_contacts", named("sim.contacts"))
        self._patch(sim, "solve_quasistatic_velocity",
                    lambda fn: self._solve(fn, SolverError))
        self._patch(sim, "contact_forces", self._count_force_evals)
        self._patch(sim, "compute_joint_torques", named("sim.torques"))
        self._patch(sim, "body_center", named("sim.center"))
        self._patch(percept.OnlineLoadPipeline, "push_raw",
                    named("percept.online_load"))
        self._patch(percept.OnlineLoadPipeline, "cycle_median",
                    named("percept.online_load"))
        self._patch(percept, "trial_cycle_medians", named("percept.offline_load"))
        self._patch(percept, "knn_train", named("percept.knn_train"))
        self._patch(percept, "knn_classify", named("percept.knn_query"))
        self._patch(percept, "write_dataset", named("percept.dataset_write"))
        self._patch(control.PhaseController, "__call__", named("control.update"))
        for exp in EXPERIMENTS:
            self._patch(harness, exp, named(f"harness.{exp}"))
        self._patch(config.RunConfig, "from_ini", named("config.load"))
        self._patch(config.RunConfig, "validate", named("config.load"))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attr"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def self_times(spans):
    """Each span's duration minus the part of it that child spans cover."""
    children = collections.defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def layer_metrics(tracer, runtime_warnings):
    """Per-layer values (name -> number) of one traced round."""
    spans = tracer.spans
    selfs = self_times(spans)
    total = collections.defaultdict(float)
    calls = collections.Counter()
    self_total = collections.defaultdict(float)
    for (name, start, end, parent, attr), own in zip(spans, selfs):
        nested = parent >= 0 and spans[parent][0] == name
        if not nested:
            total[name] += end - start
        calls[name] += 1
        self_total[name] += own
        if name == "sim.solve":
            total[f"sim.solve.{attr}"] += end - start
            calls[f"sim.solve.{attr}"] += 1
    counts = tracer.counts
    m = {
        "gait.wave_s": total["gait.wave"],
        "gait.wave_calls": calls["gait.wave"],
        "sim.trial_s": total["sim.trial"],
        "sim.trials": calls["sim.trial"],
        "sim.trial_self_s": self_total["sim.trial"],
        "sim.trials_unique": len(tracer.trial_keys),
        "sim.contacts_s": total["sim.contacts"],
        "sim.contacts_calls": calls["sim.contacts"],
        "sim.solve_s": total["sim.solve"],
        "sim.solves": calls["sim.solve"],
    }
    for r in REGIMES:
        n = calls[f"sim.solve.{r}"]
        m[f"sim.solve_s.{r}"] = total[f"sim.solve.{r}"]
        m[f"sim.force_evals_per_solve.{r}"] = (
            counts[f"force_evals.{r}"] / n if n else 0.0)
    m.update({
        "sim.force_evals": sum(v for k, v in counts.items()
                               if k.startswith("force_evals.")),
        "sim.solver_errors": counts["sim.solver_errors"],
        "sim.torques_s": total["sim.torques"],
        "sim.center_s": total["sim.center"],
        "sim.overflow_warnings": runtime_warnings,
        "percept.online_load_s": total["percept.online_load"],
        "percept.offline_load_s": total["percept.offline_load"],
        "percept.offline_load_calls": calls["percept.offline_load"],
        "percept.knn_train_s": total["percept.knn_train"],
        "percept.knn_query_s": total["percept.knn_query"],
        "percept.knn_queries": calls["percept.knn_query"],
        "percept.dataset_write_s": total["percept.dataset_write"],
        "control.update_s": total["control.update"],
        "control.updates": calls["control.update"],
    })
    for exp in EXPERIMENTS:
        m[f"harness.{exp}_s"] = total[f"harness.{exp}"]
    m["harness.self_s"] = sum(self_total[f"harness.{exp}"]
                              for exp in EXPERIMENTS)
    m["config.load_s"] = total["config.load"]
    return m
