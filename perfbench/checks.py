"""Correctness checks, computed apart from the program.

``gather`` runs after a round's timed section and asks the program for the
few in-process results the checks need (solved force-balance states, KNN
predictions).  ``verify`` then judges them, together with the round's CSV
outputs, using only the laws and protocols written out in this file.  Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

GRID_STEP = math.pi / 12      # spacing of the phase grid; the check tolerance
BALANCE_TOL = 1e-8            # nondimensional net force / yaw moment
PHI_TOL = 1e-8                # CSV phases are printed to 9 decimals
GRAVITY = 9.81
N_SEGMENTS = 4
DEPTH_CLASSES = (0, 20, 40)
STATES_PER_DEPTH = 8
KNN_QUERIES_PER_JOINT = 60


def optimal_phase(depth_mm):
    """The paper's linear law phi*(d) = -(pi/120) d."""
    return -(math.pi / 120.0) * depth_mm


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def hash_csvs(directory):
    """SHA-256 over every CSV below ``directory``, in path order."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".csv"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, directory).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# openloop

def sample_solved_states(sim, model, cfg, seed):
    """A seeded sample of solved states at each depth of the sweep.

    Re-runs one cycle of one seeded sweep cell per depth (the dynamics do
    not depend on the sensor seed) and records every solve on the way.
    """
    states = []
    real = sim.solve_quasistatic_velocity
    for di, depth in enumerate(cfg.depths):
        rng = np.random.default_rng([seed, di])
        phi = cfg.phi_grid[int(rng.integers(len(cfg.phi_grid)))]
        seen = []

        def recording(contacts, gm, robot, xi0=None):
            xi, F, v, res = real(contacts, gm, robot, xi0)
            seen.append(dict(pos=contacts.pos, axis=contacts.axis,
                             rho=contacts.rho, normal=contacts.normal,
                             vshape=contacts.vshape, ref=contacts.ref,
                             xi=xi, F=F, v=v))
            return xi, F, v, res

        sim.solve_quasistatic_velocity = recording
        try:
            sim.simulate_trial(
                cfg.gait(phi), model.TerrainProfile.constant(depth),
                n_cycles=1, seed=0, robot=cfg.robot(), ground=cfg.ground(),
                steps_per_cycle=cfg.steps_per_cycle, load_cfg=cfg.load_cfg(),
                clamp_limit=cfg.effective_clamp, blend_frac=cfg.blend_frac)
        finally:
            sim.solve_quasistatic_velocity = real
        for i in rng.choice(len(seen), STATES_PER_DEPTH, replace=False):
            states.append(dict(seen[int(i)], depth=float(depth)))
    return states


def check_balance(states, p):
    """Net force and yaw moment vanish under the blended Coulomb/drag law,
    and the program's contact forces are dissipative."""
    mu, eps = p["friction"], p["slip_eps"]
    c_par, c_perp = p["rft_par"], p["rft_perp"]
    f_scale = mu * p["mass"] * GRAVITY
    body_length = N_SEGMENTS * p["segment_length"]
    bad = []
    for s in states:
        r = s["pos"] - s["ref"]
        xi = s["xi"]
        v = xi[:2] + xi[2] * np.stack([-r[:, 1], r[:, 0]], axis=1) + s["vshape"]
        speed = np.sqrt((v * v).sum(axis=1))
        f_coulomb = -mu * s["normal"][:, None] * v / (speed + eps)[:, None]
        a = s["axis"]
        v_par = (v * a).sum(axis=1)
        f_drag = -c_par * v_par[:, None] * a - c_perp * (v - v_par[:, None] * a)
        rho = s["rho"][:, None]
        F = (1.0 - rho) * f_coulomb + rho * f_drag
        net = F.sum(axis=0) / f_scale
        moment = (r[:, 0] * F[:, 1] - r[:, 1] * F[:, 0]).sum() / (
            f_scale * body_length)
        worst = max(abs(net[0]), abs(net[1]), abs(moment))
        if not worst <= BALANCE_TOL:
            bad.append(f"{s['depth']:g} mm: net force/moment {worst:.3e} "
                       f"> {BALANCE_TOL:g}")
        power = (s["F"] * s["v"]).sum(axis=1)
        if not np.all(power <= 0.0):
            bad.append(f"{s['depth']:g} mm: F.v = {power.max():.3e} > 0")
    return bad


def check_sweep(out, p):
    bad = []
    if os.path.exists(os.path.join(out, "sweep_failures.csv")):
        bad.append("sweep recorded failed cells")
    speeds = {}
    for row in read_csv(os.path.join(out, "sweep.csv")):
        s = float(row["speed_blc"])
        if not math.isfinite(s):
            bad.append(f"non-finite speed in {row}")
        speeds.setdefault((row["depth_mm"], row["phi_rad"]), []).append(s)
    per_cell = p["sweep_trials"] * p["sweep_cycles"]
    for depth in p["depths"]:
        cells = {phi: speeds.get((f"{depth:.9f}", f"{phi:.9f}"), [])
                 for phi in p["phi_grid"]}
        if any(len(v) != per_cell for v in cells.values()):
            bad.append(f"{depth:g} mm: a cell lacks rows")
            continue
        best = max(cells, key=lambda phi: np.mean(cells[phi]))
        if not abs(best - optimal_phase(depth)) <= GRID_STEP + 1e-9:
            bad.append(f"{depth:g} mm: argmax phase {best:.4f} is more than "
                       f"pi/12 from {optimal_phase(depth):.4f}")
    return bad


def check_model_torque(out):
    """The lower-joint median torque rises with the blend ratio."""
    bad = []
    by_phi = {}
    for row in read_csv(os.path.join(out, "model_torque.csv")):
        if row["joint"] == "lower":
            by_phi.setdefault(row["phi_rad"], []).append(
                (float(row["ratio"]), float(row["median_tau_tilde"])))
    for phi, pts in by_phi.items():
        tau = [t for _, t in sorted(pts)]
        if not all(b > a for a, b in zip(tau, tau[1:])):
            bad.append(f"phi {phi}: lower-joint torque not rising with "
                       f"blend ratio: {tau}")
    if not by_phi:
        bad.append("model_torque.csv has no lower-joint rows")
    return bad


# ---------------------------------------------------------------------------
# classify

def classify_split(out, p):
    """Per joint, the (train, test) rows of dataset.csv under the program's
    documented split: a permutation seeded from SeedSequence([seed, 200]),
    first half for training."""
    rows = {}
    for row in read_csv(os.path.join(out, "dataset.csv")):
        rows.setdefault(row["joint"], []).append(
            (float(row["tau_m_pct"]), float(row["phi_rad"]),
             int(row["depth_mm"])))
    state = np.random.SeedSequence([int(p["seed"]), 200]).generate_state(1)[0]
    split = {}
    for joint, data in rows.items():
        idx = np.random.default_rng(int(state)).permutation(len(data))
        half = len(data) // 2
        split[joint] = ([data[i] for i in idx[:half]],
                        [data[i] for i in idx[half:]])
    return split


def sample_knn_predictions(percept, result, split, seed):
    """The program's KNN prediction for a seeded sample of test queries."""
    out = []
    for ji, (joint, (_, test)) in enumerate(sorted(split.items())):
        rng = np.random.default_rng([seed, 500, ji])
        n = min(KNN_QUERIES_PER_JOINT, len(test))
        for i in rng.choice(len(test), n, replace=False):
            tau, phi, _ = test[int(i)]
            pred = percept.knn_classify(result.classifiers[joint], tau, phi)
            out.append((joint, tau, phi, int(pred)))
    return out


def brute_force_knn(train, k, tau, phi):
    """Full-sort KNN on z-scored (tau_m, phi): majority of the k nearest
    (distance ties by training order); a tied vote goes to the tied class
    of the nearest neighbour, then to the smaller depth."""
    X = np.array([(t, f) for t, f, _ in train])
    labels = [lab for _, _, lab in train]
    mean, sd = X.mean(axis=0), X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    q = (np.array([tau, phi]) - mean) / sd
    d2 = (((X - mean) / sd - q) ** 2).sum(axis=1)
    top = [labels[i] for i in np.argsort(d2, kind="stable")[:k]]
    votes = {lab: top.count(lab) for lab in DEPTH_CLASSES}
    tied = [lab for lab in DEPTH_CLASSES if votes[lab] == max(votes.values())]
    for lab in top:
        if lab in tied:
            return lab
    return min(tied)


def check_knn(split, predictions, p):
    bad = []
    for joint, tau, phi, pred in predictions:
        want = brute_force_knn(split[joint][0], p["knn_k"], tau, phi)
        if want != pred:
            bad.append(f"{joint}: KNN({tau:.6f}, {phi:.6f}) = {pred}, "
                       f"brute force gives {want}")
    return bad


def check_confusion(out, split):
    bad = []
    acc = {}
    for joint, (_, test) in split.items():
        rows = read_csv(os.path.join(out, f"confusion_{joint}.csv"))
        mat = np.array([[int(r[f"pred_{c}"]) for c in DEPTH_CLASSES]
                        for r in rows])
        for i, c in enumerate(DEPTH_CLASSES):
            want = sum(1 for _, _, lab in test if lab == c)
            if mat[i].sum() != want:
                bad.append(f"{joint}: confusion row {c} mm sums to "
                           f"{mat[i].sum()}, test set has {want}")
        acc[joint] = np.trace(mat) / max(mat.sum(), 1)
    if acc.get("lower", 0.0) < 0.90:
        bad.append(f"lower-joint accuracy {acc.get('lower')} < 0.90")
    for other in ("upper", "tail"):
        if not acc.get("lower", 0.0) > acc.get(other, 1.0):
            bad.append(f"lower-joint accuracy {acc.get('lower')} not above "
                       f"{other} {acc.get(other)}")
    return bad


# ---------------------------------------------------------------------------
# adaptive

def check_closedloop(out, p, depth):
    """Every logged phase follows the controller law from the one before,
    and the final phase is within pi/12 of phi*(depth)."""
    bad = []
    rows = read_csv(os.path.join(out, "closedloop.csv"))
    tau0 = float(read_csv(os.path.join(out, "closedloop_summary.csv"))
                 [0]["tau0_pct"])
    phi = [float(r["phi_rad"]) for r in rows]
    tau = [float(r["tau_m_pct"]) for r in rows]
    for n in range(len(phi) - 1):
        want = phi[n] + p["b1"] * (tau[n] - tau0) - p["k"] * (phi[n] - p["phi0"])
        want = min(max(want, p["phi_min"]), p["phi_max"])
        if not abs(phi[n + 1] - want) <= PHI_TOL:
            bad.append(f"{depth:g} mm, cycle {n + 1}: phi {phi[n + 1]:.9f}, "
                       f"controller law gives {want:.9f}")
    if len(phi) != p["closedloop_cycles"]:
        bad.append(f"{depth:g} mm: {len(phi)} cycles logged")
    elif not abs(phi[-1] - optimal_phase(depth)) <= GRID_STEP:
        bad.append(f"{depth:g} mm: final phi {phi[-1]:.4f} more than pi/12 "
                   f"from {optimal_phase(depth):.4f}")
    return bad


def check_transition(out):
    speeds = {}
    for row in read_csv(os.path.join(out, "transition.csv")):
        speeds.setdefault(row["mode"], []).append(float(row["speed_blc"]))
    mean = {mode: float(np.mean(v)) for mode, v in speeds.items()}
    adaptive = mean.pop("adaptive", -math.inf)
    if len(mean) != 2 or not all(adaptive >= m for m in mean.values()):
        return [f"adaptive mean speed {adaptive:.4f} below a fixed gait: {mean}"]
    return []


# ---------------------------------------------------------------------------

#: Robot, ground and controller values the checks need: the program's
#: documented defaults, which the generated configs leave unchanged.
DEFAULTS = dict(mass=0.6, friction=0.3, segment_length=0.1125, rft_par=1.5,
                rft_perp=3.75, slip_eps=1e-4, b1=-0.004, k=0.005,
                phi0=-math.pi / 6, phi_min=-math.pi / 2, phi_max=0.0)


def gather(workload, cfgs, params, results, out, seed):
    """In-process evidence for ``verify``; runs after the timed section."""
    from granugait import model, percept, sim
    if workload == "openloop":
        return {"states": sample_solved_states(sim, model, cfgs["main"], seed)}
    if workload == "classify":
        split = classify_split(out["classify"], params["main"])
        return {"predictions": sample_knn_predictions(
            percept, results["classify"], split, seed)}
    return {}


def verify(workload, params, out, evidence):
    """Every check of one workload; returns the failure messages."""
    p = dict(DEFAULTS, **params["main"])
    if workload == "openloop":
        return (check_sweep(out["sweep"], p)
                + check_model_torque(out["model_torque"])
                + check_balance(evidence["states"], p))
    if workload == "classify":
        split = classify_split(out["classify"], p)
        return (check_confusion(out["classify"], split)
                + check_knn(split, evidence["predictions"], p))
    return (check_closedloop(out["closedloop_40"], p, 40.0)
            + check_closedloop(out["closedloop_0"],
                               dict(DEFAULTS, **params["flat"]), 0.0)
            + check_transition(out["transition"]))
