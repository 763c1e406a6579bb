"""One measured process: import, set up, run one workload, report.

Run by perfbench/run.py, never by hand:

    python3 perfbench/child.py --workload W --input input.json
        --out DIR --report report.json [--spans spans.json]

Timestamps are time.monotonic(), which on Linux reads the system-wide
CLOCK_MONOTONIC, so the driver can subtract its spawn time from them.
After the workload the process checks its outputs against analytic
facts and hashes them; that work is after t_end and is not timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# timed first, before numpy is loaded by anything else, because this is
# what every CLI process pays
_t0 = time.perf_counter()
import leakybilliards.cli  # noqa: E402,F401
import leakybilliards as lb  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, n_cylinders, targets  # noqa: E402

D_TERMS = 60  # d_functional terms per tower, fixed so work can be counted


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes())
        h.update(b"\x1f")
    return h.hexdigest()


def _values(fn) -> np.ndarray:
    vals = fn.values
    if isinstance(vals, dict):
        return np.concatenate([np.asarray(vals[c], dtype=float) for c in sorted(vals)])
    return np.asarray(vals, dtype=float)


def _stamp_end(marks):
    marks["t_end"] = time.monotonic()
    marks["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _within(observed, expected, n, sigmas=4.0) -> dict:
    """Binomial check of an observed fraction of n trials."""
    sd = math.sqrt(expected * (1.0 - expected) / n)
    return {"ok": bool(abs(observed - expected) <= sigmas * sd),
            "observed": float(observed), "expected": expected, "sd": sd}


def run_escape_direct(inp, out_dir, marks):
    lb.geometry.default_table()
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(inp["config"], fh)
    art = os.path.join(out_dir, "artifacts")
    os.mkdir(art)
    marks["t_setup"] = time.monotonic()
    rc = lb.cli.main(["escape-rate", "--config", cfg_path, "--out", art,
                      "--threads", "1", "--seed", str(inp["seed"])])
    _stamp_end(marks)
    if rc != 0:
        raise RuntimeError(f"cli.main returned {rc}")

    parts = []
    for name in sorted(os.listdir(art)):
        with open(os.path.join(art, name), "rb") as fh:
            parts += [np.frombuffer(name.encode(), np.uint8),
                      np.frombuffer(fh.read(), np.uint8)]
    with open(os.path.join(art, "counts.csv")) as fh:
        rows = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    cols = rows[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in rows[1:]])
    surv, esc, cens = (data[:, cols.index(c)] for c in ("survivors", "escaped", "censored"))
    cfg = inp["config"]
    n = cfg["n_particles"]
    nu_hole = 2.0 * cfg["hole"]["h"] / workloads.DEFAULT_PERIMETER
    checks = {
        "conservation": {"ok": bool(np.all(surv + esc + cens == n))},
        "index0_escape_is_nu_hole": _within(esc[0] / n, nu_hole, n),
    }
    work = int(surv[:-1].sum())  # step k collides the survivors of step k-1
    return _digest(parts), checks, work


def run_fv_type_ii(inp, out_dir, marks):
    cfg = inp["config"]
    table = lb.geometry.default_table()
    hole = lb.holes.hole_family(table, tuple(cfg["hole"]["anchor"]), cfg["hole"]["h"],
                                kind=cfg["hole"]["kind"])
    density = lb.measures.density_from_json(cfg["density"])
    n, steps, seed = cfg["n_particles"], cfg["n_steps"], inp["seed"]
    rb, pb = cfg["r_bins"], cfg["phi_bins"]
    marks["t_setup"] = time.monotonic()
    fv = lb.escape.fleming_viot_evolve(
        table, hole, density, n, steps, tuple(cfg["window"]), seed,
        threads=cfg["threads"], capture=tuple(cfg["capture"]))
    hists = [lb.measures.bin_measure(table, *fv.captures[k], rb, pb)
             for k in cfg["capture"]]
    floor = lb.measures.noise_floor(table, n, rb, pb, seed)
    _stamp_end(marks)

    parts = [fv.eff_counts, fv.ratios, fv.final_sid, fv.final_r, fv.final_phi,
             np.array([fv.estimate.theta_hat, fv.estimate.stderr, floor,
                       fv.n_cloned, fv.n_censored])]
    for k in cfg["capture"]:
        parts += list(fv.captures[k])
    parts += [m.weights for m in hists]
    nu_hole = 2.0 * math.pi * cfg["hole"]["h"] / workloads.DEFAULT_PERIMETER
    checks = {
        "index0_loss_is_nu_hole": _within(1.0 - float(fv.ratios[0]), nu_hole, n),
        "histograms_hold_population": {
            "ok": all(float(m.weights.sum()) == n for m in hists)},
    }
    work = n * steps + n  # forward steps plus the inverse step at index 0
    return _digest(parts), checks, work


def run_tower_spectral(inp, out_dir, marks):
    tw = lb.tower
    towers = [(tw.build_tower(tw.tower_spec_from_json(t["spec"])), t["depth"])
              for t in inp["towers"]]
    golden = tw.build_tower(tw.tower_spec_from_json(inp["golden"]))
    gm = inp["golden_map"]
    golden_map = tw.MarkovIntervalMap(breakpoints=tuple(gm["breakpoints"]),
                                      image_lo=tuple(gm["image_lo"]),
                                      image_hi=tuple(gm["image_hi"]))
    marks["t_setup"] = time.monotonic()
    rows = []
    for tower, depth in towers:
        theta, h, rep = tw.leading_eigenpair(tower, depth=depth)
        bound = tw.theta_lower_bound(tower, theta_star=theta)
        tails = tw.tail_mass_check(tower, h, theta)
        d = tw.d_functional(tower, h, theta_star=theta, n_terms=D_TERMS)
        rows.append((theta, h, rep, bound, tails, d))
    g_theta, g_h, g_rep = tw.leading_eigenpair(golden)
    g_d = tw.d_functional(golden, g_h, theta_star=g_theta, n_terms=D_TERMS)
    oracle = tw.markov_matrix_oracle(golden_map, set(gm["hole_cells"]))
    _stamp_end(marks)

    rows.append((g_theta, g_h, g_rep, None, None, g_d))
    parts = [np.array([oracle.theta])]
    work = 0
    for theta, h, rep, bound, tails, d in rows:
        parts += [np.array([theta, rep.iterations, rep.function_residual, d.value]),
                  _values(h), d.terms]
        if bound is not None:
            parts += [np.array([bound.bound]), np.array(tails.rows, dtype=float)]
        work += (rep.iterations + 1 + D_TERMS) * n_cylinders(h)
    golden_theta = (1.0 + math.sqrt(5.0)) / 4.0
    residuals = [r[2].function_residual for r in rows]
    checks = {
        "golden_theta_closed_form": {"ok": abs(g_theta - golden_theta) < 1e-10,
                                     "observed": g_theta},
        "golden_theta_oracle": {"ok": abs(g_theta - oracle.theta) < 1e-10,
                                "observed": oracle.theta},
        "lower_bounds_hold": {"ok": all(r[3].satisfied is True and not r[3].vacuous
                                        for r in rows[:-1])},
        "d_of_h_is_one": {"ok": all(abs(r[5].value - 1.0) < 1e-8 for r in rows),
                          "observed": max(abs(r[5].value - 1.0) for r in rows)},
        "residuals_small": {"ok": all(math.isfinite(x) and x < 1e-9 for x in residuals),
                            "observed": max(residuals)},
    }
    return _digest(parts), checks, work


RUNNERS = {
    "escape-direct": run_escape_direct,
    "fv-typeII": run_fv_type_ii,
    "tower-spectral": run_tower_spectral,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    with open(args.input) as fh:
        inp = json.load(fh)

    tracer = target_list = None
    if args.spans:
        target_list = targets(lb)
        tracer = Tracer()
        tracer.install(target_list)
    marks: dict = {}
    try:
        digest, checks, work = RUNNERS[args.workload](inp, args.out, marks)
    finally:
        if tracer is not None:
            tracer.uninstall()

    report = {
        "t_setup": marks["t_setup"],
        "t_end": marks["t_end"],
        "import_s": IMPORT_S,
        "peak_rss_mb": marks["peak_rss_mb"],
        "digest": digest,
        "checks": checks,
        "work": work,
        "wrappers_left": tracer.leftover(target_list) if tracer else [],
    }
    if tracer is not None:
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    with open(args.report, "w") as fh:
        json.dump(report, fh, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
