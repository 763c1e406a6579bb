"""Command-line front end: one config file per run, deterministic artifacts.

Every run consumes a JSON config, optionally overridden by flags, and
writes artifacts that embed the config hash and master seed, so a rerun
with the same inputs reproduces every output byte for byte regardless
of the worker count.

Exit codes: 0 ok, 2 config/geometry/hole setup errors, 3 numeric
errors and any unexpected exception, 4 io errors.  Every failure is one
JSON line {"error", "message"} on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback

import numpy as np

from . import escape as _escape
from . import geometry as _geometry
from . import holes as _holes
from . import measures as _measures
from . import open_dynamics as _od
from . import tower as _tower
from .errors import (ArtifactIOError, ConfigError, LeakyBilliardsError,
                     check_number)

_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_IO = 4

_CONFIG_PREFIXES = ("config.", "geometry.", "holes.")
_IO_PREFIXES = ("io.",)

# numeric fields and their types, checked wherever they appear in the
# config root, "hole", "hole_family" or "markov_map"; a list field holds
# such numbers (tower specs are checked by tower.tower_spec_from_json)
_NUMBER_FIELDS = dict.fromkeys(
    ("n_particles", "n_max", "n_steps", "r_bins", "phi_bins", "measure_step",
     "k_steps", "min_survivors", "n_backcheck", "k_backcheck", "max_iter"), int,
) | {"h": float, "offset": float, "tol": float}
_LIST_FIELDS = dict.fromkeys(
    ("h_list", "breakpoints", "image_lo", "image_hi"), float,
) | {"window": int, "hole_cells": int}

SUBCOMMANDS = (
    "validate-geometry",
    "simulate",
    "escape-rate",
    "survivor-measure",
    "small-hole-sweep",
    "singularity-diag",
    "tower-eig",
    "tower-bound",
)


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, LeakyBilliardsError):
        if exc.code.startswith(_CONFIG_PREFIXES):
            return _EXIT_CONFIG
        if exc.code.startswith(_IO_PREFIXES):
            return _EXIT_IO
        return _EXIT_NUMERIC
    if isinstance(exc, OSError):
        return _EXIT_IO
    return _EXIT_NUMERIC


# -- config handling -----------------------------------------------------------


def canonical_config_json(cfg: dict) -> str:
    """Canonical serialization: sorted keys, no whitespace drift."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_hash(cfg: dict) -> str:
    """Hash of the experiment parameters.

    The worker count is an execution detail with no effect on any
    output value, so it is excluded; artifacts stay byte-identical
    across thread counts.
    """
    cfg = {k: v for k, v in cfg.items() if k != "threads"}
    return hashlib.sha256(canonical_config_json(cfg).encode()).hexdigest()


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ArtifactIOError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    # the canonical form must round-trip bit-exactly; NaN/Infinity parse
    # as a Python extension but have no canonical serialization
    try:
        if json.loads(canonical_config_json(cfg)) != cfg:
            raise ConfigError("config does not round-trip canonically")
    except ValueError as exc:
        raise ConfigError(f"config is not canonically serializable: {exc}") from exc
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}")
    return cfg[key]


def _check_numbers(cfg: dict) -> None:
    """Type-check every numeric field before any work (or table) starts."""
    for obj in (cfg, cfg.get("hole"), cfg.get("hole_family"),
                cfg.get("markov_map")):
        if not isinstance(obj, dict):
            continue
        for key in sorted(obj.keys() & _NUMBER_FIELDS.keys()):
            check_number(obj[key], key, _NUMBER_FIELDS[key])
        for key in sorted(obj.keys() & _LIST_FIELDS.keys()):
            if not isinstance(obj[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list of numbers")
            for x in obj[key]:
                check_number(x, key, _LIST_FIELDS[key])


def _hole_kind(obj: dict) -> str:
    # never guessed from the anchor: [0, 0.5] is a valid anchor of either kind
    kind = _require(obj, "kind")
    if kind not in ("I", "II"):
        raise ConfigError(f'hole kind must be "I" or "II", got {kind!r}')
    return kind


def _table_from_config(cfg: dict) -> _geometry.Table:
    if "table" in cfg and cfg["table"] is not None:
        return _geometry.table_from_json(cfg["table"])
    return _geometry.default_table()


def _hole_from_config(cfg: dict, table) -> _holes.HoleSpec | None:
    obj = cfg.get("hole")
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ConfigError("hole must be a JSON object or null")
    if "h" in obj:
        anchor = _require(obj, "anchor")
        if isinstance(anchor, (list, tuple)) and len(anchor) == 2:
            anchor = tuple(anchor)
        else:
            raise ConfigError("hole anchor must be a pair")
        return _holes.hole_family(
            table, anchor, float(obj["h"]),
            offset=float(obj.get("offset", 0.0)),
            kind=_hole_kind(obj),
        )
    return _holes.hole_from_json(table, obj)


def _density_from_config(cfg: dict) -> _measures.DensitySpec:
    obj = cfg.get("density", {"kind": "nu"})
    return _measures.density_from_json(obj)


def _window_from_config(cfg: dict) -> tuple[int, int]:
    win = _require(cfg, "window")
    if not isinstance(win, (list, tuple)) or len(win) != 2:
        raise ConfigError("window must be [lo, hi] with integer steps")
    return win[0], win[1]


def _tower_from_config(cfg: dict):
    obj = _require(cfg, "tower")
    markov_map = None
    if isinstance(obj, dict) and obj.get("builtin") == "golden":
        spec = _tower.golden_tower_spec()
        markov_map = _tower.golden_interval_map()
        hole_cells = {0}
    elif isinstance(obj, dict):
        spec = _tower.tower_spec_from_json(obj)
        hole_cells = None
    else:
        raise ConfigError("tower must be a JSON object")
    if "markov_map" in cfg:
        mm = cfg["markov_map"]
        markov_map = _tower.MarkovIntervalMap(
            breakpoints=tuple(float(x) for x in _require(mm, "breakpoints")),
            image_lo=tuple(float(x) for x in _require(mm, "image_lo")),
            image_hi=tuple(float(x) for x in _require(mm, "image_hi")),
        )
        hole_cells = set(int(c) for c in mm.get("hole_cells", ()))
    enforce = cfg.get("enforce_hole_condition", True)
    if not isinstance(enforce, bool):
        raise ConfigError(f"enforce_hole_condition must be a bool, got {enforce!r}")
    tw = _tower.build_tower(spec, enforce_hole_condition=enforce)
    return tw, markov_map, hole_cells


# -- artifacts -----------------------------------------------------------------


class RunArtifact:
    """Results dict plus named CSV bodies, all fully rendered in memory."""

    def __init__(self, results: dict, csvs: dict[str, str] | None = None):
        self.results = results
        self.csvs = csvs or {}

    def results_json(self) -> str:
        return json.dumps(self.results, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"


def _csv_render(header: list[str], rows, meta: dict) -> str:
    lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, (int, np.integer)):
                cells.append(str(int(x)))
            else:
                cells.append("%.17g" % float(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_results(artifact: RunArtifact, out_dir: str) -> list[str]:
    """Write results.json and the CSV bodies; returns the paths written."""
    if not os.path.isdir(out_dir):
        raise ArtifactIOError(f"output directory {out_dir!r} does not exist")
    paths = []
    try:
        p = os.path.join(out_dir, "results.json")
        with open(p, "w") as fh:
            fh.write(artifact.results_json())
        paths.append(p)
        for name, body in sorted(artifact.csvs.items()):
            p = os.path.join(out_dir, name)
            with open(p, "w") as fh:
                fh.write(body)
            paths.append(p)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write artifact: {exc}") from exc
    return paths


# -- experiment dispatch ---------------------------------------------------------


def run_experiment(subcommand: str, cfg: dict) -> RunArtifact:
    """Execute one subcommand on a validated effective config."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    threads = cfg.get("threads", _od.default_threads())
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError("threads must be a positive integer")
    _check_numbers(cfg)
    chash = config_hash(cfg)
    base = {
        "subcommand": subcommand,
        "config_hash": chash,
        "seed": seed,
        "master_seed": seed,
    }
    meta = {"config_hash": chash, "master_seed": seed}
    fn = _DISPATCH[subcommand]
    return fn(cfg, seed, threads, base, meta)


def _counts_csv(res, meta) -> str:
    eff = _escape.censor_corrected_counts(res.survivors, res.censored)
    rows = [
        (k, int(res.survivors[k]), int(res.escaped[k]), int(res.censored[k]),
         eff[k])
        for k in range(len(res.survivors))
    ]
    return _csv_render(
        ["step", "survivors", "escaped", "censored", "eff_survivors"],
        rows, meta,
    )


def _run_validate_geometry(cfg, seed, threads, base, meta):
    table = _table_from_config(cfg)
    cert = table.certificate
    base.update({
        "status": "ok",
        "n_scatterers": len(table),
        "total_perimeter": table.total_perimeter,
    })
    if cert is not None:
        base.update({
            "l_max": cert.l_max,
            "q_checked": cert.q_checked,
            "rays_cast": cert.rays_cast,
        })
    return RunArtifact(base)


def _run_simulate(cfg, seed, threads, base, meta):
    table = _table_from_config(cfg)
    hole = _hole_from_config(cfg, table)
    density = _density_from_config(cfg)
    n = _require(cfg, "n_particles")
    n_max = _require(cfg, "n_max")
    from .streams import stream
    sid, r, phi = _measures.sample_initial(table, density, n, stream(seed, "initial"))
    res = _od.evolve_ensemble(
        table, hole, sid, r, phi, n_max,
        convention=cfg.get("convention", "arrival"), threads=threads,
    )
    base.update({
        "n_particles": n,
        "n_steps": n_max,
        "survivors_final": int(res.survivors[-1]),
        "escaped_final": int(res.escaped[-1]),
        "censored_final": int(res.censored[-1]),
        "counts_csv_path": "counts.csv",
    })
    return RunArtifact(base, {"counts.csv": _counts_csv(res, meta)})


def _run_escape_rate(cfg, seed, threads, base, meta):
    estimator = cfg.get("estimator", "direct")
    convention = cfg.get("convention", "arrival")
    if estimator == "fleming-viot" and convention != "arrival":
        raise ConfigError(
            "the fleming-viot estimator counts escapes on arrival only; "
            f'convention must be "arrival", got {convention!r}'
        )
    table = _table_from_config(cfg)
    hole = _hole_from_config(cfg, table)
    density = _density_from_config(cfg)
    n = _require(cfg, "n_particles")
    n_max = _require(cfg, "n_max")
    window = _window_from_config(cfg)
    if estimator == "direct":
        est, res = _escape.estimate_escape_rate(
            table, hole, density, n, n_max, window, seed,
            convention=convention, threads=threads,
        )
        counts = _counts_csv(res, meta)
        censored_final = int(res.censored[-1])
    elif estimator == "fleming-viot":
        fv = _escape.fleming_viot_evolve(
            table, hole, density, n, n_max, window, seed, threads=threads,
        )
        est = fv.estimate
        rows = [(k, fv.eff_counts[k], fv.ratios[k])
                for k in range(len(fv.eff_counts))]
        counts = _csv_render(["step", "eff_survivors", "ratio"], rows, meta)
        censored_final = fv.n_censored
    else:
        raise ConfigError(f"unknown estimator {estimator!r}")
    base.update(est.to_json())
    base.update({
        "estimator": estimator,
        "n_particles": n,
        "censored_final": censored_final,
        "counts_csv_path": "counts.csv",
    })
    return RunArtifact(base, {"counts.csv": counts})


def _run_survivor_measure(cfg, seed, threads, base, meta):
    table = _table_from_config(cfg)
    hole = _hole_from_config(cfg, table)
    density = _density_from_config(cfg)
    n = _require(cfg, "n_particles")
    n_steps = _require(cfg, "n_steps")
    r_bins = cfg.get("r_bins", 64)
    phi_bins = cfg.get("phi_bins", 64)
    m, res = _escape.survivor_distribution(
        table, hole, density, n, n_steps, r_bins, phi_bins, seed,
        convention=cfg.get("convention", "arrival"), threads=threads,
        min_survivors=cfg.get("min_survivors", 1000),
    )
    ref = _measures.nu_measure(table, r_bins, phi_bins)
    dist = _measures.measure_distance(m, ref)
    n_surv = len(res.final_sid)
    floor = _measures.noise_floor(table, n_surv, r_bins, phi_bins, seed)
    rows = []
    for s in range(m.weights.shape[0]):
        for ir in range(r_bins):
            for ip in range(phi_bins):
                w = m.weights[s, ir, ip]
                if w != 0.0:
                    rows.append((s, ir, ip, w))
    mcsv = _csv_render(["scatterer", "r_bin", "phi_bin", "weight"], rows, meta)
    base.update({
        "n_particles": n,
        "n_steps": n_steps,
        "r_bins": r_bins,
        "phi_bins": phi_bins,
        "survivors": n_surv,
        "censored_final": int(res.censored[-1]),
        "distance_to_nu": dist,
        "noise_floor": floor,
        "measure_csv_path": "measure.csv",
    })
    return RunArtifact(base, {
        "measure.csv": mcsv,
        "counts.csv": _counts_csv(res, meta),
    })


def _run_small_hole_sweep(cfg, seed, threads, base, meta):
    table = _table_from_config(cfg)
    density = _density_from_config(cfg)
    hole_cfg = _require(cfg, "hole_family")
    anchor = _require(hole_cfg, "anchor")
    if not isinstance(anchor, (list, tuple)) or len(anchor) != 2:
        raise ConfigError("hole_family.anchor must be a pair")
    h_list = [float(h) for h in _require(hole_cfg, "h_list")]
    rows = _escape.small_hole_sweep(
        table, tuple(anchor), h_list, density,
        _require(cfg, "n_particles"), _require(cfg, "n_max"),
        _window_from_config(cfg), _require(cfg, "measure_step"),
        cfg.get("r_bins", 64), cfg.get("phi_bins", 64), seed,
        kind=_hole_kind(hole_cfg),
        offset=float(hole_cfg.get("offset", 0.0)),
        convention=cfg.get("convention", "arrival"), threads=threads,
    )
    body = _csv_render(
        ["h", "theta_hat", "stderr", "distance_to_nu", "noise_floor",
         "survivors_at_step"],
        [(r.h, r.theta_hat, r.stderr, r.distance_to_nu, r.noise_floor,
          r.survivors_at_step) for r in rows],
        meta,
    )
    base.update({
        "rows": [r.to_json() for r in rows],
        "sweep_csv_path": "sweep.csv",
    })
    return RunArtifact(base, {"sweep.csv": body})


def _run_singularity_diag(cfg, seed, threads, base, meta):
    table = _table_from_config(cfg)
    hole = _hole_from_config(cfg, table)
    if hole is None:
        raise ConfigError("singularity-diag requires a hole")
    diag = _escape.singularity_diagnostic(
        table, hole, _require(cfg, "k_steps"),
        _require(cfg, "n_particles"), seed,
        convention=cfg.get("convention", "arrival"), threads=threads,
        n_backcheck=cfg.get("n_backcheck", 2000),
        k_backcheck=cfg.get("k_backcheck", 10),
    )
    base.update(diag)
    return RunArtifact(base)


def _run_tower_eig(cfg, seed, threads, base, meta):
    tw, markov_map, hole_cells = _tower_from_config(cfg)
    theta, h, rep = _tower.leading_eigenpair(
        tw, tol=float(cfg.get("tol", 1e-13)),
        max_iter=cfg.get("max_iter", 100000),
    )
    d_h = _tower.d_functional(tw, h, theta)
    base.update({
        "theta_star": theta,
        "iterations": rep.iterations,
        "function_residual": rep.function_residual,
        "d_h_star": d_h.value,
        "h_star": {
            f"{l},{j}": float(v[0]) for (l, j), v in sorted(h.values.items())
        },
    })
    if markov_map is not None and hole_cells is not None:
        orc = _tower.markov_matrix_oracle(markov_map, hole_cells)
        base.update({
            "oracle_theta": orc.theta,
            "oracle_abs_diff": abs(orc.theta - theta),
        })
    return RunArtifact(base)


def _run_tower_bound(cfg, seed, threads, base, meta):
    tw, _, _ = _tower_from_config(cfg)
    theta, h, _ = _tower.leading_eigenpair(tw)
    lb = _tower.theta_lower_bound(tw, theta_star=theta)
    tails = _tower.tail_mass_check(tw, h, theta)
    base.update({
        "theta_star": theta,
        "lower_bound": lb.to_json(),
        "tails": tails.to_json(),
    })
    return RunArtifact(base)


_DISPATCH = {
    "validate-geometry": _run_validate_geometry,
    "simulate": _run_simulate,
    "escape-rate": _run_escape_rate,
    "survivor-measure": _run_survivor_measure,
    "small-hole-sweep": _run_small_hole_sweep,
    "singularity-diag": _run_singularity_diag,
    "tower-eig": _run_tower_eig,
    "tower-bound": _run_tower_bound,
}


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakybilliards",
        description="Open billiard escape rates and tower spectra",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default LEAKY_THREADS or 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.threads is not None:
            cfg["threads"] = args.threads
        artifact = run_experiment(args.subcommand, cfg)
        paths = write_results(artifact, args.out)
    except LeakyBilliardsError as exc:
        sys.stderr.write(json.dumps(
            {"error": exc.code, "message": str(exc)}, sort_keys=True) + "\n")
        return exit_code_for(exc)
    except OSError as exc:
        sys.stderr.write(json.dumps(
            {"error": "io.os_error", "message": str(exc)}, sort_keys=True) + "\n")
        return _EXIT_IO
    except Exception as exc:  # the CLI boundary reports every failure as JSON
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        sys.stderr.write(json.dumps(
            {"error": "internal.unexpected",
             "message": f"{type(exc).__name__}: {exc} (at {where})"},
            sort_keys=True) + "\n")
        return _EXIT_NUMERIC
    for p in paths:
        sys.stdout.write(p + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
