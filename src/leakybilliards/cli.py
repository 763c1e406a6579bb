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
from dataclasses import asdict, astuple, fields
from functools import partial

import numpy as np

from . import escape as _escape
from . import geometry as _geometry
from . import holes as _holes
from . import measures as _measures
from . import open_dynamics as _od
from . import tower as _tower
from .errors import (ArtifactIOError, ConfigError, ConfigReader,
                     LeakyBilliardsError)
from .streams import stream

_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_IO = 4

_CONFIG_PREFIXES = ("config.", "geometry.", "holes.")
_IO_PREFIXES = ("io.",)

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


_KINDS = ("I", "II")
_CONVENTIONS = ("arrival", "departure")


def _read_table(cfg: ConfigReader):
    """The run's table, to build once every field is read (a table
    config is read before its horizon probe runs)."""
    obj = cfg.object("table", None)
    if obj is None:
        return _geometry.default_table
    return partial(_geometry.table_from_json, obj)


def _read_anchor(f: ConfigReader):
    # the kind is never guessed: [0, 0.5] is a valid anchor of either kind
    kind = f.choice("kind", _KINDS)
    return kind, f.numbers("anchor", (int, float) if kind == "I" else (float, float))


def _read_hole(cfg: ConfigReader):
    """The hole as a function of the table, or None for a closed system.

    A family hole is {kind, anchor, h[, offset]}; an explicit one is
    {type: I, scatterer, arc} or {type: II, center, radius}.
    """
    obj = cfg.object("hole", None)
    if obj is None:
        return None
    f = ConfigReader(obj, "hole")
    if "type" in obj and "kind" not in obj:
        if f.choice("type", _KINDS) == "I":
            a, b = f.numbers("arc", (float, float))
            make = partial(_holes.type_i_hole, scatterer_id=f.integer("scatterer"),
                           a=a, b=b)
        else:
            make = partial(_holes.type_ii_hole, center=f.numbers("center", (float, float)),
                           radius=f.number("radius"))
    else:
        kind, anchor = _read_anchor(f)
        make = partial(_holes.hole_family, q0=anchor, h=f.number("h"),
                       offset=f.number("offset", 0.0), kind=kind)
    f.close()
    return make


def _read_tower(cfg: ConfigReader):
    """(spec, enforce_hole_condition, oracle); oracle is the builtin
    golden tower's (interval map, hole cells), else None."""
    obj = cfg.object("tower")
    oracle = None
    if isinstance(obj, dict) and "builtin" in obj:
        f = ConfigReader(obj, "tower")
        f.choice("builtin", ("golden",))
        f.close()
        spec = _tower.golden_tower_spec()
        oracle = _tower.golden_interval_map(), {0}
    else:
        spec = _tower.tower_spec_from_json(obj)
    return spec, cfg.flag("enforce_hole_condition", True), oracle


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
    """Execute one subcommand on an effective config.

    Each _run_* reads every field it uses through one ConfigReader and
    closes it before building a table or tower, so every config error
    is raised before any work starts.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    f = ConfigReader(cfg, "config")
    seed = f.integer("seed", 0)
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    threads = f.integer("threads", None)
    if threads is None:
        threads = _od.default_threads()
    if threads < 1:
        raise ConfigError("threads must be a positive integer")
    chash = config_hash(cfg)
    base = {
        "subcommand": subcommand,
        "config_hash": chash,
        "seed": seed,
        "master_seed": seed,
    }
    meta = {"config_hash": chash, "master_seed": seed}
    fn = _DISPATCH[subcommand]
    return fn(f, seed, threads, base, meta)


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
    make_table = _read_table(cfg)
    cfg.close()
    table = make_table()
    base.update({
        "status": "ok",
        "n_scatterers": len(table),
        "total_perimeter": table.total_perimeter,
    })
    base.update(asdict(table.certificate))
    return RunArtifact(base)


def _run_simulate(cfg, seed, threads, base, meta):
    make_table, make_hole = _read_table(cfg), _read_hole(cfg)
    density = _measures.density_from_json(cfg.object("density", {}))
    convention = cfg.choice("convention", _CONVENTIONS, "arrival")
    n = cfg.integer("n_particles")
    n_max = cfg.integer("n_max")
    cfg.close()
    table = make_table()
    hole = make_hole(table) if make_hole else None
    state = _measures.sample_initial(table, density, n, stream(seed, "initial"))
    res = _od.evolve_ensemble(
        table, hole, state, n_max,
        convention=convention, threads=threads,
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
    estimator = cfg.choice("estimator", ("direct", "fleming-viot"), "direct")
    # the fleming-viot estimator counts escapes on arrival only
    convention = cfg.choice("convention", _CONVENTIONS if estimator == "direct"
                            else ("arrival",), "arrival")
    make_table, make_hole = _read_table(cfg), _read_hole(cfg)
    density = _measures.density_from_json(cfg.object("density", {}))
    n = cfg.integer("n_particles")
    n_max = cfg.integer("n_max")
    window = cfg.numbers("window", (int, int))
    cfg.close()
    _, hi = _escape.check_window(window, n_max)
    table = make_table()
    hole = make_hole(table) if make_hole else None
    if estimator == "direct":
        est, res = _escape.estimate_escape_rate(
            table, hole, density, n, n_max, window, seed,
            convention=convention, threads=threads,
        )
        base["predicted_survivors_at_end"] = _escape.predicted_survivors(
            table, hole, n, hi)
        counts = _counts_csv(res, meta)
        censored_final = int(res.censored[-1])
    else:
        fv = _escape.fleming_viot_evolve(
            table, hole, density, n, n_max, window, seed, threads=threads,
        )
        est = fv.estimate
        rows = [(k, fv.eff_counts[k], fv.ratios[k])
                for k in range(len(fv.eff_counts))]
        counts = _csv_render(["step", "eff_survivors", "ratio"], rows, meta)
        censored_final = fv.n_censored
    base.update(asdict(est))
    base.update({
        "estimator": estimator,
        "n_particles": n,
        "censored_final": censored_final,
        "counts_csv_path": "counts.csv",
    })
    return RunArtifact(base, {"counts.csv": counts})


def _run_survivor_measure(cfg, seed, threads, base, meta):
    make_table, make_hole = _read_table(cfg), _read_hole(cfg)
    density = _measures.density_from_json(cfg.object("density", {}))
    convention = cfg.choice("convention", _CONVENTIONS, "arrival")
    n = cfg.integer("n_particles")
    n_steps = cfg.integer("n_steps")
    r_bins = cfg.integer("r_bins", 64)
    phi_bins = cfg.integer("phi_bins", 64)
    min_survivors = cfg.integer("min_survivors", 1000)
    cfg.close()
    table = make_table()
    hole = make_hole(table) if make_hole else None
    # checks the bin counts before any particle is drawn
    ref = _measures.nu_measure(table, r_bins, phi_bins)
    m, res = _escape.survivor_distribution(
        table, hole, density, n, n_steps, r_bins, phi_bins, seed,
        convention=convention, threads=threads, min_survivors=min_survivors,
    )
    dist = _measures.measure_distance(m, ref)
    n_surv = len(res.alive_index)
    floor = _measures.noise_floor(table, n_surv, r_bins, phi_bins, seed)
    # C order is (scatterer, r_bin, phi_bin) order
    nonzero = np.nonzero(m.weights)
    rows = zip(*nonzero, m.weights[nonzero])
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
    make_table = _read_table(cfg)
    density = _measures.density_from_json(cfg.object("density", {}))
    family = ConfigReader(cfg.object("hole_family"), "hole_family")
    kind, anchor = _read_anchor(family)
    h_list = family.numbers("h_list", float)
    offset = family.number("offset", 0.0)
    family.close()
    n = cfg.integer("n_particles")
    n_max = cfg.integer("n_max")
    window = cfg.numbers("window", (int, int))
    measure_step = cfg.integer("measure_step")
    r_bins = cfg.integer("r_bins", 64)
    phi_bins = cfg.integer("phi_bins", 64)
    convention = cfg.choice("convention", _CONVENTIONS, "arrival")
    cfg.close()
    _escape.check_sweep(h_list, n_max, window, measure_step)
    rows = _escape.small_hole_sweep(
        make_table(), anchor, h_list, density, n, n_max, window, measure_step,
        r_bins, phi_bins, seed, kind=kind, offset=offset,
        convention=convention, threads=threads,
    )
    body = _csv_render([f.name for f in fields(_escape.SweepRow)],
                       [astuple(r) for r in rows], meta)
    base.update({
        "rows": [asdict(r) for r in rows],
        "sweep_csv_path": "sweep.csv",
    })
    return RunArtifact(base, {"sweep.csv": body})


def _run_singularity_diag(cfg, seed, threads, base, meta):
    make_table, make_hole = _read_table(cfg), _read_hole(cfg)
    if make_hole is None:
        raise ConfigError("singularity-diag requires a hole")
    k_steps = cfg.integer("k_steps")
    n = cfg.integer("n_particles")
    convention = cfg.choice("convention", _CONVENTIONS, "arrival")
    n_backcheck = cfg.integer("n_backcheck", 2000)
    k_backcheck = cfg.integer("k_backcheck", 10)
    cfg.close()
    table = make_table()
    diag = _escape.singularity_diagnostic(
        table, make_hole(table), k_steps, n, seed,
        convention=convention, threads=threads,
        n_backcheck=n_backcheck, k_backcheck=k_backcheck,
    )
    base.update(diag)
    return RunArtifact(base)


def _run_tower_eig(cfg, seed, threads, base, meta):
    spec, enforce, oracle = _read_tower(cfg)
    mm = cfg.object("markov_map", None)
    if mm is not None:
        f = ConfigReader(mm, "markov_map")
        oracle = _tower.MarkovIntervalMap(
            breakpoints=f.numbers("breakpoints", float),
            image_lo=f.numbers("image_lo", float),
            image_hi=f.numbers("image_hi", float),
        ), set(f.numbers("hole_cells", int, ()))
        f.close()
    tol = cfg.number("tol", 1e-13)
    max_iter = cfg.integer("max_iter", 100000)
    cfg.close()
    tw = _tower.build_tower(spec, enforce_hole_condition=enforce)
    theta, h, rep = _tower.leading_eigenpair(tw, tol=tol, max_iter=max_iter)
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
    if oracle is not None:
        orc = _tower.markov_matrix_oracle(*oracle)
        base.update({
            "oracle_theta": orc.theta,
            "oracle_abs_diff": abs(orc.theta - theta),
        })
    return RunArtifact(base)


def _run_tower_bound(cfg, seed, threads, base, meta):
    spec, enforce, _ = _read_tower(cfg)
    cfg.close()
    tw = _tower.build_tower(spec, enforce_hole_condition=enforce)
    theta, h, _ = _tower.leading_eigenpair(tw)
    lb = _tower.theta_lower_bound(tw, theta_star=theta)
    tails = _tower.tail_mass_check(tw, h, theta)
    base.update({
        "theta_star": theta,
        "lower_bound": asdict(lb),
        "tails": asdict(tails),
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
