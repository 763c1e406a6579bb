import json
import math
import os
from dataclasses import fields

import pytest

from leakybilliards import cli
from leakybilliards.errors import ConfigError
from leakybilliards.escape import EscapeEstimate, SweepRow
from leakybilliards.geometry import HorizonCertificate
from leakybilliards.tower import LowerBoundReport, TailReport


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(tmp_path, sub, cfg, *extra, outdir="out"):
    cfg_path = write_cfg(tmp_path, f"{sub}.json", cfg)
    out = tmp_path / outdir
    out.mkdir(exist_ok=True)
    code = cli.main([sub, "--config", cfg_path, "--out", str(out), *extra])
    return code, out


def read_results(out):
    with open(out / "results.json") as fh:
        return json.load(fh)


# every run's results.json starts from these keys
RUN_KEYS = ["config_hash", "master_seed", "seed", "subcommand"]


def field_names(cls):
    return [f.name for f in fields(cls)]


def test_validate_geometry(tmp_path, capsys):
    code, out = run(tmp_path, "validate-geometry", {"seed": 1})
    assert code == 0
    res = read_results(out)
    assert res["status"] == "ok"
    assert res["n_scatterers"] == 2
    assert math.isclose(res["total_perimeter"], 2 * math.pi * 0.6,
                        rel_tol=1e-12)
    assert math.isclose(res["l_max"], 1.5095308362599174, rel_tol=1e-9)
    assert res["intervals_tested"] == 624
    assert res["master_seed"] == 1
    assert sorted(res) == sorted(
        RUN_KEYS + ["status", "n_scatterers", "total_perimeter"]
        + field_names(HorizonCertificate))
    assert len(res["config_hash"]) == 64
    paths = capsys.readouterr().out.strip().splitlines()
    assert paths == [str(out / "results.json")]


def test_simulate_closed(tmp_path):
    code, out = run(tmp_path, "simulate", {
        "hole": None, "n_particles": 2000, "n_max": 10, "seed": 3,
    })
    assert code == 0
    res = read_results(out)
    assert res["escaped_final"] == 0
    assert res["survivors_final"] + res["censored_final"] == 2000
    counts = (out / "counts.csv").read_text().splitlines()
    assert counts[0].startswith("# config_hash=")
    assert counts[1].startswith("# master_seed=")
    assert counts[2] == "step,survivors,escaped,censored,eff_survivors"
    assert len(counts) == 3 + 11


ESCAPE_CFG = {
    "hole": {"kind": "I", "anchor": [0, 0.3], "h": 0.15},
    "density": {"kind": "nu"},
    "n_particles": 20000,
    "n_max": 30,
    "window": [5, 25],
    "seed": 11,
    "estimator": "direct",
}


def test_escape_rate_contract(tmp_path):
    code, out = run(tmp_path, "escape-rate", ESCAPE_CFG)
    assert code == 0
    res = read_results(out)
    for key in ("theta_hat", "log_slope", "stderr", "window",
                "counts_csv_path", "seed", "config_hash", "master_seed"):
        assert key in res
    assert 0.8 < res["theta_hat"] < 1.0
    assert res["window"] == [5, 25]
    assert sorted(res) == sorted(
        RUN_KEYS + field_names(EscapeEstimate)
        + ["estimator", "n_particles", "censored_final", "counts_csv_path",
           "predicted_survivors_at_end"])
    assert res["counts_csv_path"] == "counts.csv"
    assert (out / "counts.csv").exists()


def test_escape_rate_reruns_byte_identical(tmp_path):
    _, out1 = run(tmp_path, "escape-rate", ESCAPE_CFG, outdir="o1")
    _, out2 = run(tmp_path, "escape-rate", ESCAPE_CFG, outdir="o2")
    assert (out1 / "results.json").read_bytes() == \
        (out2 / "results.json").read_bytes()
    assert (out1 / "counts.csv").read_bytes() == \
        (out2 / "counts.csv").read_bytes()


def test_thread_count_does_not_change_artifacts(tmp_path):
    _, out1 = run(tmp_path, "escape-rate", ESCAPE_CFG, "--threads", "1",
                  outdir="t1")
    _, out2 = run(tmp_path, "escape-rate", ESCAPE_CFG, "--threads", "4",
                  outdir="t4")
    assert (out1 / "results.json").read_bytes() == \
        (out2 / "results.json").read_bytes()
    assert (out1 / "counts.csv").read_bytes() == \
        (out2 / "counts.csv").read_bytes()


def test_seed_override_changes_run(tmp_path):
    _, out1 = run(tmp_path, "escape-rate", ESCAPE_CFG, outdir="s1")
    _, out2 = run(tmp_path, "escape-rate", ESCAPE_CFG, "--seed", "999",
                  outdir="s2")
    r1, r2 = read_results(out1), read_results(out2)
    assert r2["master_seed"] == 999
    assert r1["config_hash"] != r2["config_hash"]
    assert r1["theta_hat"] != r2["theta_hat"]


def test_fleming_viot_estimator(tmp_path):
    cfg = dict(ESCAPE_CFG, estimator="fleming-viot")
    code, out = run(tmp_path, "escape-rate", cfg)
    assert code == 0
    res = read_results(out)
    assert 0.8 < res["theta_hat"] < 1.0
    # the direct estimator's prediction is not a field of the estimate
    assert sorted(res) == sorted(
        RUN_KEYS + field_names(EscapeEstimate)
        + ["estimator", "n_particles", "censored_final", "counts_csv_path"])


def test_survivor_measure(tmp_path):
    code, out = run(tmp_path, "survivor-measure", {
        "hole": {"kind": "I", "anchor": [0, 0.3], "h": 0.05},
        "n_particles": 20000, "n_steps": 8, "r_bins": 16, "phi_bins": 16,
        "seed": 5, "min_survivors": 500,
    })
    assert code == 0
    res = read_results(out)
    assert res["survivors"] > 500
    assert res["distance_to_nu"] > 0
    assert res["noise_floor"] > 0
    assert (out / "measure.csv").exists()
    assert (out / "counts.csv").exists()


def test_small_hole_sweep(tmp_path):
    code, out = run(tmp_path, "small-hole-sweep", {
        "hole_family": {"anchor": [0, 0.3], "h_list": [0.08, 0.04],
                        "kind": "I"},
        "n_particles": 20000, "n_max": 30, "window": [5, 25],
        "measure_step": 10, "r_bins": 16, "phi_bins": 16, "seed": 7,
    })
    assert code == 0
    res = read_results(out)
    assert len(res["rows"]) == 2
    assert res["rows"][1]["theta_hat"] > res["rows"][0]["theta_hat"]
    for row in res["rows"]:
        assert sorted(row) == sorted(field_names(SweepRow))
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[2].split(",") == field_names(SweepRow)


def test_singularity_diag(tmp_path):
    code, out = run(tmp_path, "singularity-diag", {
        "hole": {"kind": "I", "anchor": [0, 0.3], "h": 0.15},
        "k_steps": 10, "n_particles": 10000, "seed": 9,
        "n_backcheck": 200, "k_backcheck": 5,
    })
    assert code == 0
    res = read_results(out)
    assert 0 < res["fraction_entered"] < 1
    assert res["survivor_hole_mass"] == 0.0
    assert res["backward_violations"] == 0


def test_tower_eig_golden(tmp_path):
    code, out = run(tmp_path, "tower-eig", {"tower": {"builtin": "golden"},
                                            "seed": 0})
    assert code == 0
    res = read_results(out)
    assert abs(res["theta_star"] - 0.8090169943749475) < 1e-10
    assert res["oracle_abs_diff"] < 1e-10
    assert abs(res["d_h_star"] - 1.0) < 1e-8
    assert res["h_star"]["0,0"] == 0.0
    assert abs(res["h_star"]["0,1"] - 0.9442719099991588) < 1e-9


def test_tower_bound_json_spec(tmp_path):
    cfg = {
        "tower": {
            "levels": [{"cells": [
                {"mass": 0.99, "return": 1},
                {"mass": 0.01, "return": 2},
            ]}],
            "hole": [[1, 1]],
            "beta": 0.8, "C0": 2.0, "theta0": 0.5, "C1": 1.0,
        },
        "seed": 0,
    }
    code, out = run(tmp_path, "tower-bound", cfg)
    assert code == 0
    res = read_results(out)
    assert math.isclose(res["lower_bound"]["bound"], 0.98, abs_tol=1e-12)
    assert res["lower_bound"]["satisfied"]
    assert res["tails"]["ok"]
    assert abs(res["theta_star"] - 0.99) < 1e-9
    assert sorted(res["lower_bound"]) == sorted(field_names(LowerBoundReport))
    assert sorted(res["tails"]) == sorted(field_names(TailReport))


def test_exit_code_config_errors(tmp_path, capsys):
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main(["simulate", "--config", str(bad), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("config.")

    # structurally valid JSON with a geometry violation
    cfg = write_cfg(tmp_path, "overlap.json", {
        "table": {"scatterers": [
            {"center": [0.0, 0.0], "radius": 0.3},
            {"center": [0.1, 0.0], "radius": 0.3},
        ]},
        "seed": 0,
    })
    code = cli.main(["validate-geometry", "--config", cfg, "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("geometry.")

    # missing required field
    cfg = write_cfg(tmp_path, "missing.json", {"seed": 0})
    code = cli.main(["escape-rate", "--config", cfg, "--out", str(out)])
    assert code == 2


@pytest.mark.parametrize("anchor", [[0.0, 0.0], [2.0, 0.0]])
def test_type_ii_hole_in_a_scatterer_image_exits_2(tmp_path, capsys, anchor):
    # [2.0, 0.0] is the centre of an image of scatterer 0, outside the cell
    code, _ = run(tmp_path, "simulate", {
        "hole": {"kind": "II", "anchor": anchor, "h": 0.05},
        "n_particles": 100, "n_max": 2, "seed": 0,
    })
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "holes.touches_scatterer"


def test_full_turn_type_i_arc_exits_2(tmp_path, capsys):
    # arc[1] is arc[0] plus the perimeter of scatterer 0; reduced mod the
    # perimeter it was an arc 8e-17 long, and the run exited 0 with no escapes
    code, out = run(tmp_path, "simulate", {
        "hole": {"type": "I", "scatterer": 0, "arc": [0.1, 2.6132741228718346]},
        "n_particles": 20000, "n_max": 20, "seed": 0,
    })
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config.bad_argument"
    assert not (out / "results.json").exists()


def test_exit_code_numeric_error(tmp_path, capsys):
    cfg = dict(ESCAPE_CFG, n_particles=300, window=[10, 28])
    code, _ = run(tmp_path, "escape-rate", cfg)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("escape.")


def test_exit_code_io_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "io.json", {"seed": 0})
    code = cli.main(["validate-geometry", "--config", cfg,
                     "--out", str(tmp_path / "does-not-exist")])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("io.")
    # unreadable config is an io failure too
    code = cli.main(["validate-geometry", "--config",
                     str(tmp_path / "ghost.json"), "--out", str(tmp_path)])
    assert code == 4


def test_config_hash_ignores_threads():
    cfg = {"seed": 1, "n_particles": 100}
    assert cli.config_hash(cfg) == cli.config_hash(dict(cfg, threads=8))
    assert cli.config_hash(cfg) != cli.config_hash(dict(cfg, seed=2))


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_bad_leaky_threads_is_a_config_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("LEAKY_THREADS", value)
    code, _ = run(tmp_path, "validate-geometry", {"seed": 1})
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config.invalid"
    assert "LEAKY_THREADS" in err["message"]
    # the variable only sets a default: a config naming threads ignores it
    code, _ = run(tmp_path, "validate-geometry", {"seed": 1, "threads": 2})
    assert code == 0


def test_config_rejects_non_canonical(tmp_path):
    nan_cfg = tmp_path / "nan.json"
    nan_cfg.write_text('{"x": NaN}')
    with pytest.raises(ConfigError):
        cli.load_config(str(nan_cfg))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        cli.load_config(str(arr))


def test_run_experiment_validates_inputs():
    with pytest.raises(ConfigError):
        cli.run_experiment("does-not-exist", {})
    with pytest.raises(ConfigError):
        cli.run_experiment("validate-geometry", {"seed": -4})
    with pytest.raises(ConfigError):
        cli.run_experiment("validate-geometry", {"seed": 0, "threads": 0})


def test_unexpected_exception_is_json_exit_3(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise ZeroDivisionError("forced")

    monkeypatch.setitem(cli._DISPATCH, "validate-geometry", boom)
    code, _ = run(tmp_path, "validate-geometry", {"seed": 0})
    assert code == 3
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"}
    assert "ZeroDivisionError: forced" in err["message"]
    assert "Traceback" not in captured.err


def test_escape_rate_closed_system_is_flat(tmp_path):
    # a null hole loses nothing: the fitted curve is flat up to rounding
    # in the censor correction, and the results serialize (no NaN)
    code, out = run(tmp_path, "escape-rate", {
        "hole": None, "n_particles": 2000, "n_max": 10, "window": [2, 8],
        "seed": 3,
    })
    assert code == 0
    res = read_results(out)
    assert abs(res["theta_hat"] - 1.0) < 1e-12
    assert 0.0 <= res["stderr"] < 1e-12


@pytest.mark.parametrize("sub,cfg", [
    ("escape-rate", dict(ESCAPE_CFG, hole={"anchor": [0, 0.3], "h": 0.15})),
    ("escape-rate", dict(ESCAPE_CFG, hole={"kind": None, "anchor": [0, 0.3], "h": 0.15})),
    ("small-hole-sweep", {
        "hole_family": {"anchor": [0, 0.3], "h_list": [0.08]},
        "n_particles": 2000, "n_max": 30, "window": [5, 25], "measure_step": 10,
        "seed": 7,
    }),
])
def test_hole_kind_is_required(tmp_path, capsys, sub, cfg):
    code, _ = run(tmp_path, sub, cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("config.")
    assert "kind" in err["message"]


def test_fleming_viot_rejects_departure(tmp_path, capsys):
    # Fleming-Viot ratios are arrival-indexed; any other convention would
    # silently mix the two conventions
    cfg = dict(ESCAPE_CFG, estimator="fleming-viot", convention="departure")
    code, _ = run(tmp_path, "escape-rate", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config.invalid"
    assert "arrival" in err["message"]


# the default table spelled out, so the table is built (and probed) afresh
# instead of coming from the per-process cache
TABLE = {"scatterers": [{"center": [0.0, 0.0], "radius": 0.4},
                        {"center": [0.5, 0.5], "radius": 0.2}]}
HOLE = {"kind": "I", "anchor": [0, 0.3], "h": 0.1}
BASE_CFGS = {
    "simulate": {"hole": HOLE, "n_particles": 100, "n_max": 2},
    "escape-rate": {"hole": HOLE, "n_particles": 100, "n_max": 8,
                    "window": [2, 6]},
    "survivor-measure": {"hole": HOLE, "n_particles": 100, "n_steps": 2},
    "small-hole-sweep": {"hole_family": {"kind": "I", "anchor": [0, 0.3],
                                         "h_list": [0.1]},
                         "n_particles": 100, "n_max": 8, "window": [2, 6],
                         "measure_step": 2},
    "singularity-diag": {"hole": HOLE, "k_steps": 2, "n_particles": 100},
    "tower-eig": {
        "tower": {"levels": [{"cells": [
            {"mass": 0.25, "return": 1, "target": [0, 1]},
            {"mass": 0.25, "return": 1, "target": [2, 3]},
            {"mass": 0.25, "return": 1, "target": [0, 1]},
            {"mass": 0.25, "return": 1, "target": [2, 3]},
        ]}], "hole": [[0, 0]], "beta": 0.8, "C0": 1.0, "theta0": 0.5,
            "C1": 0.0, "L_trunc": 1},
        "markov_map": {"breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0],
                       "image_lo": [0.0, 0.5, 0.0, 0.5],
                       "image_hi": [0.5, 1.0, 0.5, 1.0],
                       "hole_cells": [0]},
        "enforce_hole_condition": True,
    },
}


@pytest.mark.parametrize("sub,path,value", [
    ("simulate", "n_particles", "abc"),
    ("simulate", "n_max", 2.5),
    ("escape-rate", "n_particles", True),
    ("escape-rate", "n_max", None),
    ("escape-rate", "window", [2, 6.0]),
    ("survivor-measure", "n_steps", "2"),
    ("survivor-measure", "r_bins", 2.5),
    ("survivor-measure", "phi_bins", False),
    ("survivor-measure", "min_survivors", 1e3),
    ("small-hole-sweep", "measure_step", 1.5),
    ("small-hole-sweep", "hole_family.h_list", [0.1, "x"]),
    ("small-hole-sweep", "hole_family.h_list", 0.1),
    ("small-hole-sweep", "hole_family.offset", True),
    ("singularity-diag", "k_steps", [2]),
    ("singularity-diag", "n_backcheck", 10.5),
    ("singularity-diag", "k_backcheck", True),
    ("simulate", "hole.h", "0.1"),
    ("escape-rate", "hole.offset", None),
    ("tower-eig", "tol", "1e-9"),
    ("tower-eig", "max_iter", 10.5),
    ("tower-eig", "markov_map.breakpoints", ["abc", 0.25, 0.5, 0.75, 1.0]),
    ("tower-eig", "markov_map.image_lo", [0.0, 0.5, 0.0, None]),
    ("tower-eig", "markov_map.image_hi", [0.5, 1.0, 0.5, "1"]),
    ("tower-eig", "markov_map.hole_cells", [0.5]),
    ("tower-eig", "enforce_hole_condition", "no"),
    ("tower-eig", "tower.levels.0.cells.0.return", 2.9),
    ("tower-eig", "tower.levels.0.cells.1.mass", "0.25"),
    ("tower-eig", "tower.levels.0.cells.2.target", [0, True]),
    ("tower-eig", "tower.levels.0.cells.3.jacobian", "2"),
    ("tower-eig", "tower.beta", "0.8"),
    ("tower-eig", "tower.C0", None),
    ("tower-eig", "tower.theta0", [0.5]),
    ("tower-eig", "tower.C1", False),
    ("tower-eig", "tower.L_trunc", 1.5),
    ("tower-eig", "tower.hole", [[0, 0.0]]),
])
def test_config_numbers_are_checked(tmp_path, capsys, monkeypatch, sub, path,
                                    value):
    from leakybilliards import geometry

    probes = []

    def probe(*args, **kwargs):
        probes.append(1)
        raise RuntimeError("horizon probe reached")

    monkeypatch.setattr(geometry, "finite_horizon_probe", probe)
    cfg = json.loads(json.dumps(BASE_CFGS[sub]))
    if sub != "tower-eig":
        cfg["table"] = TABLE
    # the unmodified config does reach the probe
    code, _ = run(tmp_path, sub, cfg, outdir="ok")
    assert probes == ([] if sub == "tower-eig" else [1])
    assert code == (0 if sub == "tower-eig" else 3)
    capsys.readouterr()

    probes.clear()
    *parents, key = path.split(".")
    obj = cfg
    for name in parents:
        obj = obj[int(name) if isinstance(obj, list) else name]
    obj[key] = value
    code, _ = run(tmp_path, sub, cfg, outdir="bad")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config.invalid"
    assert key in err["message"]
    assert probes == []


def test_module_entry_point_stderr_is_one_json_line(tmp_path):
    import subprocess
    import sys

    cfg = write_cfg(tmp_path, "bad.json", {"n_particles": "abc", "n_max": 2})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "leakybilliards.cli", "simulate",
         "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "config.invalid"


def test_explicit_hole_reader(table):
    from leakybilliards import holes
    from leakybilliards.errors import ConfigReader

    def read(obj):
        cfg = ConfigReader({"hole": obj}, "config")
        make = cli._read_hole(cfg)
        cfg.close()
        return make

    assert read({"type": "I", "scatterer": 1, "arc": [0.9, 0.1]})(table) \
        == holes.type_i_hole(table, 1, 0.9, 0.1)
    assert read({"type": "II", "center": [0.5, 0.0], "radius": 0.05})(table) \
        == holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    assert read(None) is None
    for obj in ({"type": "III"}, {"type": "I", "scatterer": 0},
                {"type": "II", "center": [0.5], "radius": 0.05}, [0, 0.3]):
        with pytest.raises(ConfigError):
            read(obj)


@pytest.fixture
def probes(monkeypatch):
    """Stops every table build at its horizon probe, and counts the stops;
    the default table is built afresh, not taken from the process cache."""
    from leakybilliards import geometry

    calls = []

    def probe(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("horizon probe reached")

    monkeypatch.setattr(geometry, "finite_horizon_probe", probe)
    monkeypatch.setattr(geometry, "_default_table_cached",
                        geometry._default_table_cached.__wrapped__)
    return calls


# configs that ran to exit 0 computing something other than what they
# name, when each field was read by a bare float()/int() or not at all
MISREAD_HOLES = {
    "scatterer": {"type": "I", "scatterer": 0.9, "arc": [0.2, 0.3]},
    "radius": {"type": "II", "center": [0.5, 0.0], "radius": "0.05"},
    "anchor": {"kind": "I", "anchor": [0.7, 0.3], "h": 0.1},
    "type": {"kind": "I", "anchor": [0, 0.3], "h": 0.1, "type": "II"},
}


@pytest.mark.parametrize("sub,path,value,named", [
    ("escape-rate", "density", {"kind": "arc_cosine", "amp": "0.5"}, "amp"),
    ("escape-rate", "density", {"kind": "arc_cosine", "amplitude": 0.5},
     "amplitude"),
    ("escape-rate", "hole", MISREAD_HOLES["scatterer"], "scatterer"),
    ("escape-rate", "hole", MISREAD_HOLES["radius"], "radius"),
    ("escape-rate", "hole", MISREAD_HOLES["anchor"], "anchor"),
    ("escape-rate", "hole.anchor", [0, "0.3"], "anchor"),
    ("escape-rate", "hole", MISREAD_HOLES["type"], "type"),
    ("escape-rate", "table.scatterers.0.center", ["0.0", 0.0], "center"),
    ("escape-rate", "table.scatterers.1.radius", "0.2", "radius"),
    ("escape-rate", "estimater", "fleming-viot", "estimater"),
    ("escape-rate", "seed", True, "seed"),
    ("escape-rate", "threads", True, "threads"),
    ("tower-eig", "tower.c1", 5.0, "c1"),
    # fields the density's kind does not use
    ("escape-rate", "density", {"kind": "nu", "amp": 0.5}, "amp"),
    ("escape-rate", "density", {"kind": "angle_ramp", "phase": 2.0}, "phase"),
])
def test_config_misreads_are_rejected(tmp_path, capsys, probes, sub, path,
                                      value, named):
    cfg = BASE_CFGS[sub] if sub == "tower-eig" else dict(BASE_CFGS[sub], table=TABLE)
    cfg = json.loads(json.dumps(cfg))
    *parents, key = path.split(".")
    obj = cfg
    for name in parents:
        obj = obj[int(name) if isinstance(obj, list) else name]
    obj[key] = value
    code, _ = run(tmp_path, sub, cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config.invalid"
    assert named in err["message"]
    assert probes == []


@pytest.mark.parametrize("name,sub", [
    ("escape_default", "escape-rate"),
    ("sweep_type1", "small-hole-sweep"),
    ("tower_golden", "tower-eig"),
    ("tower_golden", "tower-bound"),
])
def test_shipped_configs_load(tmp_path, capsys, probes, name, sub):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        f"{name}.json")
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main([sub, "--config", path, "--out", str(out)])
    if sub.startswith("tower-"):
        # no table: the whole run is cheap
        assert code == 0
        assert (out / "results.json").exists()
    else:
        # every field was read and accepted; the run stopped at the probe
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert "horizon probe reached" in err["message"]
        assert probes == [1]


def test_starved_escape_run_fails_before_simulating(tmp_path, capsys, monkeypatch):
    from leakybilliards import open_dynamics

    # the shipped run and ESCAPE_CFG predict plenty of survivors, and
    # report the prediction
    code, out = run(tmp_path, "escape-rate", ESCAPE_CFG)
    assert code == 0
    nu_hole = 0.3 / (2 * math.pi * 0.6)
    assert math.isclose(read_results(out)["predicted_survivors_at_end"],
                        20000 * math.exp(-nu_hole * 25), rel_tol=1e-12)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "escape_default.json")
    with open(path) as fh:
        shipped = json.load(fh)
    assert shipped["n_particles"] * math.exp(
        -2 * shipped["hole"]["h"] / (2 * math.pi * 0.6) * shipped["window"][1]) > 100

    # 1000 particles through the same arc for 200 steps: about 1e-4
    # survivors predicted, far below min_tail = 100, so no step is run
    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble was evolved")

    monkeypatch.setattr(open_dynamics, "evolve_ensemble", no_run)
    code, out = run(tmp_path, "escape-rate",
                    dict(ESCAPE_CFG, n_particles=1000, n_max=200, window=[10, 200]),
                    outdir="starved")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "escape.starved_sample"
    assert "predicted" in err["message"]
    assert not (out / "results.json").exists()


BINNED_CFGS = {
    "small-hole-sweep": {
        "hole_family": {"anchor": [0, 0.3], "h_list": [0.08, 0.04], "kind": "I"},
        "n_particles": 2000, "n_max": 30, "window": [5, 25],
        "measure_step": 10, "r_bins": 16, "phi_bins": 16, "seed": 7,
    },
    "survivor-measure": {
        "hole": {"kind": "I", "anchor": [0, 0.3], "h": 0.05},
        "n_particles": 2000, "n_steps": 8, "r_bins": 16, "phi_bins": 16,
        "seed": 5, "min_survivors": 500,
    },
}


@pytest.mark.parametrize("sub,field,value", [
    ("small-hole-sweep", "phi_bins", -3),
    ("small-hole-sweep", "r_bins", 0),
    ("survivor-measure", "r_bins", 0),
    ("survivor-measure", "phi_bins", -3),
])
def test_bad_bin_counts_fail_before_simulating(tmp_path, capsys, monkeypatch,
                                               sub, field, value):
    from leakybilliards import open_dynamics

    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble was evolved")

    monkeypatch.setattr(open_dynamics, "evolve_ensemble", no_run)
    code, out = run(tmp_path, sub, dict(BINNED_CFGS[sub], **{field: value}))
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config.bad_argument"
    assert err["message"] == "bin counts must be positive"
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("estimator", ["direct", "fleming-viot"])
@pytest.mark.parametrize("window", [[10, 70], [-1, 20], [20, 20], [5, 6]])
def test_window_outside_the_run_fails_before_simulating(
        tmp_path, capsys, probes, monkeypatch, estimator, window):
    from leakybilliards import escape

    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble was evolved")

    monkeypatch.setattr(escape, "estimate_escape_rate", no_run)
    monkeypatch.setattr(escape, "fleming_viot_evolve", no_run)
    code, out = run(tmp_path, "escape-rate",
                    dict(ESCAPE_CFG, estimator=estimator, n_max=60, window=window))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config.bad_argument"
    lo, hi = window
    assert err["message"] == (
        "window needs at least 3 points" if 0 <= lo < hi <= 60
        else f"window [{lo},{hi}] outside the recorded range [0,60]")
    # no table was built, so no horizon probe ran
    assert probes == []
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("change, message", [
    ({"window": [25, 40]}, "window [25,40] outside the recorded range [0,30]"),
    ({"measure_step": 0}, "measure_step must lie in [1, n_max]"),
    ({"measure_step": 31}, "measure_step must lie in [1, n_max]"),
], ids=["window", "measure_step-0", "measure_step-31"])
def test_sweep_arguments_fail_before_the_table_is_built(
        tmp_path, capsys, probes, change, message):
    cfg = {
        "table": {"scatterers": [{"center": [0.0, 0.0], "radius": 0.4},
                                 {"center": [0.5, 0.5], "radius": 0.2}]},
        "hole_family": {"anchor": [0, 0.3], "h_list": [0.08], "kind": "I"},
        "n_particles": 1000, "n_max": 30, "window": [5, 25],
        "measure_step": 10, "r_bins": 16, "phi_bins": 16, "seed": 7,
    }
    code, out = run(tmp_path, "small-hole-sweep", dict(cfg, **change))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config.bad_argument"
    assert err["message"] == message
    assert probes == []
    assert not (out / "results.json").exists()
