"""The benchmark's calls into the package still work.

perfbench/child.py drives the package through public names and
signatures.  Running each workload at its small size, once untraced and
once traced, turns a change that breaks one of them into a test failure
here rather than a failed benchmark run.  perfbench/ is only read.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _child(workload, input_path, out_dir, traced):
    os.makedirs(out_dir)
    report = os.path.join(out_dir, "report.json")
    cmd = [sys.executable, os.path.join(PERFBENCH, "child.py"), "--workload", workload,
           "--input", input_path, "--out", out_dir, "--report", report]
    if traced:
        cmd += ["--spans", os.path.join(out_dir, "spans.json")]
    env = dict(os.environ)
    env.pop("LEAKY_THREADS", None)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(report) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_child_runs_each_workload(workload, tmp_path):
    input_path = tmp_path / "input.json"
    input_path.write_text(json.dumps(WORKLOADS.make_input(workload, 1, small=True)))
    plain, traced = (_child(workload, str(input_path), str(tmp_path / name), spans)
                     for name, spans in (("plain", False), ("traced", True)))
    for report in (plain, traced):
        assert report["checks"] and all(c["ok"] for c in report["checks"].values()), \
            report["checks"]
        assert report["wrappers_left"] == []
    assert plain["digest"] == traced["digest"]


def test_benchmark_child_solves_the_full_tower_input(tmp_path):
    # the small input has no depth-6 tower, so only the full one takes
    # the child through refining to depth 6 and coarsening back
    inp = WORKLOADS.make_input("tower-spectral", 1)
    assert max(t["depth"] for t in inp["towers"]) == 6
    input_path = tmp_path / "input.json"
    input_path.write_text(json.dumps(inp))
    report = _child("tower-spectral", str(input_path), str(tmp_path / "full"), False)
    assert report["checks"] and all(c["ok"] for c in report["checks"].values()), \
        report["checks"]
