"""Self-test of the benchmark at a small size (about half a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json records every workload's rationale and
matches the metric tables in run.py and layers.py, that every layer
metric maps to existing end-to-end metrics and workloads, that each
workload emits every metric with its unit in both modes, that traced
layers mapped to a workload are nonzero there, that the tracer puts
every original function back, and that the benchmark refuses to report
in a directory without the program.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import layers
import run
import tracing
import workloads

FAILURES: list[str] = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)
        print("FAIL", msg)


def check_declaration(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check({w["name"]: w["why"] for w in bench["workloads"]} == workloads.WORKLOADS,
          "BENCHMARK.json workloads and their rationale match workloads.WORKLOADS")
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E,
          "BENCHMARK.json end_to_end matches run.E2E")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    check(declared == [tuple(e[:3]) for e in layers.LAYERS] + [layers.OVERHEAD],
          "BENCHMARK.json per_layer matches layers.LAYERS")
    names = set(workloads.WORKLOADS)
    for name, _, _, moves in layers.LAYERS:
        check(moves and all(m in run.E2E and w in names for m, w in moves),
              f"{name} maps to existing end-to-end metrics and workloads")


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(bench, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(run.ROOT, workload, trace)
        lines = proc.stdout.strip().splitlines()
        check(proc.returncode == 0 and lines, f"{workload} trace {trace} exits 0")
        if proc.returncode or not lines:
            print(proc.stderr[-2000:])
            continue
        res = json.loads(lines[-1])
        check(set(res) == {"correct", "attempted", "failed", "metrics"},
              f"{workload} trace {trace} result keys")
        check(res["correct"] is True and res["failed"] == 0,
              f"{workload} trace {trace} correct, failures {json.loads(lines[-2])['failures']}")
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == want, f"{workload} trace {trace} emits every {section} metric with its unit")
        check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
              f"{workload} trace {trace} values are numbers")
        if trace:
            for name, unit, _, moves in layers.LAYERS:
                if unit == "s" and any(w == workload for _, w in moves):
                    check(res["metrics"][name]["value"] > 0,
                          f"{name} is traced on {workload}")


def check_unwrap():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import leakybilliards as lb

    target_list = tracing.targets(lb)
    originals = [(o, a, vars(o)[a]) for o, a, _, _ in target_list if o is not None]
    tracer = tracing.Tracer()
    wrapped = tracer.install(target_list)
    check(len(wrapped) == len(originals), "every target exists and is wrapped")
    tw = lb.tower
    theta, _, _ = tw.leading_eigenpair(tw.build_tower(tw.golden_tower_spec()))
    tracer.uninstall()
    check(any(s[1] == "tower.transfer_apply" for s in tracer.spans),
          "wrappers record spans of calls made inside the package")
    check(all(vars(o)[a] is f for o, a, f in originals),
          "uninstall restores every original function")
    check(not tracer.leftover(target_list), "no wrapper left after uninstall")


def check_refuses_without_program():
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), os.path.join(bare, "perfbench"))
    proc = run_bench(bare, "tower-spectral", 0)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program: nonzero exit and no result")
    shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_declaration(bench)
    check_unwrap()
    for workload in workloads.WORKLOADS:
        check_workload(bench, workload)
    check_refuses_without_program()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
