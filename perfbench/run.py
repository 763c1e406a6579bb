"""Benchmark driver for leakybilliards.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that contains it.  A closed
loop: one child process at a time (perfbench/child.py), each a fresh
interpreter, so import and table certification are paid every time, as
by a CLI user.  Children are started until the next one would end past
--seconds (at least three untraced ones).

--trace 0 reports the end-to-end metrics as medians over the children.
--trace 1 alternates an untraced and a traced child and reports the
per-layer metrics of the traced ones plus the tracing overhead.

Every child's outputs are checked (see child.py) and hashed; a child
fails on a nonzero exit, a traceback, a failed check, a leftover
wrapper, or a digest that differs from the other children of the same
seed and source tree.  The last stdout line is the result JSON; the
line before it is a record with host facts, spreads and failures,
also written to perfbench/.work/<run>/record.json.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
SRC = os.path.join(ROOT, "src")

MIN_UNTRACED = 3       # children per --trace 0 run, whatever --seconds says
HARD_LIMIT_S = 150.0   # stop starting children past this, to exit within 180 s

# end-to-end metric -> unit; work is collisions (billiard) or cylinder updates (tower)
E2E = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "work_per_s": "1/s",
       "peak_rss_mb": "MB"}


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": git_sha(),
    }


def source_hash() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LEAKY_THREADS", None)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_child(workload, input_path, cdir, traced, timeout) -> dict:
    """One child process; returns its measurements or a failure reason."""
    os.makedirs(cdir)
    report = os.path.join(cdir, "report.json")
    spans = os.path.join(cdir, "spans.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--input", input_path, "--out", cdir, "--report", report]
    if traced:
        cmd += ["--spans", spans]
    rec = {"traced": traced, "ok": False}
    with open(os.path.join(cdir, "stdout.txt"), "w") as out, \
            open(os.path.join(cdir, "stderr.txt"), "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            rec["reason"] = f"timeout after {timeout:.0f} s"
            return rec
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    rec["process_s"] = time.monotonic() - t_spawn
    with open(os.path.join(cdir, "stderr.txt")) as fh:
        err_text = fh.read()
    if rc != 0 or "Traceback" in err_text:
        tail = err_text.strip().splitlines()[-1:] or [""]
        rec["reason"] = f"exit {rc}: {tail[0]}"
        return rec
    with open(report) as fh:
        rep = json.load(fh)
    rec["wall_s"] = rep["t_end"] - t_spawn
    rec["setup_s"] = rep["t_setup"] - t_spawn
    rec["solve_s"] = rec["wall_s"] - rec["setup_s"]
    rec["work_per_s"] = rep["work"] / rec["solve_s"]
    rec["peak_rss_mb"] = rep["peak_rss_mb"]
    rec["digest"] = rep["digest"]
    rec["checks"] = rep["checks"]
    bad = sorted(k for k, v in rep["checks"].items() if not v["ok"])
    if bad:
        rec["reason"] = "failed checks: " + ", ".join(bad)
        return rec
    if rep["wrappers_left"]:
        rec["reason"] = "wrappers left installed: " + ", ".join(rep["wrappers_left"])
        return rec
    if traced:
        with open(spans) as fh:
            summary = tracing.summarize([tuple(s) for s in json.load(fh)])
        rec["layers"] = layers.layer_values(summary, rep["import_s"])
    rec["ok"] = True
    return rec


def check_digests(results, key) -> str | None:
    """Fail every child whose digest differs from the reference.

    The reference is the digest stored for the same input and source
    tree by an earlier run in this checkout, else the first child's.
    Traced and untraced children must agree.
    """
    store_path = os.path.join(WORK, "digests.json")
    try:
        with open(store_path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    ok = [r for r in results if r["ok"]]
    if not ok:
        return None
    ref = store.get(key, ok[0]["digest"])
    for r in ok:
        if r["digest"] != ref:
            r["ok"] = False
            r["reason"] = "output digest differs from the reference for this input"
    if key not in store and any(r["ok"] for r in ok):
        store[key] = ref
        with open(store_path, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
    return ref


def spread(values) -> dict:
    values = sorted(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"n": len(values), "median": statistics.median(values), "q1": q1,
            "q3": q3, "min": values[0], "max": values[-1]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="shrunken inputs and one child per run, for selftest.py")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so run_child's finally stops the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "leakybilliards", "__init__.py")):
        print("perfbench: no program under src/leakybilliards", file=sys.stderr)
        return 2
    # bytecode once up front, so no child's import time includes compiling
    compileall.compile_dir(SRC, quiet=1)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-small" if args.small else "")
    run_dir = os.path.join(WORK, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    input_path = os.path.join(run_dir, "input.json")
    with open(input_path, "w") as fh:
        json.dump(workloads.make_input(args.workload, args.seed, small=args.small), fh)

    pattern = (False, True) if args.trace else (False,)
    min_units = 1 if (args.small or args.trace) else MIN_UNTRACED
    results, unit_s = [], []
    t0 = time.monotonic()
    while True:
        u0 = time.monotonic()
        for traced in pattern:
            cdir = os.path.join(run_dir, f"child{len(results)}")
            timeout = max(HARD_LIMIT_S - (time.monotonic() - t0), 5.0)
            results.append(run_child(args.workload, input_path, cdir, traced, timeout))
        unit_s.append(time.monotonic() - u0)
        elapsed = time.monotonic() - t0
        nxt = elapsed + statistics.median(unit_s)
        if (len(unit_s) >= min_units and nxt > args.seconds) or nxt > HARD_LIMIT_S:
            break

    with open(input_path, "rb") as fh:
        key = args.workload + ":" + hashlib.sha256(fh.read()).hexdigest() + ":" + source_hash()
    digest = check_digests(results, key)
    for i, r in enumerate(results):
        if r["ok"]:
            shutil.rmtree(os.path.join(run_dir, f"child{i}"))
    failed = [r for r in results if not r["ok"]]
    untraced = [r for r in results if r["ok"] and not r["traced"]]
    traced = [r for r in results if r["ok"] and r["traced"]]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_facts(), "digest": digest,
              "attempted": len(results), "failures": [r["reason"] for r in failed],
              "wall_process_s": time.monotonic() - t0,
              "children": [{k: r[k] for k in ("traced", "ok", "reason", *E2E) if k in r}
                           for r in results]}
    metrics = {}
    if untraced:
        record["end_to_end"] = {m: spread([r[m] for r in untraced]) for m in E2E}
    if args.trace and traced:
        names = [name for name, *_ in layers.LAYERS]
        record["per_layer"] = {m: spread([r["layers"][m] for r in traced]) for m in names}
        record["unobservable_until_roadmap_item_1"] = layers.UNOBSERVABLE
        units = {name: unit for name, unit, *_ in layers.LAYERS}
        metrics = {m: {"value": record["per_layer"][m]["median"], "unit": units[m]}
                   for m in names}
        if untraced:
            overhead = (statistics.median(r["wall_s"] for r in traced)
                        - statistics.median(r["wall_s"] for r in untraced))
            record["trace_overhead_s"] = overhead
            metrics[layers.OVERHEAD[0]] = {"value": overhead, "unit": layers.OVERHEAD[1]}
    elif not args.trace and untraced:
        metrics = {m: {"value": record["end_to_end"][m]["median"], "unit": unit}
                   for m, unit in E2E.items()}
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    if not metrics:
        print(json.dumps(record, default=float), file=sys.stderr)
        print("perfbench: no child of the kind this mode reports completed", file=sys.stderr)
        return 1
    print(json.dumps(record, default=float))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
