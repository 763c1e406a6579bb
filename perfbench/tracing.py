"""Layer tracing from outside the program.

Tracer replaces public functions with timing wrappers by assigning
module (or class) attributes.  Callers inside the package look these up
through the module dict at call time, so the wrappers see every call.
Spans stay in memory until the run ends; uninstall() puts every
original object back.

A span is (id, name, start, end, parent, thread, counts).  A span
opened on a thread with no open span of its own (a worker of
collide_batch_threaded) takes the main thread's innermost open span as
parent, which is why self time subtracts the union of child intervals.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np


def n_cylinders(fn) -> int:
    """Number of cylinder values a tower function holds."""
    vals = fn.values
    if isinstance(vals, dict):
        return int(sum(np.size(v) for v in vals.values()))
    return int(np.size(vals))


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _threaded_counts(od):
    def counts(args, kwargs, out):
        n = len(_arg(args, kwargs, 1, "sid"))
        return {"n": n, "threads": int(_arg(args, kwargs, 4, "threads", 1)),
                "below_chunk": int(n <= getattr(od, "CHUNK", 0))}
    return counts


def targets(lb):
    """(owner, attribute, span name, count function) for each traced call.

    lb is the imported leakybilliards package.  Count functions read
    call arguments and results only, after the call returns.
    """
    geo, bmap, holes = lb.geometry, lb.billiard_map, lb.holes
    od, meas, esc, tw = lb.open_dynamics, lb.measures, lb.escape, lb.tower
    return [
        (lb.cli, "write_results", "cli.write_results", None),
        (geo, "finite_horizon_probe", "geometry.horizon_probe", None),
        (geo, "rays_from_boundary", "geometry.rays_from_boundary", None),
        (geo, "first_hit_batch", "geometry.first_hit_batch",
         lambda a, k, out: {"rays": len(out[0]), "grazed": int(np.sum(out[3]))}),
        (bmap, "collide_batch", "billiard_map.collide_batch",
         lambda a, k, out: {"collisions": len(out.censored),
                            "censored": int(np.sum(out.censored))}),
        (bmap, "collide_inverse_batch", "billiard_map.collide_inverse_batch", None),
        (holes, "arrival_escape_mask", "holes.arrival_escape_mask", None),
        (holes, "segment_crosses_disk", "holes.segment_crosses_disk",
         lambda a, k, out: {"offset_tests":
                            len(out) * len(_arg(a, k, 5, "offsets"))}),
        (holes, "state_in_hole_batch", "holes.state_in_hole_batch", None),
        (od, "collide_batch_threaded", "open_dynamics.collide_batch_threaded",
         _threaded_counts(od)),
        (od, "evolve_ensemble", "open_dynamics.evolve_ensemble", None),
        (meas, "sample_initial", "measures.sample_initial", None),
        (meas, "bin_measure", "measures.bin_measure", None),
        (meas, "noise_floor", "measures.noise_floor", None),
        (esc, "fleming_viot_evolve", "escape.fleming_viot_evolve",
         lambda a, k, out: {"n_cloned": int(out.n_cloned)}),
        (esc, "fit_escape_rate", "escape.fit_escape_rate", None),
        (tw, "build_tower", "tower.build_tower", None),
        (getattr(tw, "Tower", None), "depth_tables", "tower.depth_tables", None),
        (tw, "transfer_apply", "tower.transfer_apply",
         lambda a, k, out: {"cylinders": n_cylinders(out)}),
        (tw, "leading_eigenpair", "tower.leading_eigenpair",
         lambda a, k, out: {"iterations": int(out[2].iterations)}),
        (tw, "markov_matrix_oracle", "tower.markov_matrix_oracle", None),
        (tw, "theta_lower_bound", "tower.theta_lower_bound", None),
        (tw, "tail_mass_check", "tower.tail_mass_check", None),
        (tw, "d_functional", "tower.d_functional", None),
    ]


class Tracer:
    """Installs timing wrappers and collects spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, count_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            # itertools.count and list.append are single C calls, atomic
            # under the interpreter lock, so worker threads need no lock
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if count_fn is not None and out is not None:
                    counts = count_fn(args, kwargs, out)
                tracer.spans.append((span_id, name, start, end, parent,
                                     threading.get_ident(), counts))

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def install(self, target_list) -> list[str]:
        """Wrap every target that exists; returns the span names wrapped."""
        wrapped = []
        for owner, attr, name, count_fn in target_list:
            if owner is None or attr not in vars(owner):
                continue  # absent in this version of the program
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, count_fn))
            wrapped.append(name)
        return wrapped

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def leftover(self, target_list) -> list[str]:
        """Span names whose wrapper is still installed."""
        return [name for owner, attr, name, _ in target_list
                if owner is not None and getattr(vars(owner).get(attr),
                                                 "__wrapped_by_perfbench__", False)]


# -- aggregation ---------------------------------------------------------------


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, summed counts.

    Spans under the horizon probe are certification (set-up) work and
    are summarized under the name prefixed with "probe:" instead.
    """
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def under_probe(s):
        p = s[4]
        while p is not None and p in by_id:
            if by_id[p][1] == "geometry.horizon_probe":
                return True
            p = by_id[p][4]
        return False

    out: dict = {}
    for s in spans:
        span_id, name, start, end, _, _, counts = s
        if under_probe(s):
            name = "probe:" + name
        kids = [(c[2], c[3]) for c in children.get(span_id, ())]
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "child_s": 0.0, "counts": {}})
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += (end - start) - _union_length(kids, start, end)
        rec["child_s"] += sum(b - a for a, b in kids)
        for key, val in (counts or {}).items():
            rec["counts"][key] = rec["counts"].get(key, 0) + val
        if name == "open_dynamics.collide_batch_threaded":
            rec["thread_capacity_s"] = (rec.get("thread_capacity_s", 0.0)
                                        + (end - start) * (counts or {}).get("threads", 1))
    return out
