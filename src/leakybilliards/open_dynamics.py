"""Open-system evolution: iterate the collision map and remove escapers.

Ensembles are carried as billiard_map.State, the Cartesian form
(scatterer id, boundary normal, velocity), so a step needs no
trigonometry and gives the same bits on every host; (r, phi) appear
only in the results (final_*, captures).

Two bookkeeping conventions for when an escape through a Type II disk
(or a Type I arc) is counted:

* "arrival": a trajectory is killed at the collision state it lands on;
  index 0 escapes are states already in the hole.
* "departure": the kill is attributed to the state the fatal flight
  left from, one index earlier.  The surviving trajectories are the
  same; only the escape-time index shifts by one.

Near-tangential collisions are censored rather than resolved: a
censored particle leaves the at-risk population at the step where the
guard fired and is excluded from both numerator and denominator of
every survival ratio downstream.

Every forward step goes through open_step_batch, and every index-0
hole test through hole_membership.  Both take only the table, the hole
and the states and leave the hole test to holes, where None, the hole
of a closed run, holds no state.  Both run on _map_chunks, which
always works in fixed-size chunks, element by element, so outputs are
identical byte-for-byte for any worker count.  Before its first worker
pool, _map_chunks fixes glibc's heap policy for the process (one arena,
fixed mmap and trim thresholds) so the workers' memory stays resident
between steps; see _keep_heap.  evolve_ensemble keeps only the
survivors, packed, with their initial-particle indices.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import billiard_map as _bmap
from . import holes as _holes
from .errors import ConfigError, InvalidArgumentError

CHUNK = 65536

# glibc mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def default_threads() -> int:
    """Worker count from LEAKY_THREADS, defaulting to 1; anything but a
    positive integer there is a ConfigError."""
    value = os.environ.get("LEAKY_THREADS", "1")
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"LEAKY_THREADS must be a positive integer, got {value!r}")
    return threads


@functools.cache
def _keep_heap() -> None:
    """Fix glibc's heap policy, once, before the first worker pool.

    By default every worker thread gets its own malloc arena, and glibc
    moves its mmap and trim thresholds with the largest block freed so
    far, so after each step the workers' per-slice temporaries (about
    9 MiB a slice) go back to the OS and are faulted in again on the
    next step: thousands of minor page faults per step at 2 threads.
    One arena with thresholds fixed above the step's arrays (2 MiB per
    column at two slices) and above one slice's working set keeps that
    memory resident.  Single-thread runs never get here: pinned at
    import, the same settings raised their peak RSS by 2-3%.  Nothing
    here changes a computed value; where the C library is not glibc, or
    mallopt cannot be reached, the allocator is left alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 4 << 20),
                         (_M_TRIM_THRESHOLD, 16 << 20)):
        mallopt(param, value)


def _join(pieces):
    if isinstance(pieces[0], _bmap.State):
        return _bmap.State(*map(np.concatenate, zip(*pieces)))
    return np.concatenate(pieces)


def _map_chunks(fn, state, threads):
    """fn on each CHUNK-sized slice of a billiard_map.State, joined.

    fn returns a tuple of arrays and States, one entry per state of its
    slice; entries are concatenated across slices once all are done.
    Slices run in order, or in a pool of threads workers when there are
    several; which worker runs which slice changes no result.  Writing
    each slice into preallocated outputs instead was tried: it lets
    glibc trim the heap between slices and fault it back in on the next
    one (about 4x the page faults of a 200000-particle run).
    """
    n = len(state.sid)
    parts = [_bmap.State(*(a[lo:lo + CHUNK] for a in state))
             for lo in range(0, max(n, 1), CHUNK)]
    if threads <= 1 or len(parts) == 1:
        parts = [fn(part) for part in parts]
    else:
        _keep_heap()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(fn, parts))
    if len(parts) == 1:
        return parts[0]
    return tuple(map(_join, zip(*parts)))


def open_step_batch(table, hole, state, threads: int = 1):
    """One step of the open collision map on a billiard_map.State.

    Returns (arrivals, censored, escaped): the arrival States, and masks
    of the censored and the escaped flights.  escaped never marks a
    censored entry, and censored entries hold placeholder states.  Each
    slice of _map_chunks is collided and masked on its own; both steps
    work element by element, so the result is the same for any chunking
    and any thread count.  hole None means a closed step.
    """

    def step(part):
        batch = _bmap.collide_cartesian(table, *part)
        escaped = _holes.arrival_escape_mask(table, hole, batch)
        return batch.arrivals(), batch.censored, escaped

    return _map_chunks(step, state, threads)


def hole_membership(table, hole, state, threads: int = 1):
    """holes.state_in_hole of a billiard_map.State, run slice by slice
    like open_step_batch: returns (in_hole, censored), the same bits for
    any thread count."""
    return _map_chunks(
        lambda part: _holes.state_in_hole(table, hole, part), state, threads)


@dataclass
class EnsembleResult:
    """Outcome of an open evolution run.

    survivors, escaped, censored are cumulative counts indexed by step,
    length n_steps+1, satisfying survivors[k] + escaped[k] + censored[k]
    == n at every k.  final_state holds the surviving states at the
    last step and final_* their (sid, r, phi); alive_index maps them
    back to initial-particle indices.  escape_step[i] is the kill index
    of particle i (-1 if it never escaped); captures maps requested
    steps to survivor (sid, r, phi) triples.
    """

    convention: str
    n: int
    n_steps: int
    survivors: np.ndarray
    escaped: np.ndarray
    censored: np.ndarray
    final_state: _bmap.State
    final_sid: np.ndarray
    final_r: np.ndarray
    final_phi: np.ndarray
    alive_index: np.ndarray
    escape_step: np.ndarray
    captures: dict = field(default_factory=dict)


def evolve_ensemble(table, hole, state, n_steps: int,
                    convention: str = "arrival", threads: int = 1,
                    capture=()) -> EnsembleResult:
    """Iterate the open map on an ensemble of billiard_map.State,
    recording survival counts.

    hole may be None for a closed run (nothing escapes, censoring still
    applies).  capture lists steps at which survivor states should be
    snapshotted; step n_steps is always available via final_*.
    """
    if convention not in ("arrival", "departure"):
        raise InvalidArgumentError(f"unknown escape convention {convention!r}")
    if n_steps < 0:
        raise InvalidArgumentError("n_steps must be nonnegative")
    state = _bmap.State(np.asarray(state.sid, dtype=np.int64),
                        np.asarray(state.normal, dtype=float),
                        np.asarray(state.velocity, dtype=float))
    n = len(state.sid)
    alive = np.arange(n)
    escape_step = np.full(n, -1, dtype=np.int64)
    capture = set(int(c) for c in capture)
    captures: dict = {}

    survivors = np.zeros(n_steps + 1, dtype=np.int64)
    escaped = np.zeros(n_steps + 1, dtype=np.int64)
    censored = np.zeros(n_steps + 1, dtype=np.int64)
    n_esc = n_cens = 0

    def drop(k, cens, esc):
        # retire the censored and the escaped, keep the rest packed
        nonlocal n_esc, n_cens, alive
        hit = esc & ~cens
        escape_step[alive[hit]] = k
        n_esc += int(np.count_nonzero(hit))
        n_cens += int(np.count_nonzero(cens))
        keep = np.flatnonzero(~(cens | esc))
        alive = alive[keep]
        return keep

    if convention == "arrival":
        # index-0 escapes: initial states already inside the hole
        mask, cens = hole_membership(table, hole, state, threads)
        state = state.take(drop(0, cens, mask))

    def record(k):
        survivors[k] = len(alive)
        escaped[k] = n_esc
        censored[k] = n_cens
        if k in capture:
            captures[k] = _bmap.phase_of(table, state)

    record(0)
    # arrival: iteration k computes the collision arriving at index k;
    # departure: iteration k tests the flight departing at index k, so
    # filling survivors[0..n_steps] takes n_steps+1 collision passes
    for k in range(1 if convention == "arrival" else 0, n_steps + 1):
        if len(alive):
            arrivals, cens, esc = open_step_batch(table, hole, state, threads)
            state = arrivals.take(drop(k, cens, esc))
        record(k)

    final_sid, final_r, final_phi = _bmap.phase_of(table, state)
    return EnsembleResult(
        convention=convention,
        n=n,
        n_steps=n_steps,
        survivors=survivors,
        escaped=escaped,
        censored=censored,
        final_state=state,
        final_sid=final_sid,
        final_r=final_r,
        final_phi=final_phi,
        alive_index=alive,
        escape_step=escape_step,
        captures=captures,
    )
