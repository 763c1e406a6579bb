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
identical byte-for-byte for any worker count.  Chunks run in order at
one thread, or on the process's one pool of worker threads per thread
count.  On its first call, _map_chunks fixes glibc's heap policy for
the process (one arena, fixed mmap and trim thresholds) so a step's
memory stays resident between steps; see _keep_heap.

A step works in place: for each chunk, open_step_batch finds the
flights (billiard_map.flights), tests a Type II hole on them, writes
the arrivals over that chunk of its input (billiard_map.arrive) and
tests a Type I hole on those, and returns only the censored and
escaped masks.  No arrival is built in arrays of its own, so one
CHUNK-row step peaks at about 81 B/row (Type I) or 87 B/row (Type II)
of working memory, the launch points, flight lengths, row keys and
image indices of its flights (40 B/row) and a few columns.
evolve_ensemble copies the caller's ensemble once and carries the run
in that one buffer, packing the survivors to its front after each
step, with their initial-particle indices; the caller's arrays never
change.
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
    """Fix glibc's heap policy, once, before the first chunked pass.

    By default every worker thread gets its own malloc arena, and glibc
    moves its mmap and trim thresholds with the largest block freed so
    far, so a step's temporaries (at most 110 B/row, about 7 MiB a
    CHUNK slice) go back to the OS after it and are faulted in again by
    the next step: thousands of minor page faults per step at 2
    threads, and up to about 1,800 on some steps at 1 thread.  One
    arena with thresholds fixed above the step's arrays (0.5 MiB per
    column of a slice) and above the two workers' working sets (about
    11 MiB together) keeps that memory resident.  Nothing here changes
    a computed value; where the C library is not glibc, or mallopt
    cannot be reached, the allocator is left alone.
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


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's one pool of threads workers, made on first use and
    kept, so every step runs on the same worker threads."""
    return ThreadPoolExecutor(max_workers=threads)


def _map_chunks(fn, state, threads):
    """fn on each CHUNK-sized slice of a billiard_map.State, joined.

    fn gets views of state's arrays and returns a tuple of arrays, one
    entry per state of its slice; entries are concatenated across
    slices once all are done.  Slices run in order, or on _pool(threads)
    when there are several; which worker runs which slice changes no
    result, and a worker that writes to its slice writes to no other.
    """
    _keep_heap()
    n = len(state.sid)
    parts = [_bmap.State(*(a[lo:lo + CHUNK] for a in state))
             for lo in range(0, max(n, 1), CHUNK)]
    if threads <= 1 or len(parts) == 1:
        parts = [fn(part) for part in parts]
    else:
        parts = list(_pool(threads).map(fn, parts))
    if len(parts) == 1:
        return parts[0]
    return tuple(map(np.concatenate, zip(*parts)))


def open_step_batch(table, hole, state, threads: int = 1):
    """One step of the open collision map on a billiard_map.State, in
    place.

    Each entry of state is overwritten by its arrival; returns
    (censored, escaped), masks of the censored and the escaped flights.
    escaped never marks a censored entry, and censored entries hold
    placeholder states.  Each slice of _map_chunks is searched
    (billiard_map.flights), hole-tested and arrived (billiard_map.arrive)
    on its own: a Type II score reads the flight before the arrival
    overwrites its direction, a Type I score reads the arrival.  Every
    step works element by element, so the result is the same for any
    chunking and any thread count.  hole None means a closed step.
    """
    early = _holes.reads_flight(hole)

    def step(part):
        flight = _bmap.flights(table, *part)
        if early:
            inside, _ = _holes.in_hole_given_flight(table, hole, None, None, flight)
        _bmap.arrive(table, flight, *part)
        cens = flight.censored
        del flight  # its 40 B/row are free before a Type I score
        if not early:
            inside, _ = _holes.in_hole_given_flight(table, hole, part.sid, part.normal, None)
        inside &= ~cens
        return cens, inside

    return _map_chunks(step, state, threads)


def hole_membership(table, hole, state, threads: int = 1):
    """holes.state_in_hole of a billiard_map.State, run slice by slice
    like open_step_batch: returns (in_hole, censored), the same bits for
    any thread count."""
    return _map_chunks(
        lambda part: _holes.state_in_hole(table, hole, part), state, threads)


def _pack(state, keep):
    """The states at the increasing indices keep, moved to the front of
    state's own arrays; returns that prefix.  keep[i] >= i, so every
    state is read before its slot is written.  take buffers its output,
    so the move goes CHUNK states at a time to keep that buffer small."""
    m = len(keep)
    for a in state:
        for lo in range(0, m, CHUNK):
            a.take(keep[lo:lo + CHUNK], axis=0, out=a[lo:min(lo + CHUNK, m)])
    return _bmap.State(*(a[:m] for a in state))


@dataclass
class EnsembleResult:
    """Outcome of an open evolution run.

    survivors, escaped, censored are cumulative counts indexed by step,
    length n_steps+1, satisfying survivors[k] + escaped[k] + censored[k]
    == n at every k.  final_state holds the surviving states at the
    last step, on table, as a prefix view of the run's one buffer, and final_* their (sid, r, phi), computed on
    first read; alive_index maps them back to initial-particle indices.
    escape_step[i] is the kill index of particle i (-1 if it never
    escaped); captures maps requested steps to survivor (sid, r, phi)
    triples.
    """

    convention: str
    n: int
    n_steps: int
    survivors: np.ndarray
    escaped: np.ndarray
    censored: np.ndarray
    final_state: _bmap.State
    alive_index: np.ndarray
    escape_step: np.ndarray
    table: object = field(repr=False)
    captures: dict = field(default_factory=dict)

    @functools.cached_property
    def _final_phase(self):
        return _bmap.phase_of(self.table, self.final_state)

    final_sid = property(lambda self: self._final_phase[0])
    final_r = property(lambda self: self._final_phase[1])
    final_phi = property(lambda self: self._final_phase[2])


def capture_steps(capture, n_steps: int) -> set:
    """The requested snapshot steps as a set; each must lie in
    0..n_steps, or no snapshot of it would ever be taken."""
    steps = set(int(c) for c in capture)
    outside = sorted(c for c in steps if not 0 <= c <= n_steps)
    if outside:
        raise InvalidArgumentError(
            f"capture steps {outside} outside the run's steps [0,{n_steps}]")
    return steps


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
    capture = capture_steps(capture, n_steps)
    captures: dict = {}
    # the run's one buffer; the caller's arrays are never written
    state = _bmap.State(np.array(state.sid, dtype=np.int64, order="C"),
                        np.array(state.normal, dtype=float, order="C"),
                        np.array(state.velocity, dtype=float, order="C"))
    n = len(state.sid)
    alive = np.arange(n)
    escape_step = np.full(n, -1, dtype=np.int64)

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
        state = _pack(state, drop(0, cens, mask))

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
            cens, esc = open_step_batch(table, hole, state, threads)
            state = _pack(state, drop(k, cens, esc))
        record(k)

    return EnsembleResult(
        convention=convention,
        n=n,
        n_steps=n_steps,
        survivors=survivors,
        escaped=escaped,
        censored=censored,
        final_state=state,
        alive_index=alive,
        escape_step=escape_step,
        table=table,
        captures=captures,
    )
