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

Every forward step goes through open_step_batch, which always works in
fixed-size chunks and element by element, so outputs are identical
byte-for-byte for any worker count.  evolve_ensemble keeps only the
survivors, packed, with their initial-particle indices.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import billiard_map as _bmap
from . import holes as _holes
from .errors import ConfigError, InvalidArgumentError

CHUNK = 65536


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


def open_step_batch(table, hole, images, state, threads: int = 1):
    """One step of the open collision map on a billiard_map.State.

    Returns (arrivals, censored, escaped): the arrival States, and masks
    of the censored and the escaped flights.  escaped never marks a
    censored entry, and censored entries hold placeholder states.  The
    states are cut into CHUNK-sized slices; each slice is collided and
    masked on its own, and threads only decides which worker runs which
    slice.  Both steps work element by element, so the result is the
    same for any chunking and any thread count.  The slices' results are
    joined once all are done: writing each into preallocated outputs
    instead lets glibc trim the heap between slices and fault it back in
    on the next one (about 4x the page faults of a 200000-particle
    run).  hole None means a closed step; images are the
    holes.escape_offsets of the hole, computed here when None.
    """
    sid, normal, velocity = state
    n = len(sid)
    if images is None:
        images = _holes.escape_offsets(table, hole)

    def step(part):
        batch = _bmap.collide_cartesian(table, sid[part], normal[part], velocity[part])
        if hole is None:
            escaped = np.zeros(len(batch.censored), dtype=bool)
        else:
            escaped = _holes.arrival_escape_mask(table, hole, batch, images)
        return batch.arrivals(), batch.censored, escaped

    parts = [slice(lo, lo + CHUNK) for lo in range(0, max(n, 1), CHUNK)]
    if threads <= 1 or len(parts) == 1:
        parts = [step(part) for part in parts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(step, parts))
    if len(parts) == 1:
        return parts[0]
    arrivals, censored, escaped = zip(*parts)
    return (_bmap.State(*map(np.concatenate, zip(*arrivals))),
            np.concatenate(censored), np.concatenate(escaped))


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

    images = _holes.escape_offsets(table, hole)

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

    if convention == "arrival" and hole is not None:
        # index-0 escapes: initial states already inside the hole
        mask, cens = _holes.state_in_hole(table, hole, state, images)
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
            arrivals, cens, esc = open_step_batch(table, hole, images, state, threads)
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
