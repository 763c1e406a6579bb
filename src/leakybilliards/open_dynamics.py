"""Open-system evolution: iterate the collision map and remove escapers.

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
byte-for-byte for any worker count.
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

ALIVE, ESCAPED, CENSORED = 0, 1, 2


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


def open_step_batch(table, hole, images, sid, r, phi, threads: int = 1):
    """One step of the open collision map; returns (CollisionBatch, escaped).

    The states are cut into CHUNK-sized slices; each slice is collided
    and masked on its own, and threads only decides which worker runs
    which slice.  Both steps work element by element, so the result is
    the same for any chunking and any thread count.  escaped never marks
    a censored entry.  hole None means a closed step; images are the
    holes.escape_offsets of the hole, computed here when None.
    """
    sid = np.asarray(sid, dtype=np.int64)
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if images is None:
        images = _holes.escape_offsets(table, hole)

    def step(lo):
        batch = _bmap.collide_batch(table, sid[lo:lo + CHUNK], r[lo:lo + CHUNK],
                                    phi[lo:lo + CHUNK])
        if hole is None:
            return batch, np.zeros(len(batch.censored), dtype=bool)
        return batch, _holes.arrival_escape_mask(table, hole, batch, images)

    starts = range(0, max(len(sid), 1), CHUNK)
    if threads <= 1 or len(starts) == 1:
        parts = [step(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(step, starts))
    if len(parts) == 1:
        return parts[0]
    batches, masks = zip(*parts)
    # departure_id, the last field, is a slice of sid in every part
    joined = map(np.concatenate, zip(*(b[:-1] for b in batches)))
    return _bmap.CollisionBatch(*joined, sid), np.concatenate(masks)


@dataclass
class EnsembleResult:
    """Outcome of an open evolution run.

    survivors, escaped, censored are cumulative counts indexed by step,
    length n_steps+1, satisfying survivors[k] + escaped[k] + censored[k]
    == n at every k.  final_* hold the surviving states at the last
    step; alive_index maps them back to initial-particle indices.
    escape_step[i] is the kill index of particle i (-1 if it never
    escaped); captures maps requested steps to survivor state triples.
    """

    convention: str
    n: int
    n_steps: int
    survivors: np.ndarray
    escaped: np.ndarray
    censored: np.ndarray
    final_sid: np.ndarray
    final_r: np.ndarray
    final_phi: np.ndarray
    alive_index: np.ndarray
    escape_step: np.ndarray
    captures: dict = field(default_factory=dict)


def evolve_ensemble(table, hole, sid, r, phi, n_steps: int,
                    convention: str = "arrival", threads: int = 1,
                    capture=()) -> EnsembleResult:
    """Iterate the open map on an ensemble, recording survival counts.

    hole may be None for a closed run (nothing escapes, censoring still
    applies).  capture lists steps at which survivor states should be
    snapshotted; step n_steps is always available via final_*.
    """
    if convention not in ("arrival", "departure"):
        raise InvalidArgumentError(f"unknown escape convention {convention!r}")
    if n_steps < 0:
        raise InvalidArgumentError("n_steps must be nonnegative")
    sid = np.asarray(sid, dtype=np.int64).copy()
    r = np.asarray(r, dtype=float).copy()
    phi = np.asarray(phi, dtype=float).copy()
    n = len(sid)
    status = np.zeros(n, dtype=np.int8)
    escape_step = np.full(n, -1, dtype=np.int64)
    capture = set(int(c) for c in capture)
    captures: dict = {}

    images = _holes.escape_offsets(table, hole)

    survivors = np.zeros(n_steps + 1, dtype=np.int64)
    escaped = np.zeros(n_steps + 1, dtype=np.int64)
    censored = np.zeros(n_steps + 1, dtype=np.int64)

    if convention == "arrival" and hole is not None:
        # index-0 escapes: initial states already inside the hole
        mask, cens = _holes.state_in_hole_batch(table, hole, sid, r, phi, images)
        status[cens] = CENSORED
        hit = mask & (status == ALIVE)
        status[hit] = ESCAPED
        escape_step[hit] = 0

    def record(k):
        survivors[k] = int(np.count_nonzero(status == ALIVE))
        escaped[k] = int(np.count_nonzero(status == ESCAPED))
        censored[k] = int(np.count_nonzero(status == CENSORED))
        if k in capture:
            live = status == ALIVE
            captures[k] = (sid[live].copy(), r[live].copy(), phi[live].copy())

    record(0)
    # arrival: iteration k computes the collision arriving at index k;
    # departure: iteration k tests the flight departing at index k, so
    # filling survivors[0..n_steps] takes n_steps+1 collision passes
    for k in range(1 if convention == "arrival" else 0, n_steps + 1):
        live = np.flatnonzero(status == ALIVE)
        if len(live):
            batch, esc = open_step_batch(
                table, hole, images, sid[live], r[live], phi[live], threads
            )
            status[live[batch.censored]] = CENSORED
            status[live[esc]] = ESCAPED
            escape_step[live[esc]] = k
            ok = ~(batch.censored | esc)
            tgt = live[ok]
            sid[tgt] = batch.scatterer_id[ok]
            r[tgt] = batch.r[ok]
            phi[tgt] = batch.phi[ok]
        record(k)

    live = status == ALIVE
    return EnsembleResult(
        convention=convention,
        n=n,
        n_steps=n_steps,
        survivors=survivors,
        escaped=escaped,
        censored=censored,
        final_sid=sid[live],
        final_r=r[live],
        final_phi=phi[live],
        alive_index=np.flatnonzero(live),
        escape_step=escape_step,
        captures=captures,
    )
