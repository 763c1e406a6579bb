import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from leakybilliards import billiard_map as bmap
from leakybilliards import escape, geometry, holes, measures, open_dynamics
from leakybilliards.errors import InvalidArgumentError, NoCollisionError
from leakybilliards.streams import stream
from test_geometry import _tangent_and_random_rays, strided_row_keys


def _sample(table, n, *tags):
    return measures.sample_nu_state(table, n, stream(314159, *tags))


def test_counts_conserve_population(table):
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    state = _sample(table, 5000, "conserve")
    res = open_dynamics.evolve_ensemble(table, hole, state, 30)
    assert len(res.survivors) == 31
    total = res.survivors + res.escaped + res.censored
    assert np.all(total == res.n)
    # cumulative counts are monotone
    assert np.all(np.diff(res.survivors) <= 0)
    assert np.all(np.diff(res.escaped) >= 0)
    assert np.all(np.diff(res.censored) >= 0)
    assert res.survivors[-1] == len(res.final_sid)
    assert res.survivors[-1] == len(res.alive_index)


def test_closed_run_keeps_everything(table):
    state = _sample(table, 3000, "closed")
    res = open_dynamics.evolve_ensemble(table, None, state, 20)
    assert res.escaped[-1] == 0
    assert res.survivors[-1] + res.censored[-1] == res.n
    assert np.all(res.escape_step == -1)


def test_escape_step_matches_counts(table):
    hole = holes.type_i_hole(table, 0, 0.2, 0.6)
    state = _sample(table, 4000, "steps")
    res = open_dynamics.evolve_ensemble(table, hole, state, 25)
    for k in (1, 5, 10, 25):
        from_steps = int(((res.escape_step >= 0) & (res.escape_step <= k)).sum())
        assert from_steps == res.escaped[k]


def test_departure_is_arrival_shifted(table):
    # a departure-indexed escape at k is the arrival-indexed escape at
    # k+1: the same flight, counted at its start instead of its end
    hole = holes.type_i_hole(table, 0, 0.2, 0.6)
    state = _sample(table, 4000, "shift")
    arr = open_dynamics.evolve_ensemble(
        table, hole, state, 21, convention="arrival"
    )
    dep = open_dynamics.evolve_ensemble(
        table, hole, state, 20, convention="departure"
    )
    started_inside = arr.escape_step == 0
    for k in range(0, 21):
        arr_esc = ((arr.escape_step >= 1) & (arr.escape_step <= k + 1)).sum()
        dep_esc = ((dep.escape_step >= 0) & (dep.escape_step <= k)
                   & ~started_inside).sum()
        assert arr_esc == dep_esc


def test_nested_holes_couple_monotonically(table):
    # same randomness, nested holes: the smaller hole's survivor set
    # contains the bigger hole's at every step
    state = _sample(table, 4000, "nest")
    big = holes.hole_family(table, (0, 0.3), 0.08, kind="I")
    small = holes.hole_family(table, (0, 0.3), 0.02, kind="I")
    res_b = open_dynamics.evolve_ensemble(table, big, state, 30)
    res_s = open_dynamics.evolve_ensemble(table, small, state, 30)
    assert np.all(res_s.survivors >= res_b.survivors)
    alive_b = set(res_b.alive_index.tolist())
    alive_s = set(res_s.alive_index.tolist())
    assert alive_b <= alive_s


def test_captures_and_final_state_agree(table):
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    state = _sample(table, 2000, "capture")
    res = open_dynamics.evolve_ensemble(
        table, hole, state, 15, capture=(0, 7, 15)
    )
    assert set(res.captures) == {0, 7, 15}
    for k in (0, 7, 15):
        csid, cr, cphi = res.captures[k]
        assert len(csid) == res.survivors[k]
    csid, cr, cphi = res.captures[15]
    assert np.array_equal(csid, res.final_sid)
    assert np.array_equal(cr, res.final_r)
    assert np.array_equal(cphi, res.final_phi)


def test_capture_steps_outside_the_run_fail_before_any_step(table, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(open_dynamics, "open_step_batch", no_step)
    monkeypatch.setattr(open_dynamics, "hole_membership", no_step)
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    state = _sample(table, 200, "capture-range")
    for capture in ((9, -1), (6,), (-1,)):
        with pytest.raises(InvalidArgumentError, match="capture steps"):
            open_dynamics.evolve_ensemble(table, hole, state, 5, capture=capture)
    with pytest.raises(InvalidArgumentError, match="capture steps"):
        escape.fleming_viot_evolve(table, hole, measures.DensitySpec(), 200, 5,
                                   (1, 4), 1, capture=(9,))


def test_final_phase_is_computed_once_on_first_read(table, monkeypatch):
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    state = _sample(table, 2000, "lazy-phase")
    calls = []
    phase_of = bmap.phase_of

    def counted(*args):
        calls.append(len(args[1].sid))
        return phase_of(*args)

    monkeypatch.setattr(bmap, "phase_of", counted)
    res = open_dynamics.evolve_ensemble(table, hole, state, 10)
    assert calls == []
    sid = res.final_sid
    assert calls == [res.survivors[-1]]
    want = phase_of(table, res.final_state)
    for got, ref in zip((sid, res.final_r, res.final_phi), want):
        assert got.tobytes() == ref.tobytes()
    assert len(calls) == 1


def test_initial_state_in_hole_escapes_at_zero(table):
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    state = bmap.state_from_phase(table, [0, 0], [0.3, 1.5], [0.0, 0.0])
    res = open_dynamics.evolve_ensemble(table, hole, state, 5)
    assert res.escape_step[0] == 0
    assert res.survivors[0] == 1
    # departure convention ignores the initial membership
    dep = open_dynamics.evolve_ensemble(table, hole, state, 5, convention="departure")
    assert dep.survivors[0] == 2 - dep.escaped[0] - dep.censored[0]


def test_thread_counts_agree_exactly(table):
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    state = _sample(table, 9000, "threads")
    runs = [
        open_dynamics.evolve_ensemble(
            table, hole, state, 20, threads=t, capture=(10,)
        )
        for t in (1, 4, 8)
    ]
    base = runs[0]
    for other in runs[1:]:
        assert np.array_equal(base.survivors, other.survivors)
        assert np.array_equal(base.escape_step, other.escape_step)
        assert np.array_equal(base.final_r, other.final_r)
        assert np.array_equal(base.final_phi, other.final_phi)
        assert np.array_equal(base.captures[10][1], other.captures[10][1])


def test_single_trajectory_helpers(table):
    # one open step of a single state lands where the collision map says
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    state = bmap.state_from_phase(table, [1], [0.0], [0.0])
    res = open_dynamics.evolve_ensemble(table, hole, state, 1)
    assert res.survivors.tolist() == [1, 1]
    y, _ = bmap.collide(table, bmap.PhasePoint(1, 0.0, 0.0))
    # phi is read off the reflected velocity here and off the incoming
    # one in collide, which may differ in the last bits
    assert (res.final_sid[0], res.final_r[0]) == (y.scatterer_id, y.r)
    assert abs(res.final_phi[0] - y.phi) < 1e-12


def test_bad_arguments_rejected(table):
    state = _sample(table, 10, "bad")
    with pytest.raises(InvalidArgumentError):
        open_dynamics.evolve_ensemble(table, None, state, -1)
    with pytest.raises(InvalidArgumentError):
        open_dynamics.evolve_ensemble(
            table, None, state, 5, convention="sideways"
        )


@pytest.mark.parametrize("kind", ["I", "II"])
def test_escape_counts_track_hole_size(table, kind):
    # one open step from stationarity: the escaped fraction matches the
    # analytic nu mass of the hole, |arc|/|dQ| for an arc and
    # 2*pi*rho/|dQ| for a disk (Cauchy-Crofton)
    n = 100_000
    state = _sample(table, n, "mass")
    if kind == "I":
        hole = holes.type_i_hole(table, 0, 0.25, 0.35)
        expect = 0.1 / table.total_perimeter
    else:
        hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
        expect = 2.0 * np.pi * 0.05 / table.total_perimeter
    res = open_dynamics.evolve_ensemble(
        table, hole, state, 1, convention="departure"
    )
    frac = res.escaped[0] / n
    assert abs(frac - expect) < 4.0 * np.sqrt(expect / n)


def _sample_nu_hole(table, hole, m, rng):
    """m states from nu conditioned on the hole, nu_H.  Exact for an arc:
    nu has density dr d(sin phi), so r is uniform on the arc and sin phi
    on [-1, 1].  For a disk, by rejection: nu draws that
    holes.state_in_hole puts in the hole, in draw order."""
    if hole.kind == "I":
        sid = np.full(m, hole.scatterer_id)
        r = np.mod(hole.arc[0] + rng.random(m) * hole.arc_length(table),
                   table.perimeters[hole.scatterer_id])
        return bmap.state_from_phase(table, sid, r, np.arcsin(2.0 * rng.random(m) - 1.0))
    kept, have = [], 0
    while have < m:
        state = measures.sample_nu_state(table, 200_000, rng)
        inside, cens = holes.state_in_hole(table, hole, state)
        kept.append(state.take(np.flatnonzero(inside & ~cens)))
        have += len(kept[-1].sid)
    return bmap.State(*map(np.concatenate, zip(*kept))).take(np.arange(m))


@pytest.mark.parametrize("kind", ["I", "II"])
def test_hitting_times_match_return_times(table, kind):
    # invariance of nu gives, for tau = min{k >= 1 : f^k x in H} and
    # sigma the same with k >= 0, at every n >= 0:
    #   nu(sigma = n) = nu(H) * nu_H(tau > n).
    # An arrival run from N nu states has S_n = #{sigma > n}; a
    # departure run from M nu_H states has D_n = #{tau > n + 1}.  So
    # (S_{n-1} - S_n)/N and nu(H) D_{n-1}/M (S_{-1} = N, D_{-1} = M)
    # estimate the same number from independent samples.
    n, m, steps = 200_000, 50_000, 40
    if kind == "I":
        hole = holes.hole_family(table, (0, 0.3), 0.08, kind="I")
    else:
        hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    mass = holes.hole_mass(table, hole)
    nu = _sample(table, n, "kac-nu", kind)
    nu_h = _sample_nu_hole(table, hole, m, stream(314159, "kac-nu-hole", kind))
    fwd = open_dynamics.evolve_ensemble(table, hole, nu, steps)
    ret = open_dynamics.evolve_ensemble(table, hole, nu_h, steps - 1, convention="departure")
    # censoring would take particles out of both sides; there is none
    assert fwd.censored[-1] == 0 and ret.censored[-1] == 0
    s = np.concatenate([[n], fwd.survivors])
    d = np.concatenate([[m], ret.survivors])
    hit = -np.diff(s) / n
    back = d / m
    # each side is a binomial proportion; z uses both variances.  The
    # 41 z are correlated, but a union bound needs no independence: the
    # chance that any |z| > 4.5 is at most 41 * 6.8e-6 < 3e-4
    z = (hit - mass * back) / np.sqrt(hit * (1.0 - hit) / n
                                      + mass * mass * back * (1.0 - back) / m)
    assert np.max(np.abs(z)) < 4.5
    # Kac: E_{nu_H}[tau] = sum_{n >= 0} nu_H(tau > n) = 1/nu(H).  Past
    # the run the survival is continued geometrically at the rate of
    # its last ten steps.  The sum is a mean of M return times whose
    # spread is about their mean, so its relative sd is about M^-1/2 =
    # 0.45%; the tolerance is 2%
    rate = (d[-1] / d[-11]) ** 0.1
    kac = back.sum() + back[-1] * rate / (1.0 - rate)
    assert abs(mass * kac - 1.0) < 0.02


def test_chunked_kernel_is_bit_identical(table, monkeypatch):
    # 1024-state chunks put 9 slices through the pool: every thread count
    # must reproduce one unchunked collide + mask pass, and one unchunked
    # run with its one-chunk packing, bit for bit
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    sid, r, phi = measures.sample_nu(table, 9000, stream(314159, "chunks"))
    ref = bmap.collide_batch(table, sid, r, phi)
    ref_esc = holes.arrival_escape_mask(table, hole, ref)
    assert ref_esc.sum() > 100 and ref.censored.sum() < len(sid)
    state = bmap.state_from_phase(table, sid, r, phi)
    ref_run = open_dynamics.evolve_ensemble(table, hole, state, 8)
    monkeypatch.setattr(open_dynamics, "CHUNK", 1024)
    for t in (1, 2, 4):
        # the step writes the arrivals over its input: a fresh copy each time
        arrivals = bmap.State(*(a.copy() for a in state))
        cens, esc = open_dynamics.open_step_batch(table, hole, arrivals, threads=t)
        assert np.array_equal(esc, ref_esc)
        assert np.array_equal(cens, ref.censored)
        for got, want in zip(arrivals, ref.arrivals()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    runs = [
        open_dynamics.evolve_ensemble(table, hole, state, 8, threads=t)
        for t in (1, 2, 4)
    ]
    for other in runs:
        assert np.array_equal(ref_run.escape_step, other.escape_step)
        assert np.array_equal(ref_run.alive_index, other.alive_index)
        for got, want in zip(other.final_state, ref_run.final_state):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["I", "II"])
def test_chunked_membership_is_bit_identical(table, monkeypatch, kind):
    # 1024-state chunks put 9 slices through the pool: every thread count
    # must reproduce one unchunked state_in_hole pass bit for bit
    if kind == "I":
        hole = holes.type_i_hole(table, 0, 0.2, 0.6)
    else:
        hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    state = _sample(table, 9000, "membership")
    ref_in, ref_cens = holes.state_in_hole(table, hole, state)
    assert ref_in.sum() > 100
    monkeypatch.setattr(open_dynamics, "CHUNK", 1024)
    for t in (1, 2, 4):
        got_in, got_cens = open_dynamics.hole_membership(table, hole, state, threads=t)
        assert got_in.dtype == ref_in.dtype and got_cens.dtype == ref_cens.dtype
        assert np.array_equal(got_in, ref_in)
        assert np.array_equal(got_cens, ref_cens)


_FAULTS_SCRIPT = """
import json, resource, sys
from leakybilliards import escape, geometry, holes, measures, open_dynamics

table = geometry.default_table()
hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
step, faults = open_dynamics.open_step_batch, []

def counted(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = step(*args, **kwargs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out

open_dynamics.open_step_batch = counted
escape.fleming_viot_evolve(table, hole, measures.density_from_json({"kind": "nu"}),
                           131072, 8, (1, 8), 3, threads=int(sys.argv[1]))
print(json.dumps(faults))
"""


def _step_faults(threads):
    """Minor page faults of each of the 8 steps of a 131072-particle
    Type II Fleming-Viot run, in a fresh interpreter."""
    import leakybilliards

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(leakybilliards.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, str(threads)],
                          env=env, capture_output=True, text=True, timeout=300,
                          check=True)
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert len(faults) == 8
    return faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
def test_threaded_steps_keep_their_memory_resident():
    # two full chunks at 2 threads: once warm, a step reuses the heap it
    # freed instead of returning it to the OS and faulting it back in
    # (thousands of minor faults per step when glibc trims).  The workers
    # share one arena in the order the scheduler picks, so now and then
    # one step still regrows the heap (up to ~4,400 faults in 1 of 30
    # runs); without the pin every step does, so the median is the measure
    faults = _step_faults(2)
    assert statistics.median(faults[2:]) <= 256, faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
def test_single_thread_steps_keep_their_memory_resident():
    # the same at 1 thread, where allocation order is fixed: without the
    # pin, glibc trimmed the heap on some steps only (1,376 and 992
    # faults among steps 3-8, median 0), so the worst step is the measure
    faults = _step_faults(1)
    assert max(faults[2:]) <= 256, faults


def test_a_run_holds_one_ensemble_buffer(table, monkeypatch):
    # the run copies its input once and steps and packs in that copy; a
    # step's temporaries are one chunk's.  Joining every chunk's arrivals
    # and packing them into new arrays peaked at about 4.2 ensembles
    monkeypatch.setattr(open_dynamics, "CHUNK", 4096)
    hole = holes.type_i_hole(table, 0, 0.2, 0.5)
    state = _sample(table, 40_000, "one-buffer")
    ensemble = sum(a.nbytes for a in state)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = open_dynamics.evolve_ensemble(table, hole, state, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.survivors[-1] > 10_000
    assert (peak - before) / ensemble <= 2.5


@pytest.mark.parametrize("threads", [1, 2])
def test_runs_leave_the_callers_arrays_alone(table, monkeypatch, threads):
    # the step writes in place, into the run's own copy only
    monkeypatch.setattr(open_dynamics, "CHUNK", 1024)
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    state = _sample(table, 5000, "callers-arrays")
    sid, r, phi = bmap.phase_of(table, state)
    before = [a.copy() for a in (*state, sid, r, phi)]
    for convention in ("arrival", "departure"):
        open_dynamics.evolve_ensemble(table, hole, state, 5,
                                      convention=convention, threads=threads)
    measures.pushforward_residual(table, hole, sid, r, phi, 8, 8)
    for got, want in zip((*state, sid, r, phi), before):
        assert got.tobytes() == want.tobytes()


def _copying_collide(table, sid, normal, velocity):
    """billiard_map.collide_cartesian as it was before the search, the
    hole test and the arrival wrote in place: every arrival built in
    new arrays, kept as the oracle of the in-place kernel."""
    sid = np.asarray(sid, dtype=np.int64)
    nx, ny = normal[:, 0], normal[:, 1]
    vx, vy = velocity[:, 0], velocity[:, 1]
    p0 = geometry.launch_points(table, sid, normal)
    cens = vx * nx + vy * ny < bmap._COS_GUARD
    row = strided_row_keys(sid, normal, velocity)
    t, hit, off, grazed = geometry.first_hit_batch(table, p0, velocity, row)
    nohit = hit < 0
    if nohit.any():
        bad = nohit & ~(cens | grazed)
        if np.any(bad):
            raise NoCollisionError(f"{int(bad.sum())} flights found no scatterer")
        hit = np.where(nohit, sid, hit)
        t = np.where(nohit, 0.0, t)
    c1 = table.centers.take(hit, axis=0)
    c1 += off
    dx = p0[:, 0] + t * vx - c1[:, 0]
    dy = p0[:, 1] + t * vy - c1[:, 1]
    nrm = np.sqrt(dx * dx + dy * dy)
    dx /= nrm
    dy /= nrm
    w = vx * dx + vy * dy
    cens |= grazed | (-w < bmap._COS_GUARD)
    w += w
    d = np.stack([dx, dy], axis=1)
    v1 = np.stack([vx - w * dx, vy - w * dy], axis=1)
    if nohit.any():
        t[nohit] = np.inf
        d[nohit] = normal[nohit]
        v1[nohit] = velocity[nohit]
    return bmap.CollisionBatch(hit, d, v1, t, p0, velocity, cens, row)


def _copying_step(table, hole, part):
    """The body of open_step_batch as it was: collide into new arrays,
    mask, then copy the arrivals over the slice."""
    batch = _copying_collide(table, *part)
    escaped = holes.arrival_escape_mask(table, hole, batch)
    part.sid[:] = batch.scatterer_id
    part.normal[:] = batch.normal
    part.velocity[:] = batch.velocity
    return batch.censored, escaped


def _hard_states(table):
    """nu states; test_geometry's boundary rays, among them flights
    exactly tangent to an image disk, departures tangent to their own
    disk and flights along cell edges; and nu states turned to aim into
    their own disk, censored at departure, about 3% of them with no hit
    (placeholders)."""
    nu = _sample(table, 20_000, "in-place")
    _, normal, v, sid = _tangent_and_random_rays(table, table.certificate.l_max, 20_000, 9)
    inward = _sample(table, 8_000, "in-place-inward")
    rays = (sid, normal, v), (inward.sid, inward.normal, -inward.velocity)
    return bmap.State(*(np.concatenate(a) for a in zip(nu, *rays)))


def _hole_of_kind(table, kind):
    if kind is None:
        return None
    if kind == "I":
        return holes.type_i_hole(table, 0, 0.2, 0.6)
    return holes.type_ii_hole(table, (0.5, 0.0), 0.05)


def test_collide_cartesian_matches_the_copying_collide(table):
    state = _hard_states(table)
    want = _copying_collide(table, *state)
    placeholders = ~np.isfinite(want.flight_length)
    assert placeholders.sum() > 100
    assert (want.censored & ~placeholders).sum() > 1000
    grazed = geometry.first_hit_batch(table, want.start, want.direction, want.row)[3]
    assert grazed.sum() > 200
    got = bmap.collide_cartesian(table, *state)
    for field, a, b in zip(want._fields, got, want):
        if b is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    # the inverse map is time reversal around the same collision
    back = bmap.collide_inverse_cartesian(table, *state)
    ref = _copying_collide(table, state.sid, state.normal, bmap.reverse(state.normal, state.velocity))
    ref = ref._replace(velocity=bmap.reverse(ref.normal, ref.velocity))
    for field, a, b in zip(ref._fields, back, ref):
        if b is not None:
            assert a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("kind", [None, "I", "II"])
def test_in_place_step_matches_the_copying_step(table, monkeypatch, kind):
    # arrivals and both masks have the copying step's bytes, placeholder
    # rows included, at 1 and 2 threads over 9 slices
    hole = _hole_of_kind(table, kind)
    state = _hard_states(table)
    want = bmap.State(*(a.copy() for a in state))
    want_cens, want_esc = _copying_step(table, hole, want)
    assert kind is None or want_esc.sum() > 50
    monkeypatch.setattr(open_dynamics, "CHUNK", 6144)
    for threads in (1, 2):
        got = bmap.State(*(a.copy() for a in state))
        cens, esc = open_dynamics.open_step_batch(table, hole, got, threads)
        assert cens.tobytes() == want_cens.tobytes()
        assert esc.tobytes() == want_esc.tobytes()
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["I", "II"])
def test_departure_runs_match_the_copying_step(table, monkeypatch, kind):
    hole = _hole_of_kind(table, kind)
    state = _sample(table, 20_000, "in-place-departure")
    monkeypatch.setattr(open_dynamics, "CHUNK", 4096)
    runs = [open_dynamics.evolve_ensemble(table, hole, state, 12, convention="departure",
                                          threads=threads) for threads in (1, 2)]

    def copying(table, hole, state, threads=1):
        return open_dynamics._map_chunks(lambda part: _copying_step(table, hole, part),
                                         state, threads)

    monkeypatch.setattr(open_dynamics, "open_step_batch", copying)
    want = open_dynamics.evolve_ensemble(table, hole, state, 12, convention="departure")
    assert want.escaped[-1] > 100
    for got in runs:
        for a, b in ((got.survivors, want.survivors), (got.escaped, want.escaped),
                     (got.censored, want.censored), (got.escape_step, want.escape_step),
                     (got.alive_index, want.alive_index), *zip(got.final_state, want.final_state)):
            assert a.tobytes() == b.tobytes()


def _peak_per_row(fn, rows):
    """Peak bytes tracemalloc sees fn allocate, per row."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / rows


@pytest.mark.parametrize("kind", ["I", "II"])
def test_a_step_holds_at_most_110_bytes_a_row(table, kind):
    # one CHUNK-row step: the search, the hole test and the arrival write
    # into the slice, so its working set is the flight (launch point,
    # length, row, image: 40 B/row) and a few columns.  Building every
    # arrival in new arrays and copying it over peaked at 155 B/row
    hole = _hole_of_kind(table, kind)
    state = _sample(table, open_dynamics.CHUNK, "step-bytes", kind)
    # a first step builds the cached rows
    open_dynamics.open_step_batch(table, hole, bmap.State(*(a.copy() for a in state)))
    per_row = _peak_per_row(lambda: open_dynamics.open_step_batch(table, hole, state),
                            open_dynamics.CHUNK)
    print(f"Type {kind} step: {per_row:.1f} B/row")
    assert per_row <= 110


def test_type_ii_membership_peak(table):
    # the index-0 Type II test collides backward into copies of the
    # states; it peaked at 171 B/row before the collision wrote in place
    hole = _hole_of_kind(table, "II")
    state = _sample(table, open_dynamics.CHUNK, "membership-bytes")
    open_dynamics.hole_membership(table, hole, state)
    per_row = _peak_per_row(lambda: open_dynamics.hole_membership(table, hole, state),
                            open_dynamics.CHUNK)
    print(f"Type II hole_membership: {per_row:.1f} B/row")
    assert per_row < 171


def test_steps_run_on_one_worker_pool(table, monkeypatch):
    # a pool per step started and joined two new threads every step
    monkeypatch.setattr(open_dynamics, "CHUNK", 1024)
    workers = []
    flights = bmap.flights

    def spy(*args):
        thread = threading.current_thread()
        workers[-1].add((threading.get_ident(), thread.name))
        return flights(*args)

    monkeypatch.setattr(bmap, "flights", spy)
    state = _sample(table, 9000, "pool")
    for _ in range(2):
        workers.append(set())
        open_dynamics.open_step_batch(table, None, state, threads=2)
    assert all(workers)
    assert len(workers[0] | workers[1]) <= 2
    assert threading.get_ident() not in {ident for ident, _ in workers[0] | workers[1]}
