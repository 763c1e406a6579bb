import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from leakybilliards import billiard_map as bmap
from leakybilliards import holes, measures, open_dynamics
from leakybilliards.errors import InvalidArgumentError
from leakybilliards.streams import stream


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
    # must reproduce one unchunked collide + mask pass bit for bit
    hole = holes.type_ii_hole(table, (0.5, 0.0), 0.05)
    sid, r, phi = measures.sample_nu(table, 9000, stream(314159, "chunks"))
    ref = bmap.collide_batch(table, sid, r, phi)
    ref_esc = holes.arrival_escape_mask(table, hole, ref)
    assert ref_esc.sum() > 100 and ref.censored.sum() < len(sid)
    monkeypatch.setattr(open_dynamics, "CHUNK", 1024)
    state = bmap.state_from_phase(table, sid, r, phi)
    for t in (1, 2, 4):
        arrivals, cens, esc = open_dynamics.open_step_batch(table, hole, state, threads=t)
        assert np.array_equal(esc, ref_esc)
        assert np.array_equal(cens, ref.censored)
        for got, want in zip(arrivals, ref.arrivals()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    runs = [
        open_dynamics.evolve_ensemble(table, hole, state, 8, threads=t)
        for t in (1, 2, 4)
    ]
    for other in runs[1:]:
        assert np.array_equal(runs[0].escape_step, other.escape_step)
        assert np.array_equal(runs[0].final_r, other.final_r)
        assert np.array_equal(runs[0].final_phi, other.final_phi)


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
import json, resource, statistics
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
                           131072, 8, (1, 8), 3, threads=2)
print(json.dumps({"faults": faults, "median": statistics.median(faults[2:])}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
def test_threaded_steps_keep_their_memory_resident():
    # two full chunks at 2 threads: once warm, a step reuses the heap it
    # freed instead of returning it to the OS and faulting it back in
    # (thousands of minor faults per step when glibc trims)
    import leakybilliards

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(leakybilliards.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert len(report["faults"]) == 8
    assert report["median"] <= 256, report["faults"]
