import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakybilliards import tower
from leakybilliards.errors import (
    BadTailError,
    ConfigError,
    HoleTooBigError,
    InvalidArgumentError,
    NoConvergenceError,
    NotMarkovError,
    NotMixingError,
    NotStabilizedError,
    ReducibleSurvivingGraphError,
)
from leakybilliards.streams import stream

# closed forms for the quartered doubling map with the first cell removed:
# 4*theta^2 - 2*theta - 1 = 0, h = (0, b, a, a) with b = 4/(2+sqrt5),
# a = 2*theta*b, d(1) = (2 + 1/(2 theta)) / (b (2 + 2 theta))
THETA_GOLD = 0.8090169943749475
B_GOLD = 0.9442719099991588
A_GOLD = 1.5278640450004206
D_ONE_GOLD = 0.7663118960624632
DECAY_GOLD = 0.38196601125010515


@pytest.fixture(scope="module")
def gold():
    return tower.build_tower(tower.golden_tower_spec())


def geometric_tail_spec(beta=0.8):
    # returns 1..4 with halving masses; C0 = 1 against theta0 = 1/2
    return tower.TowerSpec(
        columns=tuple(
            tower.TowerColumn(mass=0.5 ** k, return_time=k)
            for k in range(1, 5)
        ),
        beta=beta,
        c0=1.0,
        theta0=0.5,
        holes=frozenset({(1, 3)}),
    )


def induced_doubling_spec(K):
    # first-return tower of the doubling map over the right half, with
    # the infinite tail of return times lumped into the last column so
    # the base mass stays exactly 1/2; holes knock out every orbit that
    # climbs above level 1
    masses = [2.0 ** -(k + 1) for k in range(1, K)] + [2.0 ** -K]
    returns = list(range(1, K + 1))
    holes = {
        (l, j) for j, rt in enumerate(returns) for l in range(1, rt - 1)
    }
    return tower.TowerSpec(
        columns=tuple(
            tower.TowerColumn(mass=m, return_time=rt)
            for m, rt in zip(masses, returns)
        ),
        beta=0.8,
        c0=1.0,
        theta0=0.5,
        holes=frozenset(holes),
    )


def surviving_one_step_integral(tower_, rho):
    """Independent integral of rho over the one-step surviving set.

    Walks cylinders by hand: climbing survives iff the cell above is
    not a hole; a top cylinder survives iff the base cell of its first
    itinerary symbol is not a hole.  No gather tables involved.
    """
    k = rho.depth
    tables = tower_.depth_tables(k)
    counts = tables.counts
    offsets = tables.offsets
    frac = tables.frac
    total = 0.0
    for (l, j) in tower_.cells:
        if (l, j) in tower_.holes:
            continue
        v = rho.values[(l, j)]
        cyl_mass = frac[j] * tower_.masses[j]
        if l + 1 < tower_.returns[j]:
            if (l + 1, j) not in tower_.holes:
                total += float(v @ cyl_mass)
            continue
        tgt = tower_.targets[j]
        if k == 0:
            for i in tgt:
                if (0, i) not in tower_.holes:
                    total += (
                        float(v[0]) * tower_.masses[j]
                        * tower_.masses[i] / tower_.target_mass[j]
                    )
            continue
        offs = offsets[j]
        for ti, i in enumerate(tgt):
            if (0, i) in tower_.holes:
                continue
            lo = int(offs[ti])
            hi = lo + int(counts[k - 1, i])
            total += float(v[lo:hi] @ cyl_mass[lo:hi])
    return total


# -- golden oracle -------------------------------------------------------------


def test_golden_eigenvalue_power_iteration(gold):
    theta, h, report = tower.leading_eigenpair(gold)
    assert abs(theta - THETA_GOLD) < 1e-10
    assert report.function_residual < 1e-10
    assert abs(h.integrate() - 1.0) < 1e-12


def test_golden_eigenfunction_components(gold):
    _, h, _ = tower.leading_eigenpair(gold)
    assert np.all(h.values[(0, 0)] == 0.0)
    assert abs(h.values[(0, 1)][0] - B_GOLD) < 1e-9
    assert abs(h.values[(0, 2)][0] - A_GOLD) < 1e-9
    assert abs(h.values[(0, 3)][0] - A_GOLD) < 1e-9


def test_golden_matrix_oracle_agrees():
    res = tower.markov_matrix_oracle(tower.golden_interval_map(), {0})
    assert abs(res.theta - THETA_GOLD) < 1e-12
    assert not res.degenerate
    assert res.h[0] == 0.0
    assert abs(res.h[1] - B_GOLD) < 1e-12
    assert abs(res.h[2] - A_GOLD) < 1e-12
    assert abs(res.h[3] - A_GOLD) < 1e-12
    # d is normalized so that d(h) = 1
    assert abs(res.d_of(res.h) - 1.0) < 1e-12
    assert abs(res.d_of(np.ones(4)) - D_ONE_GOLD) < 1e-12


def eig_oracle(markov_map, holes):
    """theta, h and psi of the surviving matrix from np.linalg.eig, with
    the oracle's normalizations: integral of h 1 and d(h) = 1."""
    res = tower.markov_matrix_oracle(markov_map, holes)
    sub = res.matrix[np.ix_(res.surviving, res.surviving)]
    lengths = res.lengths[res.surviving]
    w, vr = np.linalg.eig(sub)
    k = int(np.argmax(np.abs(w)))
    wl, vl = np.linalg.eig(sub.T)
    h = np.abs(vr[:, k].real)
    h /= h @ lengths
    psi = np.abs(vl[:, int(np.argmax(np.abs(wl)))].real)
    psi /= psi @ (h * lengths)
    return res, w[k].real, h, psi


def test_matrix_oracle_matches_dense_eigen():
    # random Markov interval maps: each cell covers a run of cells
    rng = np.random.default_rng(83)
    checked = 0
    for _ in range(40):
        m = int(rng.integers(3, 8))
        bp = np.concatenate([[0.0], np.sort(rng.random(m - 1)), [1.0]])
        lo = rng.integers(0, m - 1, size=m)
        hi = np.minimum(lo + rng.integers(1, m + 1, size=m), m)
        markov_map = tower.MarkovIntervalMap(tuple(bp), tuple(bp[lo]), tuple(bp[hi]))
        holes = {int(rng.integers(0, m))} if rng.random() < 0.5 else set()
        try:
            res, theta, h, psi = eig_oracle(markov_map, holes)
        except ReducibleSurvivingGraphError:
            continue
        checked += 1
        # the power iteration stops on leading_eigenpair's rule: theta
        # was within 4e-14 and h within 1e-9 of eig on these maps
        assert abs(res.theta - theta) < 1e-12 * theta
        assert np.allclose(res.h[res.surviving], h, rtol=1e-8, atol=0)
        assert np.allclose(res.psi[res.surviving], psi, rtol=1e-8, atol=0)
    assert checked >= 10


def test_golden_d_functional(gold):
    theta, h, _ = tower.leading_eigenpair(gold)
    dh = tower.d_functional(gold, h, theta_star=theta)
    assert abs(dh.value - 1.0) < 1e-9
    assert dh.positive_expected
    ones = tower.tower_constant(gold, 1.0)
    d1 = tower.d_functional(gold, ones, theta_star=theta)
    assert abs(d1.value - D_ONE_GOLD) < 1e-8


def test_golden_flat_tower_matches_interval_map():
    spec = tower.flat_tower_from_markov_map(tower.golden_interval_map(), {0})
    t = tower.build_tower(spec)
    theta, _, _ = tower.leading_eigenpair(t)
    assert abs(theta - THETA_GOLD) < 1e-10


def test_norm_decay_rate_is_spectral_gap(gold):
    # the defect rho - d(rho) h decays in norm at |theta_2| / theta_1
    theta, h, _ = tower.leading_eigenpair(gold)
    rho = tower.tower_random(gold, 0, np.random.default_rng(3))
    d = tower.d_functional(gold, rho, theta_star=theta).value
    w = rho - h * d
    norms = []
    for _ in range(21):
        norms.append(w.norm())
        w = tower.transfer_apply(gold, w) * (1.0 / theta)
    norms = np.array(norms)
    assert norms[-1] < 1e-6 * norms[0]
    # late steps drift as the d(rho) rounding error resurfaces; the
    # clean mid-range ratios pin the subdominant-to-dominant gap
    rate = np.exp(np.diff(np.log(norms[2:13]))).mean()
    assert abs(rate - DECAY_GOLD) < 1e-6


def test_transfer_matrix_matches_interval_map_oracle(gold):
    # the operator applied to the four base-cell indicators gives the
    # columns of the oracle's transfer matrix on the surviving cells
    cells = [(0, j) for j in range(4)]
    mat = np.array([
        [tower.transfer_apply(
            gold, tower.tower_cell_indicator(gold, c)).values[r][0]
         for c in cells]
        for r in cells
    ])
    oracle = tower.markov_matrix_oracle(tower.golden_interval_map(), {0})
    keep = np.ix_(oracle.surviving, oracle.surviving)
    assert np.array_equal(mat[keep], oracle.matrix[keep])
    assert np.all(mat[0] == 0.0)
    mods = np.sort(np.abs(np.linalg.eigvals(mat)))[::-1]
    assert abs(mods[1] / mods[0] - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-12


def _operator_matrix(t):
    """The open transfer operator on depth-0 functions as a dense matrix:
    column i is transfer_apply of the i-th unit vector of the layout."""
    cols = []
    for i in range(t.depth_tables(0).size):
        e = tower.tower_constant(t, 0.0)
        e.vec[i] = 1.0
        cols.append(tower.transfer_apply(t, e).vec)
    return np.array(cols).T


def test_power_iteration_tracks_the_exact_spectral_gap():
    # power iteration shrinks the error by |lambda2|/theta a step, so it
    # should need about log(tol)/log(|lambda2|/theta) steps; the stop
    # waits for three steady ratios and a function residual within
    # 1e3*tol, so the count sits in a band around that: 0.75-1.12 on
    # these 60 towers, 0.73-1.26 on the first 200 of the stream; a tower
    # whose second eigenvalue vanishes converges in 4-7 steps
    rng = stream(5, "gap")
    ratios = []
    for _ in range(60):
        t = tower.build_tower(tower.random_tower_spec(rng))
        mods = np.sort(np.abs(np.linalg.eigvals(_operator_matrix(t))))[::-1]
        theta, _, report = tower.leading_eigenpair(t)
        assert abs(mods[0] - theta) < 1e-12
        gap = mods[1] / theta
        if gap > 1e-6:
            ratios.append(report.iterations / (math.log(1e-13) / math.log(gap)))
        else:
            assert report.iterations <= 8
    assert len(ratios) >= 50
    assert 0.7 <= min(ratios) and max(ratios) <= 1.3


def test_ratio_stop_waits_for_the_function():
    # the mass ratio is exactly 1 from the start, long before the
    # iterate settles; h is the exact eigenfunction of the closed part
    spec = tower.TowerSpec(
        columns=(
            tower.TowerColumn(mass=0.2, return_time=1, target=(3,)),
            tower.TowerColumn(mass=0.2, return_time=2, target=(0, 1, 2)),
            tower.TowerColumn(mass=0.2, return_time=1, target=(3,)),
            tower.TowerColumn(mass=0.2, return_time=2, target=(1,)),
            tower.TowerColumn(mass=0.2, return_time=1, target=(4,)),
        ),
        beta=0.95,
        c0=2.0,
        theta0=0.9,
        holes=frozenset({(0, 4)}),
    )
    t = tower.build_tower(spec)
    theta, h, report = tower.leading_eigenpair(t)
    assert theta == pytest.approx(1.0, abs=1e-12)
    want = np.array([5 / 12, 5 / 4, 5 / 4, 5 / 12, 5 / 6, 5 / 6, 0.0])
    got = np.array([h.values[c][0] for c in t.cells])
    assert np.max(np.abs(got - want)) < 1e-9
    assert report.function_residual < 1e-9
    _, _, gold_report = tower.leading_eigenpair(
        tower.build_tower(tower.golden_tower_spec()))
    assert gold_report.iterations == 32


def test_eigen_depth_invariance(gold, monkeypatch):
    rng = np.random.default_rng(41)
    towers = [gold] + [tower.build_tower(tower.random_tower_spec(rng)) for _ in range(5)]
    for t in towers:
        theta0, h0, _ = tower.leading_eigenpair(t, depth=0)
        theta2, h2, _ = tower.leading_eigenpair(t, depth=2)
        assert theta2 == theta0
        assert h2.depth == 2
        assert np.array_equal(h2.vec, h0.refined(2).vec)
    calls = []
    monkeypatch.setattr(tower, "transfer_apply", lambda *a: calls.append(a))
    with pytest.raises(InvalidArgumentError):
        tower.leading_eigenpair(gold, depth=-1)
    assert calls == []


def test_depth_tables_built_once_per_depth(monkeypatch):
    t = tower.build_tower(tower.golden_tower_spec())
    built = []
    layout = tower._Layout
    monkeypatch.setattr(tower, "_Layout", lambda tw, d, prev: built.append(d) or layout(tw, d, prev))
    rho = tower.tower_random(t, 1, np.random.default_rng(43)).refined(5)
    assert built == [0, 1, 2, 3, 4, 5]
    assert t.depth_tables(5).counts.tolist() == [[1] * 4, [2] * 4, [4] * 4,
                                                 [8] * 4, [16] * 4, [32] * 4]
    assert rho.coarsest().depth == 1 and built == [0, 1, 2, 3, 4, 5]


def level_refined(f, depth):
    """refined as it was written before: one level at a time, one gather
    per column through that level's trunc."""
    out = f
    while out.depth < depth:
        d = out.depth + 1
        trunc = f.tower.depth_tables(d).trunc
        vec = np.concatenate([
            out.vec[start:start + rt * n].reshape(rt, n)[:, trunc[j]].ravel()
            for j, (start, n, rt) in enumerate(out.layout.columns)
        ])
        out = tower.TowerFunction(f.tower, d, vec)
    return out


def level_coarsest(f):
    """coarsest as it was written before: lowered one level at a time
    while every prefix group's min equals its max, each value the
    group's maximum.reduceat."""
    out = f
    while out.depth > 0:
        lay, ranges = out.layout, []
        for j, (start, n, rt) in enumerate(lay.columns):
            starts = np.searchsorted(lay.trunc[j], np.arange(lay.counts[out.depth - 1, j]))
            block = out.vec[start:start + rt * n].reshape(rt, n)
            ranges.append((np.minimum.reduceat(block, starts, axis=1),
                           np.maximum.reduceat(block, starts, axis=1)))
        if not all(np.array_equal(lo, hi) for lo, hi in ranges):
            break
        out = tower.TowerFunction(f.tower, out.depth - 1,
                                  np.concatenate([hi.ravel() for _, hi in ranges]))
    return out


def assert_same(a, b):
    assert a.depth == b.depth
    assert a.vec.tobytes() == b.vec.tobytes()


def nine_column_spec():
    # full branch over 9 columns: prefix groups of 9, 81 and 729 cylinders,
    # lengths at which numpy's SIMD maximum.reduceat need not reduce in order
    return tower.TowerSpec(
        columns=tuple(tower.TowerColumn(mass=1.0, return_time=1 + (j == 0))
                      for j in range(9)),
        beta=0.8, c0=9.0, theta0=0.5, holes=frozenset({(1, 0), (0, 8)}),
    )


def spot_towers(gold, n):
    """Restricted and full targets, holes on the base and above it,
    return times 1 to 5."""
    rng = np.random.default_rng(59)
    fixed = [tower.build_tower(nine_column_spec(), enforce_hole_condition=False),
             tower.build_tower(sourceless_base_spec()),
             tower.build_tower(geometric_tail_spec())]
    return [gold] + fixed + [tower.build_tower(tower.random_tower_spec(rng)) for _ in range(n)]


def test_refined_matches_the_level_walk(gold):
    rng = np.random.default_rng(61)
    for t in spot_towers(gold, 8):
        top = 3 if t.n_cols == 9 else 5
        for base in (0, 2):
            f = tower.tower_random(t, base, rng)
            for k in range(base, top + 1):
                assert_same(f.refined(k), level_refined(f, k))
        assert f.refined(2) is f


def test_coarsest_matches_the_level_walk(gold):
    rng = np.random.default_rng(67)
    for t in spot_towers(gold, 12):
        top = 3 if t.n_cols == 9 else 5
        r0, r1, r2 = (tower.tower_random(t, k, rng) for k in range(3))
        for k in range(top + 1):
            got = r0.refined(k).coarsest()
            assert got.depth == 0
            assert_same(got, level_coarsest(r0.refined(k)))
        for k in range(2, top + 1):
            got = r2.refined(k).coarsest()
            assert got.depth == 2
            assert_same(got, level_coarsest(r2.refined(k)))
        # the deepest column sets the depth: one cell holds a depth-2 function
        f = r1.refined(top)
        cell = [c for c in t.cells if c not in t.holes][-1]
        f.values[cell][:] = r2.refined(top).values[cell]
        assert f.coarsest().depth == 2
        assert_same(f.coarsest(), level_coarsest(f))
        # no coarser form: the function itself
        r3 = tower.tower_random(t, 3, rng)
        assert r3.coarsest() is r3 and level_coarsest(r3) is r3
        # zeros of both signs, in random patterns and in whole groups,
        # everywhere but the hole cells (0.0) or in one cell of a depth-1
        # function; negative values; zeros of one sign
        zeros = (tower.tower_random(t, 3, rng) - 1.0) * 0.0
        mixed = r1.refined(3)
        mixed.values[cell][:] = zeros.values[cell]
        for f in (zeros, mixed, r0.refined(3) * -1.0, r2.refined(3) - r2.refined(3)):
            assert_same(f.coarsest(), level_coarsest(f))
        assert mixed.coarsest().depth == 1
    # a NaN equals nothing, not even alone in its group: the cylinder of
    # itinerary (0, 1) is the only one with prefix (0)
    t = tower.build_tower(tower.TowerSpec(
        columns=(tower.TowerColumn(mass=0.5, return_time=1, target=(1,)),
                 tower.TowerColumn(mass=0.5, return_time=1)),
        beta=0.8, c0=1.0, theta0=0.5))
    nan = tower.tower_constant(t, 1.0, 2)
    nan.values[(0, 1)][0] = np.nan
    assert nan.coarsest() is nan and level_coarsest(nan) is nan


def test_depths_are_integers(gold):
    rng = np.random.default_rng(71)
    one = tower.tower_constant(gold, 1.0, 1)
    bad = [
        (lambda: one.refined(2.5), "2.5"),
        (lambda: tower.leading_eigenpair(gold, depth=1.5), "1.5"),
        (lambda: tower.tower_constant(gold, 1.0, 2.5), "2.5"),
        (lambda: tower.tower_random(gold, True, rng), "True"),
        (lambda: gold.depth_tables(-1), "-1"),
        (lambda: gold.depth_tables("2"), "'2'"),
    ]
    for call, shown in bad:
        with pytest.raises(InvalidArgumentError, match=f"got {shown}"):
            call()
    two = np.int64(2)
    assert one.refined(two).depth == 2
    assert tower.leading_eigenpair(gold, depth=two)[1].depth == 2
    assert tower.tower_constant(gold, 1.0, two).coarsest().depth == 0


# -- exact structural identities ------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 3))
def test_mass_identity_any_depth(seed, depth):
    t = tower.build_tower(tower.golden_tower_spec())
    rho = tower.tower_random(t, depth, np.random.default_rng(seed))
    lhs = tower.transfer_apply(t, rho).integrate()
    rhs = surviving_one_step_integral(t, rho)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-15)


def test_mass_identity_with_levels():
    t = tower.build_tower(geometric_tail_spec())
    for depth in (0, 1, 2):
        rho = tower.tower_random(t, depth, np.random.default_rng(7 + depth))
        lhs = tower.transfer_apply(t, rho).integrate()
        rhs = surviving_one_step_integral(t, rho)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_transfer_commutes_with_refinement(gold):
    rho = tower.tower_random(gold, 1, np.random.default_rng(11))
    a = tower.transfer_apply(gold, rho).refined(3)
    b = tower.transfer_apply(gold, rho.refined(3))
    for cell in gold.cells:
        assert np.allclose(a.values[cell], b.values[cell], rtol=0, atol=0)
    # five columns of return times 1-5, full branch, holes from level 1
    # up to below each top, 15625 cylinders a cell at depth 6
    t = tower.build_tower(induced_doubling_spec(5), enforce_hole_condition=False)
    rho = tower.tower_random(t, 0, np.random.default_rng(12))
    assert_same(tower.transfer_apply(t, rho).refined(6),
                tower.transfer_apply(t, rho.refined(6)))


def per_block_transfer(tower_, rho):
    """transfer_apply with one gather per (base cell, source column)
    block, source columns ascending: out[base] += x[src:][trunc] / J.
    The grouped gather of transfer_apply must match it bit for bit."""
    lay, x = rho.layout, rho.vec
    where = {(l, j): sl for sl, l, j in lay.cells}
    out = np.empty_like(x)
    for start, n, rt in lay.columns:
        out[start:start + n] = 0.0
        out[start + n:start + rt * n] = x[start:start + (rt - 1) * n]
    for i in range(tower_.n_cols):
        for j, tgt in enumerate(tower_.targets):
            top = (int(tower_.returns[j]) - 1, j)
            if i in tgt and top not in tower_.holes:
                src = where[top].start + int(lay.offsets[j][tgt.index(i)])
                out[where[(0, i)]] += x[src:][lay.trunc[i]] / tower_.jacobians[j]
    for l, j in tower_.holes:
        out[where[(l, j)]] = 0.0
        if l + 1 < tower_.returns[j]:
            out[where[(l + 1, j)]] = 0.0
    return out


def sourceless_base_spec():
    # base cell 2 is fed only by the top of column 2, which is a hole
    return tower.TowerSpec(
        columns=(
            tower.TowerColumn(mass=1.0, return_time=1, target=(0, 1)),
            tower.TowerColumn(mass=1.0, return_time=2, target=(0, 1)),
            tower.TowerColumn(mass=0.2, return_time=3),
        ),
        beta=0.8,
        c0=3.0,
        theta0=0.5,
        holes=frozenset({(2, 2)}),
    )


def test_transfer_apply_matches_per_block_gather():
    # not cell-constant, so a change in the order of the float sums shows
    rng = np.random.default_rng(2026)
    towers = [tower.build_tower(spec) for spec in (
        tower.golden_tower_spec(), sourceless_base_spec(),
        *(tower.random_tower_spec(rng) for _ in range(20)))]
    towers.append(tower.build_tower(nine_column_spec(), enforce_hole_condition=False))
    for t in towers:
        for depth in range(6):
            rho = tower.tower_random(t, depth, rng)
            got = tower.transfer_apply(t, rho)
            assert np.array_equal(got.vec, per_block_transfer(t, rho))
    t = tower.build_tower(sourceless_base_spec())
    rho = tower.tower_random(t, 3, rng)
    assert not tower.transfer_apply(t, rho).values[(0, 2)].any()


def test_transfer_apply_matches_the_rounds_step(gold):
    # signed values with zeros of both signs, so a change in the order
    # of the sums, in the sign of a zero or in a killed cell shows
    rng = np.random.default_rng(2027)
    towers = [gold, tower.build_tower(sourceless_base_spec())]
    towers += [tower.build_tower(tower.random_tower_spec(rng)) for _ in range(5)]
    towers.append(tower.build_tower(nine_column_spec(), enforce_hole_condition=False))
    for t in towers:
        for depth in range(6):
            size = t.depth_tables(depth).size
            vec = rng.standard_normal(size)
            vec[rng.random(size) < 0.2] = -0.0
            vec[rng.random(size) < 0.1] = 0.0
            for rho in (tower.TowerFunction(t, depth, vec),
                        tower.tower_constant(t, -0.0, depth)):
                want = per_block_transfer(t, rho)
                assert tower.transfer_apply(t, rho).vec.tobytes() == want.tobytes()


def test_refine_coarsen_roundtrip(gold):
    rho = tower.tower_random(gold, 1, np.random.default_rng(13))
    back = rho.refined(4).coarsest()
    assert back.depth == 1
    for cell in gold.cells:
        assert np.array_equal(back.values[cell], rho.values[cell])
    assert rho.refined(3).integrate() == pytest.approx(rho.integrate(), abs=1e-15)
    assert abs(rho.refined(3).lip_norm() - rho.lip_norm()) < 1e-12
    assert rho.refined(3).sup_norm() == rho.sup_norm()


def test_function_arithmetic_and_lifting(gold):
    a = tower.tower_random(gold, 0, np.random.default_rng(19))
    b = tower.tower_random(gold, 2, np.random.default_rng(23))
    s = a + b
    assert s.depth == 2
    assert s.integrate() == pytest.approx(a.integrate() + b.integrate(),
                                          rel=1e-12)
    d = (a - a).sup_norm()
    assert d == 0.0
    assert (a * 2.0).integrate() == pytest.approx(2.0 * a.integrate(),
                                                  rel=1e-12)


def test_hole_cells_pinned_to_zero(gold):
    f = tower.TowerFunction(gold, 0, np.ones(len(gold.cells)))
    assert np.all(f.values[(0, 0)] == 0.0)
    with pytest.raises(InvalidArgumentError):
        tower.TowerFunction(gold, 1, np.ones(len(gold.cells)))
    ind = tower.tower_cell_indicator(gold, (0, 0))
    assert ind.integrate() == 0.0
    with pytest.raises(InvalidArgumentError):
        tower.tower_cell_indicator(gold, (9, 9))


def test_norms_hand_case(gold):
    # indicator of one return branch at depth 1: the two cylinders of
    # cell (0,1) separate after one return, so lip = 1/beta
    f = tower.tower_constant(gold, 0.0, depth=1)
    f.values[(0, 1)][:] = [1.0, 0.0]
    g = tower.TowerFunction(gold, 1, f.vec.copy())
    assert g.sup_norm() == 1.0
    assert abs(g.lip_norm() - 1.0 / gold.beta) < 1e-12
    assert abs(g.norm() - (1.0 + 1.25)) < 1e-12
    const = tower.tower_constant(gold, 3.0)
    assert const.lip_norm() == 0.0
    assert const.sup_norm() == 3.0


def cross_branch_lip_norm(f):
    """The recursive scan lip_norm replaced: at each itinerary node, the
    largest difference between one branch's max and another branch's
    min, over beta^time of the node.  It runs on Python lists and ints:
    the values are exact either way, and numpy scalars per node are slow."""
    tw, beta = f.tower, f.tower.beta
    counts = tw.depth_tables(f.depth).counts.tolist()
    returns = [int(x) for x in tw.returns]
    targets = [[int(i) for i in t] for t in tw.targets]

    def scan(col, d, base_time, v):
        # (vmin, vmax, lip) of the subtree over the value list v
        if d == 0 or len(v) == 1:
            return min(v), max(v), 0.0
        mins, maxs, lips = [], [], []
        off = 0
        for i in targets[col]:
            sub = v[off:off + counts[d - 1][i]]
            off += counts[d - 1][i]
            mn, mx, lp = scan(i, d - 1, base_time + returns[i], sub)
            mins.append(mn)
            maxs.append(mx)
            lips.append(lp)
        lip = max(lips)
        if len(mins) > 1:
            m0, m1 = sorted(range(len(mins)), key=mins.__getitem__)[:2]
            cross = 0.0
            for ci in range(len(mins)):
                other_min = mins[m1] if ci == m0 else mins[m0]
                cross = max(cross, maxs[ci] - other_min)
            lip = max(lip, cross / beta ** base_time)
        return min(mins), max(maxs), lip

    best = 0.0
    for (l, j), v in f.values.items():
        if len(v) > 1:
            _, _, lip = scan(j, f.depth, returns[j] - l, v.tolist())
            best = max(best, beta ** l * lip)
    return best


def test_lip_norm_matches_cross_branch_scan(gold):
    rng = np.random.default_rng(31)
    towers = [(gold, k) for k in range(5)]
    for s in range(100):
        tw = tower.build_tower(tower.random_tower_spec(rng))
        towers.append((tw, s % 5))
    for tw, k in towers:
        rho = tower.tower_random(tw, k, rng)
        ind = tower.tower_cell_indicator(tw, tw.cells[-1], k)
        for f in (rho, tower.transfer_apply(tw, rho), tower.tower_constant(tw, 2.5, k),
                  ind, tower.transfer_apply(tw, ind)):
            assert f.lip_norm() == cross_branch_lip_norm(f)


def test_d_functional_linearity(gold):
    theta, _, _ = tower.leading_eigenpair(gold)
    r1 = tower.tower_random(gold, 0, np.random.default_rng(29))
    r2 = tower.tower_random(gold, 1, np.random.default_rng(31))
    d1 = tower.d_functional(gold, r1, theta_star=theta).value
    d2 = tower.d_functional(gold, r2, theta_star=theta).value
    d12 = tower.d_functional(gold, r1 * 2.0 + r2 * -0.5,
                             theta_star=theta).value
    assert math.isclose(d12, 2.0 * d1 - 0.5 * d2, rel_tol=1e-7)


def test_d_functional_iterates_at_the_exact_depth(gold):
    theta, h0, _ = tower.leading_eigenpair(gold)
    bits = tower.d_functional(gold, h0, theta_star=theta).terms.tobytes()
    assert tower.d_functional(gold, h0.refined(4), theta_star=theta).terms.tobytes() == bits
    r2 = tower.tower_random(gold, 2, np.random.default_rng(47))
    assert r2.refined(4).coarsest().depth == 2
    assert (tower.d_functional(gold, r2.refined(4), theta_star=theta).terms.tobytes()
            == tower.d_functional(gold, r2, theta_star=theta).terms.tobytes())
    # a depth-3 function with no coarser form runs at depth 3, as by hand
    r3 = tower.tower_random(gold, 3, np.random.default_rng(53))
    assert r3.coarsest() is r3
    cur, scale, hand = r3, 1.0, [r3.integrate()]
    for _ in range(60):
        cur = tower.transfer_apply(gold, cur)
        scale /= theta
        hand.append(cur.integrate() * scale)
    assert cur.depth == 3
    assert tower.d_functional(gold, r3, theta_star=theta).terms.tobytes() == np.array(hand).tobytes()


def test_d_functional_zero_and_bad_theta(gold):
    zero = tower.tower_constant(gold, 0.0)
    rep = tower.d_functional(gold, zero, theta_star=THETA_GOLD)
    assert rep.value == 0.0
    assert not rep.positive_expected
    ones = tower.tower_constant(gold, 1.0)
    with pytest.raises(NotStabilizedError):
        tower.d_functional(gold, ones, theta_star=0.2, n_terms=400)


# -- bounds and tails -----------------------------------------------------------


def test_lower_bound_hand_example():
    # base mass 1, one level-1 hole of mass 0.01, C1 = 1:
    # bound = 1 - 2 * 0.01 = 0.98 and theta = 0.99 exactly (the fat
    # column recycles 99 percent of the mass, the thin column dies)
    spec = tower.TowerSpec(
        columns=(
            tower.TowerColumn(mass=0.99, return_time=1),
            tower.TowerColumn(mass=0.01, return_time=2),
        ),
        beta=0.8,
        c0=2.0,
        theta0=0.5,
        holes=frozenset({(1, 1)}),
        c1=1.0,
    )
    t = tower.build_tower(spec)
    rep = tower.theta_lower_bound(t)
    assert math.isclose(rep.bound, 0.98, abs_tol=1e-12)
    assert not rep.vacuous
    assert rep.satisfied
    assert abs(rep.theta_star - 0.99) < 1e-9


def test_lower_bound_vacuous_for_base_holes(gold):
    rep = tower.theta_lower_bound(gold, theta_star=THETA_GOLD)
    assert rep.vacuous
    assert rep.bound == 1.0
    assert rep.satisfied is None


def test_tail_check_flat_and_geometric(gold):
    flat = tower.tail_mass_check(gold)
    assert flat.envelope_ratio == 0.0
    assert flat.ok
    t = tower.build_tower(geometric_tail_spec())
    rep = tower.tail_mass_check(t)
    assert rep.ok
    assert rep.envelope_ratio <= 0.5 / 0.8 + 0.05
    masses = [m for _, m in rep.rows]
    assert all(a >= b for a, b in zip(masses, masses[1:]))


def test_tail_check_rejects_heavy_tails():
    # a density piling up mass along the levels breaks the envelope
    t = tower.build_tower(geometric_tail_spec())
    # depth 0 holds one value per cell, in t.cells order
    fat = tower.TowerFunction(t, 0, np.array([3.0 ** l for (l, j) in t.cells]))
    with pytest.raises(BadTailError):
        tower.tail_mass_check(t, h=fat)


def test_tails_do_not_depend_on_the_depth_of_h(gold):
    rng = np.random.default_rng(73)
    towers = [gold, tower.build_tower(geometric_tail_spec())]
    towers += [tower.build_tower(tower.random_tower_spec(rng)) for _ in range(4)]
    for t in towers:
        theta, h, _ = tower.leading_eigenpair(t)
        rows = np.array(tower.tail_mass_check(t, h, theta).rows)
        for k in range(5):
            got = np.array(tower.tail_mass_check(t, h.refined(k), theta).rows)
            assert got.tobytes() == rows.tobytes()


def test_solves_read_no_itinerary_table_above_depth_0():
    # leading_eigenpair refines the depth-0 h, and tail_mass_check and
    # d_functional lower it again, so no layout deeper than 0 needs its
    # trunc or frac table
    rng = np.random.default_rng(79)
    spec = tower.random_tower_spec(rng)
    while len(spec.columns) < 5:
        spec = tower.random_tower_spec(rng)
    t = tower.build_tower(spec)
    theta, h, _ = tower.leading_eigenpair(t, depth=6)
    tower.tail_mass_check(t, h, theta)
    tower.d_functional(t, h, theta)
    assert sorted(t._depth_cache) == list(range(7))
    for depth in range(1, 7):
        held = vars(t.depth_tables(depth))
        assert "trunc" not in held and "frac" not in held, depth
    # read, they are built from the depth below
    assert t.depth_tables(2).frac[0].size == t.depth_tables(2).counts[2, 0]


# -- the induced doubling tower -------------------------------------------------


@pytest.mark.parametrize("K", [4, 6, 8])
def test_induced_doubling_tower_hits_golden(K):
    spec = induced_doubling_spec(K)
    # the level-1 holes are far too big for the perturbative condition
    with pytest.raises(HoleTooBigError):
        tower.build_tower(spec)
    t = tower.build_tower(spec, enforce_hole_condition=False)
    theta, h, _ = tower.leading_eigenpair(t)
    assert abs(theta - THETA_GOLD) < 1e-12
    # survivors: both quick columns and level 1 of the second one
    assert h.values[(0, 0)][0] > 0
    assert h.values[(0, 1)][0] > 0
    assert h.values[(1, 1)][0] > 0
    # mass started in a tall column climbs into a hole and contributes
    # nothing to the survival functional, even though the base cell
    # itself keeps receiving returning mass
    assert not t.cell_survives_to_base(0, 2)
    dead = tower.tower_cell_indicator(t, (0, 2))
    rep = tower.d_functional(t, dead, theta_star=theta)
    assert rep.value == 0.0


# -- randomized towers ----------------------------------------------------------


def test_random_towers_satisfy_bound():
    rng = np.random.default_rng(20260817)
    for _ in range(10):
        spec = tower.random_tower_spec(rng)
        t = tower.build_tower(spec)
        assert all(l >= 1 for (l, j) in t.holes)
        rep = tower.theta_lower_bound(t)
        assert not rep.vacuous
        assert rep.satisfied
        assert rep.theta_star > rep.bound
        assert rep.theta_star > t.beta


def test_random_tower_mass_identity():
    rng = np.random.default_rng(5)
    spec = tower.random_tower_spec(rng)
    t = tower.build_tower(spec)
    for depth in (0, 1, 2):
        rho = tower.tower_random(t, depth, rng)
        lhs = tower.transfer_apply(t, rho).integrate()
        rhs = surviving_one_step_integral(t, rho)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def neumaier_sum(items, start=0):
    """Compensated sum, which builtin sum() computes for floats from
    Python 3.12 on."""
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def test_tower_sums_do_not_depend_on_builtin_sum(monkeypatch):
    rng = np.random.default_rng(37)
    specs = [tower.random_tower_spec(rng) for _ in range(100)]

    def sums():
        out = []
        for spec in specs:
            tw = tower.build_tower(spec)
            _, h, _ = tower.leading_eigenpair(tw)
            rows = tower.tail_mass_check(tw, h).rows
            out.append([tw.hole_condition_lhs.hex()] + [t.hex() for _, t in rows])
        return out

    plain = sums()
    monkeypatch.setattr(tower, "sum", neumaier_sum, raising=False)
    assert sums() == plain


# -- degenerate and closed cases ------------------------------------------------


def test_closed_tower_has_eigenvalue_one():
    spec = tower.TowerSpec(
        columns=(
            tower.TowerColumn(mass=0.5, return_time=1),
            tower.TowerColumn(mass=0.5, return_time=2),
        ),
        beta=0.8,
        c0=2.0,
        theta0=0.5,
    )
    t = tower.build_tower(spec)
    theta, h, _ = tower.leading_eigenpair(t)
    assert abs(theta - 1.0) < 1e-12
    # the invariant density is constant; integral 1 over tower mass 1.5
    for cell in t.cells:
        assert np.allclose(h.values[cell], 1.0 / 1.5, atol=1e-9)


def test_all_hole_oracle_degenerates():
    res = tower.markov_matrix_oracle(
        tower.golden_interval_map(), {0, 1, 2, 3}
    )
    assert res.degenerate
    assert res.theta == 0.0


def test_subcritical_tower_rejected_by_power_iteration():
    # the only surviving branch keeps half its mass, so the dominant
    # ratio 0.5 sits below beta and the spectral picture is void
    spec = tower.TowerSpec(
        columns=(
            tower.TowerColumn(mass=0.5, return_time=1, target=(1,)),
            tower.TowerColumn(mass=0.5, return_time=1, target=(0, 1)),
        ),
        beta=0.8,
        c0=1.0,
        theta0=0.5,
        holes=frozenset({(0, 0)}),
    )
    t = tower.build_tower(spec)
    with pytest.raises(NoConvergenceError):
        tower.leading_eigenpair(t)


# -- validation errors ----------------------------------------------------------


def test_mixing_violations():
    period2 = tower.TowerSpec(
        columns=(
            tower.TowerColumn(mass=0.5, return_time=1, target=(1,)),
            tower.TowerColumn(mass=0.5, return_time=1, target=(0,)),
        ),
        beta=0.8, c0=1.0, theta0=0.5,
    )
    with pytest.raises(NotMixingError):
        tower.build_tower(period2)
    two_classes = tower.TowerSpec(
        columns=(
            tower.TowerColumn(mass=0.25, return_time=1, target=(0, 1)),
            tower.TowerColumn(mass=0.25, return_time=1, target=(0, 1)),
            tower.TowerColumn(mass=0.25, return_time=1, target=(2, 3)),
            tower.TowerColumn(mass=0.25, return_time=1, target=(2, 3)),
        ),
        beta=0.8, c0=1.0, theta0=0.5,
    )
    with pytest.raises(NotMixingError):
        tower.build_tower(two_classes)
    no_cycle = tower.TowerSpec(
        columns=(tower.TowerColumn(mass=1.0, return_time=2),),
        beta=0.8, c0=2.0, theta0=0.5,
        holes=frozenset({(1, 0)}),
    )
    with pytest.raises(NotMixingError):
        tower.build_tower(no_cycle, enforce_hole_condition=False)
    # one column of height 3 returning onto itself: every cycle has length 3
    period3 = tower.TowerSpec(
        columns=(tower.TowerColumn(mass=1.0, return_time=3),),
        beta=0.8, c0=4.0, theta0=0.5,
    )
    with pytest.raises(NotMixingError, match="period 3"):
        tower.build_tower(period3)


def test_hole_and_tail_guards():
    big_hole = tower.TowerSpec(
        columns=(
            tower.TowerColumn(mass=0.5, return_time=1),
            tower.TowerColumn(mass=0.5, return_time=2),
        ),
        beta=0.8, c0=2.0, theta0=0.5,
        holes=frozenset({(1, 1)}),
    )
    with pytest.raises(HoleTooBigError):
        tower.build_tower(big_hole)
    tower.build_tower(big_hole, enforce_hole_condition=False)
    bad_tail = tower.TowerSpec(
        columns=(
            tower.TowerColumn(mass=0.5, return_time=1),
            tower.TowerColumn(mass=0.5, return_time=3),
        ),
        beta=0.8, c0=0.1, theta0=0.5,
    )
    with pytest.raises(BadTailError):
        tower.build_tower(bad_tail)


def test_config_guards():
    col = tower.TowerColumn(mass=0.5, return_time=1)
    with pytest.raises(ConfigError):
        tower.build_tower(tower.TowerSpec(columns=(), beta=0.8, c0=1.0,
                                          theta0=0.5))
    with pytest.raises(ConfigError):
        tower.build_tower(tower.TowerSpec(
            columns=(tower.TowerColumn(mass=-1.0, return_time=1),),
            beta=0.8, c0=1.0, theta0=0.5,
        ))
    with pytest.raises(ConfigError):
        tower.build_tower(tower.TowerSpec(
            columns=(tower.TowerColumn(mass=1.0, return_time=1,
                                       target=(5,)),),
            beta=0.8, c0=1.0, theta0=0.5,
        ))
    with pytest.raises(ConfigError):
        # declared jacobian breaks the mass balance
        tower.build_tower(tower.TowerSpec(
            columns=(tower.TowerColumn(mass=1.0, return_time=1,
                                       jacobian=3.0),),
            beta=0.8, c0=1.0, theta0=0.5,
        ))
    with pytest.raises(ConfigError):
        # beta outside (theta0, 1)
        tower.build_tower(tower.TowerSpec(
            columns=(col, col), beta=0.4, c0=1.0, theta0=0.5,
        ))
    with pytest.raises(ConfigError):
        # hole cell that does not exist
        tower.build_tower(tower.TowerSpec(
            columns=(col, col), beta=0.8, c0=1.0, theta0=0.5,
            holes=frozenset({(3, 0)}),
        ))
    with pytest.raises(ConfigError):
        # truncation below the tallest column
        tower.build_tower(tower.TowerSpec(
            columns=(col, tower.TowerColumn(mass=0.5, return_time=4)),
            beta=0.8, c0=2.0, theta0=0.5, l_trunc=2,
        ))


def test_markov_oracle_guards():
    with pytest.raises(NotMarkovError):
        tower.markov_matrix_oracle(tower.MarkovIntervalMap(
            breakpoints=(0.0, 0.25, 0.5, 0.75, 1.0),
            image_lo=(0.0, 0.5, 0.0, 0.5),
            image_hi=(0.6, 1.0, 0.5, 1.0),
        ))
    with pytest.raises(ReducibleSurvivingGraphError):
        # two invariant halves never communicate
        tower.markov_matrix_oracle(tower.MarkovIntervalMap(
            breakpoints=(0.0, 0.5, 1.0),
            image_lo=(0.0, 0.5),
            image_hi=(0.5, 1.0),
        ))


# -- serialization --------------------------------------------------------------


def test_tower_json_roundtrip():
    def to_json(spec):
        cells = []
        for c in spec.columns:
            cell = {"mass": float(c.mass), "return": int(c.return_time)}
            if c.target is not None:
                cell["target"] = [int(j) for j in c.target]
            if c.jacobian is not None:
                cell["jacobian"] = float(c.jacobian)
            cells.append(cell)
        obj = {"levels": [{"cells": cells}],
               "hole": sorted([int(l), int(j)] for l, j in spec.holes),
               "beta": float(spec.beta), "C0": float(spec.c0),
               "theta0": float(spec.theta0), "C1": float(spec.c1)}
        if spec.l_trunc is not None:
            obj["L_trunc"] = int(spec.l_trunc)
        return obj

    for spec in (
        tower.golden_tower_spec(),
        geometric_tail_spec(),
        tower.random_tower_spec(np.random.default_rng(41)),
    ):
        back = tower.tower_spec_from_json(to_json(spec))
        assert back == spec
    golden = to_json(tower.golden_tower_spec())
    # a misspelt key is an error, not its default (C1 = 0 here)
    for where, key in ((golden, "c1"), (golden["levels"][0], "depth"),
                       (golden["levels"][0]["cells"][0], "retrun")):
        where[key] = 5.0
        with pytest.raises(ConfigError, match=key):
            tower.tower_spec_from_json(golden)
        del where[key]
    with pytest.raises(ConfigError):
        tower.tower_spec_from_json({"beta": 0.8})
    with pytest.raises(ConfigError):
        tower.tower_spec_from_json({
            "levels": [{"cells": []}, {"cells": []}],
            "beta": 0.8, "C0": 1.0, "theta0": 0.5,
        })
    with pytest.raises(ConfigError):
        tower.tower_spec_from_json({
            "levels": [{"cells": [{"mass": "heavy", "return": 1}]}],
            "beta": 0.8, "C0": 1.0, "theta0": 0.5,
        })
