"""Finite expanding Markov towers with Markov holes.

A tower has finitely many base cells (columns) with masses m_j and
return times R_j; the point climbs the column one level per step and
on the top step returns to the base, spreading over a designated set
of target base cells with a constant Jacobian fixed by mass balance
J_j = mass(targets_j) / m_j.  Full-branch towers (targets = all base
cells) are the default; restricting targets realizes general Markov
return structures such as interval maps on a non-generating partition.

Holes are unions of cells (level, column).  Functions live in the
subspace vanishing on hole cells; the transfer operator kills outflow
from holes, so its iterates integrate exactly to the surviving mass.

Functions are piecewise constant on return-itinerary cylinders of a
fixed depth k.  That subspace is invariant under the transfer operator
(the operator consumes one itinerary symbol and the landing cell
supplies a new first symbol), so iteration at fixed depth is exact
linear algebra, never an approximation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTailError,
    ConfigError,
    ConfigReader,
    HoleTooBigError,
    InvalidArgumentError,
    NoConvergenceError,
    NotMarkovError,
    NotMixingError,
    NotStabilizedError,
    ReducibleSurvivingGraphError,
    check_numbers,
)

_TAIL_TOL = 1e-12
_BALANCE_RTOL = 1e-9
# d_functional's relative spread bound over the last quarter of its terms
_D_RTOL = 1e-8
# tail_mass_check's allowance over theta0/beta
_TAIL_SLACK = 0.05
# tower_random draws its values uniformly from [_RANDOM_LOW, _RANDOM_HIGH)
_RANDOM_LOW, _RANDOM_HIGH = 0.5, 1.5
# random_tower_spec: column count and return time bounds, and draws
_MAX_COLS, _MAX_RETURN, _MAX_TRIES = 5, 5, 200
# ordinary towers reach the ratio stop with residuals under 40 tol, so
# this gate moves no iteration count there; see leading_eigenpair
_RESIDUAL_FACTOR = 1e3


@dataclass(frozen=True)
class TowerColumn:
    """One base cell: mass, return time, and return branch structure.

    target lists the base cells the return branch covers (None means
    all of them, the full-branch case); jacobian, when given, must
    equal mass(target)/mass and exists only as a redundant check.
    """

    mass: float
    return_time: int
    target: tuple[int, ...] | None = None
    jacobian: float | None = None


@dataclass(frozen=True)
class TowerSpec:
    """Raw tower description prior to validation."""

    columns: tuple[TowerColumn, ...]
    beta: float
    c0: float
    theta0: float
    holes: frozenset[tuple[int, int]] = frozenset()
    c1: float = 0.0
    l_trunc: int | None = None


class Tower:
    """Validated tower with precomputed cylinder tables.

    Construct through build_tower, which checks the tail bound, the
    Jacobian mass balance, the hole-size condition, and mixing of the
    surviving cell graph.
    """

    def __init__(self, spec: TowerSpec, enforce_hole_condition: bool = True):
        cols = spec.columns
        if len(cols) == 0:
            raise ConfigError("tower needs at least one column")
        self.n_cols = len(cols)
        self.masses = np.array([c.mass for c in cols], dtype=float)
        self.returns = np.array([c.return_time for c in cols], dtype=np.int64)
        if np.any(self.masses <= 0):
            raise ConfigError("column masses must be positive")
        if np.any(self.returns < 1):
            raise ConfigError("return times must be >= 1")
        self.targets: tuple[tuple[int, ...], ...] = tuple(
            tuple(range(self.n_cols)) if c.target is None
            else tuple(sorted(set(int(j) for j in c.target)))
            for c in cols
        )
        for j, tgt in enumerate(self.targets):
            if len(tgt) == 0:
                raise ConfigError(f"column {j} has an empty return target")
            if tgt[0] < 0 or tgt[-1] >= self.n_cols:
                raise ConfigError(f"column {j} targets unknown cells {tgt}")
        self.base_mass = float(self.masses.sum())
        self.target_mass = np.array(
            [self.masses[list(t)].sum() for t in self.targets]
        )
        self.jacobians = self.target_mass / self.masses
        for j, c in enumerate(cols):
            if c.jacobian is not None and not math.isclose(
                c.jacobian, self.jacobians[j], rel_tol=_BALANCE_RTOL
            ):
                raise ConfigError(
                    f"column {j}: declared jacobian {c.jacobian} breaks mass "
                    f"balance (expected {self.jacobians[j]})"
                )
        self.max_return = int(self.returns.max())
        if spec.l_trunc is not None and spec.l_trunc < self.max_return:
            raise ConfigError(
                f"l_trunc={spec.l_trunc} below the tallest column "
                f"{self.max_return}"
            )
        self.cells: list[tuple[int, int]] = [
            (l, j) for j in range(self.n_cols) for l in range(int(self.returns[j]))
        ]
        cellset = set(self.cells)
        for cell in spec.holes:
            if tuple(cell) not in cellset:
                raise ConfigError(f"hole cell {cell} does not exist")
        self.holes = frozenset((int(l), int(j)) for l, j in spec.holes)
        self.beta = float(spec.beta)
        self.c0 = float(spec.c0)
        self.theta0 = float(spec.theta0)
        self.c1 = float(spec.c1)
        if not 0.0 < self.theta0 < 1.0:
            raise ConfigError("theta0 must lie in (0,1)")
        if not self.theta0 < self.beta < 1.0:
            raise ConfigError(
                f"beta={self.beta} must lie in (theta0={self.theta0}, 1)"
            )
        self._check_tail()
        level_mass: dict[int, float] = {}
        for l, j in self.holes:
            level_mass[l] = level_mass.get(l, 0.0) + float(self.masses[j])
        # left to right: builtin sum() is compensated from Python 3.12 on
        self.hole_condition_lhs = 0.0
        for l, m in level_mass.items():
            if l >= 1:
                self.hole_condition_lhs += self.beta ** (-(l - 1)) * m
        self.hole_condition_rhs = (1.0 - self.beta) * self.base_mass / (1.0 + self.c1)
        if enforce_hole_condition and not (
            self.hole_condition_lhs < self.hole_condition_rhs
        ):
            raise HoleTooBigError(
                f"weighted hole mass {self.hole_condition_lhs:.6g} >= "
                f"{self.hole_condition_rhs:.6g}"
            )
        self._check_mixing()
        self._depth_cache: dict[int, _Layout] = {}

    # -- validation pieces -------------------------------------------------

    def _check_tail(self):
        for n in range(0, self.max_return + 1):
            above = float(self.masses[self.returns > n].sum())
            if above > self.c0 * self.theta0 ** n + _TAIL_TOL:
                raise BadTailError(
                    f"mass above level {n} is {above:.6g} > "
                    f"C0*theta0^{n} = {self.c0 * self.theta0 ** n:.6g}"
                )

    def _check_mixing(self):
        """One aperiodic recurrent class in the one-step dynamics of the
        non-hole cells.  It passes the base: a climb only raises the
        level, and a return lands on level 0, so every cycle has one."""
        index = {c: i for i, c in enumerate(c for c in self.cells if c not in self.holes)}
        adj = np.zeros((len(index), len(index)), dtype=bool)
        for (l, j), u in index.items():
            if l + 1 < self.returns[j]:
                nxt = [(l + 1, j)]
            else:
                nxt = [(0, i) for i in self.targets[j]]
            adj[u, [index[c] for c in nxt if c in index]] = True
        periods = [p for p in _class_periods(adj) if p]
        if len(periods) == 0:
            raise NotMixingError("surviving dynamics has no recurrent cycle")
        if len(periods) > 1:
            raise NotMixingError(
                f"surviving dynamics splits into {len(periods)} recurrent "
                "classes"
            )
        if periods[0] != 1:
            raise NotMixingError(f"surviving dynamics has period {periods[0]}")

    def cell_survives_to_base(self, l: int, j: int) -> bool:
        """Whether part of the cell returns to a non-hole base cell.

        True when the climb from level l to the top of column j avoids
        hole cells and some target base cell is not a hole.
        """
        if any((lv, j) in self.holes for lv in range(l, int(self.returns[j]))):
            return False
        return any((0, i) not in self.holes for i in self.targets[j])

    # -- cylinder tables ----------------------------------------------------

    def depth_tables(self, depth: int) -> _Layout:
        """The depth-k cylinder table and layout, built once per depth
        from the depth-(k-1) one."""
        check_depth(depth)
        if depth not in self._depth_cache:
            prev = self.depth_tables(depth - 1) if depth else None
            self._depth_cache[depth] = _Layout(self, depth, prev)
        return self._depth_cache[depth]


def check_depth(depth) -> None:
    """A cylinder depth is a Python or numpy integer >= 0, not a bool."""
    if not (type(depth) is int or isinstance(depth, np.integer)) or depth < 0:
        raise InvalidArgumentError(f"depth must be an integer >= 0, got {depth!r}")


class _Layout:
    """One depth's cylinder table and where each cell's values sit.

    Column c has counts[depth, c] itineraries of depth symbols, in
    tree-lexicographic order: offsets[c] is the start of each target's
    block (all 0 at depth 0), frac[c] each itinerary's mass fraction and
    trunc[c] the index of its prefix one symbol shorter, sorted and
    hitting every prefix.  counts keeps every depth 0..depth; the other
    tables are this depth's only, built from prev, the depth-(k-1) layout.
    counts and offsets are built with the layout, since every deeper
    layout reads them; trunc and frac on first read, from prev's.  So a
    depth that refining from depth 0 only passes through holds counts
    and offsets and nothing else.

    Cells follow tower.cells, each a contiguous slice of counts[depth, j]
    values, so a column is a (return_time, count) row-major block.  The
    per-cell tables below are built on first use too.  A tower keeps its
    tables for life, so the per-column tables cover one level's
    cylinders, and only step, built by the first transfer at a depth,
    has one entry per cylinder of the whole tower.
    """

    def __init__(self, tower: Tower, depth: int, prev: _Layout | None):
        self.tower, self.depth, self.prev = tower, depth, prev
        if prev is None:
            self.counts = np.ones((1, tower.n_cols), dtype=np.int64)
            self.offsets = [np.zeros(len(tgt), np.int64) for tgt in tower.targets]
        else:
            sizes = [prev.counts[-1, list(tgt)] for tgt in tower.targets]
            self.counts = np.vstack([prev.counts, [s.sum() for s in sizes]])
            self.offsets = [np.cumsum(s) - s for s in sizes]

    @functools.cached_property
    def trunc(self) -> list:
        prev, tower = self.prev, self.tower
        if prev is None:
            return [np.zeros(1, np.int64)] * tower.n_cols
        return [np.concatenate([prev.offsets[c][ti] + prev.trunc[i]
                                for ti, i in enumerate(tgt)])
                for c, tgt in enumerate(tower.targets)]

    @functools.cached_property
    def frac(self) -> list:
        prev, tower = self.prev, self.tower
        if prev is None:
            return [np.ones(1)] * tower.n_cols
        return [np.concatenate([(tower.masses[i] / tower.target_mass[c]) * prev.frac[i]
                                for i in tgt]) for c, tgt in enumerate(tower.targets)]

    @functools.cached_property
    def cells(self) -> list:
        """(slice of vec, level, column) per cell, in tower.cells order."""
        counts = self.counts[-1].tolist()
        ends = itertools.accumulate(counts[j] for _, j in self.tower.cells)
        return [(slice(e - counts[j], e), l, j)
                for e, (l, j) in zip(ends, self.tower.cells)]

    @functools.cached_property
    def where(self) -> dict:
        return {(l, j): sl for sl, l, j in self.cells}

    @functools.cached_property
    def size(self) -> int:
        return self.cells[-1][0].stop

    @functools.cached_property
    def starts(self) -> np.ndarray:
        return np.array([sl.start for sl, _, _ in self.cells])

    @functools.cached_property
    def level_weight(self) -> np.ndarray:
        return np.array([self.tower.beta ** l for _, l, _ in self.cells])

    @functools.cached_property
    def cell_mass(self) -> np.ndarray:
        return self.tower.masses[[j for _, _, j in self.cells]]

    @functools.cached_property
    def columns(self) -> list:
        """(start, count, return time) of each column's block."""
        return [(self.where[(0, j)].start, int(self.counts[-1, j]), int(rt))
                for j, rt in enumerate(self.tower.returns)]

    @functools.cached_property
    def holes(self) -> list:
        return [self.where[c] for c in sorted(self.tower.holes)]

    @functools.cached_property
    def fed(self) -> list:
        """(base slice, prefix index, prefix count, [(start of the source
        block, jacobian), ...]) per base cell with a surviving source,
        source columns ascending: that order fixes the float sums."""
        tower, where = self.tower, self.where
        fed = []
        for i in range(tower.n_cols):
            sources = [(where[top].start + int(self.offsets[j][tgt.index(i)]), tower.jacobians[j])
                       for j, tgt in enumerate(tower.targets)
                       if i in tgt and (top := (int(tower.returns[j]) - 1, j)) not in tower.holes]
            if sources:
                m = int(self.counts[max(self.depth - 1, 0), i])
                fed.append((where[(0, i)], self.trunc[i], m, sources))
        return fed

    @functools.cached_property
    def killed(self) -> list:
        """Transfer output that must vanish: the hole, the cells whose
        climb starts on it and each base cell no source feeds."""
        tower, where = self.tower, self.where
        fed = {sl.start for sl, _, _, _ in self.fed}
        return self.holes + [
            where[(l + 1, j)] for l, j in sorted(tower.holes) if l + 1 < tower.returns[j]
        ] + [where[(0, i)] for i in range(tower.n_cols) if where[(0, i)].start not in fed]

    @functools.cached_property
    def step(self) -> tuple:
        """transfer_apply's tables, (src, jac, gather), over
        ext = [x, acc, 0.0]; built by the first transfer at this depth.

        acc has one entry per prefix (one symbol shorter) of each fed
        base cell, cells in fed order.  Column p of the (1 + rounds,
        prefixes) tables src and jac is one such entry: a first row that
        reads the 0.0 slot, then the top cylinder each source sends to
        that prefix, in order, padded with the 0.0 slot; the jacobian of
        a pad is 1.0.  gather reads each output cylinder from ext: a
        climb its index minus its column's count (the cylinder one level
        below), a fed base cylinder the acc entry of its prefix, a
        killed one 0.0.  At depth 0 a cell is one cylinder and has one
        prefix.
        """
        n, fed = self.size, self.fed
        at = list(itertools.accumulate((m for _, _, m, _ in fed), initial=0))
        zero = n + at[-1]
        src = np.full((1 + max(len(sources) for _, _, _, sources in fed), at[-1]), zero)
        jac = np.ones(src.shape)
        gather = np.arange(n)
        for start, count, rt in self.columns:
            gather[start:start + rt * count] -= count
        for a, (sl, trunc, m, sources) in zip(at, fed):
            for r, (s, jc) in enumerate(sources, 1):
                src[r, a:a + m], jac[r, a:a + m] = np.arange(s, s + m), jc
            gather[sl] = n + a + trunc
        for sl in self.killed:
            gather[sl] = zero
        return src, jac, gather


def build_tower(spec: TowerSpec, enforce_hole_condition: bool = True) -> Tower:
    """Validate a tower spec; see Tower for the checks performed."""
    return Tower(spec, enforce_hole_condition=enforce_hole_condition)


def _class_periods(adj):
    """Periods of the communicating classes of the digraph with boolean
    adjacency adj, one per class: the gcd of the class's cycle lengths,
    0 for a node on no cycle.

    reach, the paths of length 1 to 2^k, is squared until it stops
    growing; a boolean matrix product is exact and never reaches BLAS.
    u and v share a class when each reaches the other.  The period is
    the gcd of dist(u) + 1 - dist(v) over the class's edges u -> v, with
    dist from one breadth-first search.
    """
    reach = adj
    while True:
        grown = reach | (reach @ reach)
        if np.array_equal(grown, reach):
            break
        reach = grown
    out = []
    seen = np.zeros(len(adj), dtype=bool)
    for head in range(len(adj)):
        if seen[head]:
            continue
        nodes = reach[head] & reach[:, head]
        nodes[head] = True
        seen |= nodes
        if not reach[head, head]:
            out.append(0)
            continue
        sub = adj[np.ix_(nodes, nodes)]
        dist = np.full(len(sub), -1)
        dist[0] = 0
        front = dist == 0
        while front.any():
            front = sub[front].any(axis=0) & (dist < 0)
            dist[front] = dist.max() + 1
        u, v = np.nonzero(sub)
        out.append(int(np.gcd.reduce(dist[u] + 1 - dist[v])))
    return out


# -- functions on the tower --------------------------------------------------


def _left_sums(a: np.ndarray):
    """Sums over the last axis, left to right (an accumulate adds in
    order; a BLAS product or a pairwise reduce need not)."""
    return np.add.accumulate(a, axis=-1)[..., -1]


class TowerFunction:
    """Piecewise-constant function on depth-k itinerary cylinders.

    vec holds every cylinder value in one float vector laid out by the
    tower's depth-k layout: cell by cell in tower.cells order, each in
    tree-lexicographic order.  values maps each cell (level, column) to
    a writable view of its slice.  The function takes vec (it is not
    copied) and pins the hole cells to zero (the function space is the
    subspace vanishing on the hole).
    """

    def __init__(self, tower: Tower, depth: int, vec: np.ndarray):
        self.tower = tower
        self.depth = depth
        self.layout = tower.depth_tables(depth)
        if vec.shape != (self.layout.size,):
            raise InvalidArgumentError(
                f"expected {self.layout.size} cylinder values, got {vec.shape}")
        self.vec = vec
        for sl in self.layout.holes:
            vec[sl] = 0.0

    @functools.cached_property
    def values(self) -> dict:
        """Each cell's writable view into vec."""
        return {(l, j): self.vec[sl] for sl, l, j in self.layout.cells}

    # arithmetic (elementwise, same tower and depth)

    def _binary(self, other, op):
        if isinstance(other, TowerFunction):
            if other.tower is not self.tower:
                raise InvalidArgumentError("functions live on different towers")
            if other.depth != self.depth:
                d = max(self.depth, other.depth)
                return self.refined(d)._binary(other.refined(d), op)
            other = other.vec
        return TowerFunction(self.tower, self.depth, op(self.vec, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return self._binary(float(scalar), np.multiply)

    __rmul__ = __mul__

    def __imul__(self, scalar):
        self.vec *= float(scalar)
        return self

    def cell_masses(self) -> list[float]:
        """Integral over each cell, in tower.cells order: the column mass
        times the sum of the cell's values times their mass fractions.
        The sum runs left to right (_left_sums, never a BLAS dot
        product, whose order follows the installed kernel); at depth 0 it
        is the one value times 1.0, so a depth-0 function takes one
        product."""
        if self.depth == 0:
            return (self.layout.cell_mass * self.vec).tolist()
        out = []
        for j, (start, n, rt) in enumerate(self.layout.columns):
            block = self.vec[start:start + rt * n].reshape(rt, n) * self.layout.frac[j]
            out += (self.tower.masses[j] * _left_sums(block)).tolist()
        return out

    def integrate(self) -> float:
        """Integral against the tower measure (cell mass times fraction)."""
        total = 0.0
        for m in self.cell_masses():
            total += m
        return total

    def refined(self, depth: int) -> "TowerFunction":
        """Same function represented on deeper cylinders (always exact):
        each depth-k cylinder takes the value of its prefix at this
        depth, one gather per column.  Per column, the prefix of each
        itinerary is the trunc tables of the depths in between composed;
        from depth 0 it is index 0 throughout, and no trunc is read."""
        check_depth(depth)
        if depth < self.depth:
            raise InvalidArgumentError("refined() cannot lower the depth")
        if depth == self.depth:
            return self
        lay = self.tower.depth_tables(depth)
        if self.depth == 0:
            anc = [np.zeros(m, np.int64) for m in lay.counts[-1]]
        else:
            anc = [np.arange(n) for n in self.layout.counts[self.depth]]
            for k in range(self.depth + 1, depth + 1):
                anc = [a[t] for a, t in zip(anc, self.tower.depth_tables(k).trunc)]
        vec = np.empty(lay.size)
        for (start, n, rt), (out, m, _), a in zip(self.layout.columns, lay.columns, anc):
            # every index is in range; mode="clip" lets take write to out unbuffered
            self.vec[start:start + rt * n].reshape(rt, n).take(
                a, axis=1, out=vec[out:out + rt * m].reshape(rt, m), mode="clip")
        return TowerFunction(self.tower, depth, vec)

    def coarsest(self) -> "TowerFunction":
        """The same function at the smallest depth that holds it exactly.

        Depth k holds it when the cylinders sharing each depth-k prefix
        hold one value: equal as floats (0.0 and -0.0 match, a NaN
        matches nothing), no tolerance, so refining the result gives
        back every bit.  Those depths are closed upward.  So one pass
        finds the adjacent cylinders whose values differ, and their
        prefixes are followed down from depth - 1 until two of them
        meet: the answer is one deeper (a function with no coarser form
        stops at the first step and comes back as itself).  Each value
        is the first cylinder of its group, index 0 at depth 0, so a
        refined depth-0 function reads no trunc table.  A group mixing
        0.0 and -0.0 takes the sign that a level-by-level maximum.reduceat
        gives it, which follows numpy's reduction order (under AVX-512 a
        group of 9, 17, ... zeros does not reduce in order), so a
        function holding -0.0 is lowered one level at a time: per
        column, one maximum.reduceat over each prefix group (trunc is
        sorted and hits every prefix, so each prefix is one group).
        """
        vec, tower = self.vec, self.tower
        if np.isnan(vec.max()):  # max is NaN when any value is
            return self
        left = []
        for start, n, rt in self.layout.columns:
            block = vec[start:start + rt * n].reshape(rt, n)
            left.append(np.flatnonzero((block[:, 1:] != block[:, :-1]).any(axis=0)))
        depth = 0
        if any(len(p) for p in left):
            right = [p + 1 for p in left]
            for depth in range(self.depth, 0, -1):
                trunc = tower.depth_tables(depth).trunc
                left = [t[p] for t, p in zip(trunc, left)]
                right = [t[p] for t, p in zip(trunc, right)]
                if any(np.any(a == b) for a, b in zip(left, right)):
                    break
        if depth == self.depth:
            return self
        if (vec[np.signbit(vec)] == 0).any():
            out = self
            while out.depth > depth:
                lay = out.layout
                out = TowerFunction(tower, out.depth - 1, np.concatenate([
                    np.maximum.reduceat(
                        out.vec[start:start + rt * n].reshape(rt, n),
                        np.searchsorted(lay.trunc[j], np.arange(lay.counts[out.depth - 1, j])),
                        axis=1).ravel()
                    for j, (start, n, rt) in enumerate(lay.columns)]))
            return out
        values = []
        for j, (start, n, rt) in enumerate(self.layout.columns):
            first = np.arange(self.layout.counts[depth, j])
            for k in range(depth + 1, self.depth + 1) if depth else ():
                first = np.searchsorted(tower.depth_tables(k).trunc[j], first)
            values.append(vec[start:start + rt * n].reshape(rt, n)[:, first].ravel())
        return TowerFunction(tower, depth, np.concatenate(values))

    def sup_norm(self) -> float:
        """Level-weighted sup norm: max over levels of beta^l * sup |rho|."""
        lay = self.layout
        cell_max = np.maximum.reduceat(np.abs(self.vec), lay.starts)
        return float((lay.level_weight * cell_max).max())

    def lip_norm(self) -> float:
        """Level-weighted Lipschitz seminorm in the symbolic metric.

        Two cylinders of cell (l, j) separate at the itinerary-tree node
        where their itineraries part, at time R_j - l (the climb to the
        first return) plus the return times along the node's prefix.
        The seminorm is the largest beta^l * (max - min over a node) /
        beta^time.  That is, to the bit, the largest difference across
        two branches of a node, scaled the same way: a node's max - min
        is such a difference, the same two doubles subtracted, or the
        range of the one branch holding both extremes, whose time is
        larger (return times are >= 1 and beta < 1).  beta^time is
        Python's power of ints (libm pow) at every node: numpy's scalar
        power differs from it in the last bit on some inputs.
        """
        tower, beta, counts = self.tower, self.tower.beta, self.layout.counts
        node_pow = np.array([beta ** t for t in
                             range(tower.max_return * (self.depth + 1) + 1)])
        best = 0.0
        for j, (start, n, rt) in enumerate(self.layout.columns):
            block = self.vec[start:start + rt * n].reshape(rt, n)
            weight = np.array([[beta ** l] for l in range(rt)])
            nodes = [(j, 0, 0)]  # one tree depth's (column, first value, prefix time)
            for d in range(self.depth, 0, -1):
                starts = [s for _, s, _ in nodes]
                spread = (np.maximum.reduceat(block, starts, axis=1)
                          - np.minimum.reduceat(block, starts, axis=1))
                scale = node_pow[np.arange(rt, 0, -1)[:, None] + [t for _, _, t in nodes]]
                best = max(best, float((weight * (spread / scale)).max()))
                nodes = [(i, s + off, t + int(tower.returns[i])) for c, s, t in nodes
                         for i, off in zip(tower.targets[c], itertools.accumulate(
                             (int(counts[d - 1, i]) for i in tower.targets[c]), initial=0))]
        return best

    def norm(self) -> float:
        return self.sup_norm() + self.lip_norm()


def tower_constant(tower: Tower, value: float = 1.0,
                   depth: int = 0) -> TowerFunction:
    """Constant function (zero on the hole), at the requested depth."""
    size = tower.depth_tables(depth).size
    return TowerFunction(tower, depth, np.full(size, float(value)))


def tower_cell_indicator(tower: Tower, cell: tuple[int, int],
                         depth: int = 0) -> TowerFunction:
    """Indicator of one cell."""
    if tuple(cell) not in set(tower.cells):
        raise InvalidArgumentError(f"no cell {cell}")
    f = tower_constant(tower, 0.0, depth)
    if tuple(cell) not in tower.holes:
        f.values[tuple(cell)][:] = 1.0
    return f


def tower_random(tower: Tower, depth: int, rng) -> TowerFunction:
    """Random positive piecewise-constant function at the given depth.

    Draws one value per cylinder in layout order, hole cells included
    (then zeroed), so the draws do not depend on where the hole is.
    """
    size = tower.depth_tables(depth).size
    return TowerFunction(tower, depth,
                     _RANDOM_LOW + (_RANDOM_HIGH - _RANDOM_LOW) * rng.random(size))


# -- transfer operator --------------------------------------------------------


def transfer_apply(tower: Tower, rho: TowerFunction) -> TowerFunction:
    """One application of the open transfer operator.

    Pulls each cell back one step, dividing by the return Jacobian on
    the base and killing contributions that start on hole cells; the
    output vanishes on the hole, so iterating stays in the subspace.
    The integral of the output equals the integral of the input over
    the set surviving one step, exactly.

    All sources of base cell i share its prefix index trunc[i], so their
    returns are summed on its prefixes and gathered once.  Per base
    cylinder that is 0.0 + x_1/J_1 + x_2/J_2 + ..., sources ascending:
    the same float operations in the same order as one gather per (base
    cell, source) block.  At every depth a step is a fixed handful of
    array calls (_Layout.step): one take and one divide give every
    return term, np.add.accumulate down the rounds adds them (an
    accumulate adds in order, where a reduce need not), and one gather
    over [x, acc, 0.0] writes every cylinder.
    """
    if rho.tower is not tower:
        raise InvalidArgumentError("function lives on a different tower")
    src, jac, gather = rho.layout.step
    x = rho.vec
    ext = np.concatenate((x, np.zeros(src.shape[1] + 1)))
    terms = ext.take(src)
    terms /= jac
    ext[x.size:-1] = np.add.accumulate(terms)[-1]
    return TowerFunction(tower, rho.depth, ext.take(gather))


# -- spectral data -------------------------------------------------------------


@dataclass
class EigenReport:
    theta: float
    iterations: int
    trace: np.ndarray
    function_residual: float


def check_tol(tol: float) -> None:
    """leading_eigenpair's stopping tolerance must be positive."""
    if tol <= 0:
        raise InvalidArgumentError("tol must be positive")


def _power_iteration(step, mass, norm, rho, tol, max_iter):
    """Power iteration with mass normalization, from rho.

    The eigenvalue estimate is the per-step mass ratio.  It stops once
    the ratio has held to tol for three steps and norm(step(rho) - ratio
    rho) <= _RESIDUAL_FACTOR * tol * norm(step(rho)), since the ratio can
    settle before the function does.  Returns (theta, rho of mass 1,
    iterations, ratio per step).
    """
    m = mass(rho)
    trace = []
    theta = None
    stable = 0
    for it in range(1, max_iter + 1):
        nxt = step(rho)
        nmass = mass(nxt)
        if nmass <= 0:
            raise NoConvergenceError(
                "transfer iteration lost all mass; hole swallows the core"
            )
        ratio = nmass / m
        trace.append(ratio)
        if theta is not None and abs(ratio - theta) < tol * max(ratio, 1e-300):
            stable += 1
        else:
            stable = 0
        converged = stable >= 3 and (
            norm(nxt - rho * ratio) <= _RESIDUAL_FACTOR * tol * norm(nxt)
        )
        nxt *= 1.0 / nmass
        rho = nxt
        m = 1.0
        theta = ratio
        if converged:
            return theta, rho, it, trace
    raise NoConvergenceError(
        f"eigenvalue ratio did not stabilize in {max_iter} iterations"
    )


def leading_eigenpair(tower: Tower, tol: float = 1e-13,
                      max_iter: int = 100000, depth: int = 0):
    """Dominant eigenvalue and eigenfunction of the open transfer operator.

    _power_iteration of transfer_apply from the constant, with the sup
    norm in its residual gate; converged h is normalized to integral 1.
    transfer_apply maps cell-constant functions to cell-constant ones,
    so the iteration runs at depth 0 and h is refined to depth at the
    end: every depth gives the same theta and, refined, the same h, bit
    for bit.
    Returns (theta, h, EigenReport).  The dominant eigenvalue of a
    mixing tower with an admissible hole exceeds beta; a smaller result
    means the iteration left the quasi-compact regime and is rejected.
    """
    check_tol(tol)
    check_depth(depth)
    theta, rho, it, trace = _power_iteration(
        lambda f: transfer_apply(tower, f), TowerFunction.integrate,
        TowerFunction.sup_norm, tower_constant(tower, 1.0), tol, max_iter)
    h = rho * (1.0 / rho.integrate())
    resid = transfer_apply(tower, h) - h * theta
    report = EigenReport(
        theta=float(theta),
        iterations=it,
        trace=np.array(trace),
        function_residual=float(resid.sup_norm()),
    )
    if theta <= tower.beta:
        raise NoConvergenceError(
            f"dominant ratio {theta:.6g} <= beta {tower.beta}; outside the "
            "quasi-compact regime the power iteration is meaningless"
        )
    return float(theta), h.refined(depth), report


@dataclass(frozen=True)
class LowerBoundReport:
    bound: float
    vacuous: bool
    theta_star: float | None
    satisfied: bool | None


def theta_lower_bound(tower: Tower, theta_star: float | None = None) -> LowerBoundReport:
    """Closed-form eigenvalue lower bound from the weighted hole mass.

    bound = 1 - (1+C1)/mass(base) * sum_{l>=1} beta^{-(l-1)} * holemass(l).
    Holes confined to level 0 leave the sum empty, so the bound is the
    vacuous value 1 and is flagged as such rather than compared.  The
    bound can be attained (a hole that annihilates a whole column one
    level up does it), so satisfied compares with a rounding margin.
    """
    s = tower.hole_condition_lhs
    bound = 1.0 - (1.0 + tower.c1) / tower.base_mass * s
    vacuous = s == 0.0
    if theta_star is None and not vacuous:
        theta_star, _, _ = leading_eigenpair(tower)
    satisfied = None
    if theta_star is not None and not vacuous:
        satisfied = bool(theta_star >= bound - 1e-12 * max(1.0, abs(bound)))
    return LowerBoundReport(
        bound=float(bound),
        vacuous=vacuous,
        theta_star=None if theta_star is None else float(theta_star),
        satisfied=satisfied,
    )


@dataclass
class DFunctionalReport:
    value: float
    terms: np.ndarray
    max_deviation: float
    positive_expected: bool


def d_functional(tower: Tower, rho: TowerFunction,
                 theta_star: float, n_terms: int = 60) -> DFunctionalReport:
    """Survival functional d(rho): limit of theta^{-n} * surviving mass.

    The sequence theta_star^{-n} * integral of the n-step open transfer
    of rho stabilizes geometrically; the reported value is the final
    term and max_deviation measures the spread over the last quarter of
    the terms.  When rho is nonnegative and strictly positive on a cell
    whose climb returns to an unharmed base cell, the limit must be
    positive; violating that raises, as does failure to stabilize.
    theta_star, the normalizing base, is the leading eigenvalue as
    leading_eigenpair returns it.  rho is iterated at rho.coarsest(), the
    smallest depth that holds it exactly.
    """
    if n_terms < 8:
        raise InvalidArgumentError("n_terms must be at least 8")
    rho = rho.coarsest()
    nonneg = bool(np.all(rho.vec >= 0))
    positive_expected = nonneg and any(
        tower.cell_survives_to_base(l, j) and np.all(rho.vec[sl] > 0)
        for sl, l, j in rho.layout.cells if (l, j) not in tower.holes
    )
    terms = np.empty(n_terms + 1)
    cur = rho
    terms[0] = cur.integrate()
    scale = 1.0
    for n in range(1, n_terms + 1):
        cur = transfer_apply(tower, cur)
        scale /= theta_star
        terms[n] = cur.integrate() * scale
        # renormalize the carried function to keep floats in range
        m = abs(terms[n])
        if m > 0 and (m > 1e100 or m < 1e-100):
            raise NotStabilizedError(
                "terms diverged; theta_star inconsistent with the tower"
            )
    tail = terms[-max(n_terms // 4, 2):]
    value = float(terms[-1])
    spread = float(np.max(np.abs(tail - value)))
    if abs(value) > 0 and spread > _D_RTOL * max(abs(value), 1e-300):
        raise NotStabilizedError(
            f"d(rho) not stabilized: spread {spread:.3g} over the last "
            f"quarter vs value {value:.6g}"
        )
    if abs(value) == 0.0 and spread > _D_RTOL:
        raise NotStabilizedError(
            f"d(rho) not stabilized near zero: spread {spread:.3g}"
        )
    if positive_expected and not value > 0:
        raise NotStabilizedError(
            f"d(rho) = {value:.6g} but positivity was forced by support on "
            "a surviving cell"
        )
    return DFunctionalReport(
        value=value,
        terms=terms,
        max_deviation=spread,
        positive_expected=positive_expected,
    )


# -- exact interval-map oracle -------------------------------------------------


@dataclass(frozen=True)
class MarkovIntervalMap:
    """Piecewise-linear orientation-preserving map on a Markov partition.

    breakpoints are the partition endpoints x_0 < ... < x_m; cell i maps
    affinely onto [image_lo[i], image_hi[i]], whose endpoints must again
    be breakpoints.
    """

    breakpoints: tuple[float, ...]
    image_lo: tuple[float, ...]
    image_hi: tuple[float, ...]

    @property
    def n_cells(self) -> int:
        return len(self.breakpoints) - 1


@dataclass
class MarkovOracleResult:
    theta: float
    h: np.ndarray          # per-cell density values, 0 on hole cells
    psi: np.ndarray        # left functional scaled so d(rho) = sum psi*rho*len
    matrix: np.ndarray     # substochastic transfer matrix on all cells
    surviving: np.ndarray  # surviving cell indices
    lengths: np.ndarray    # cell lengths
    degenerate: bool

    def d_of(self, rho_values) -> float:
        rho = np.asarray(rho_values, dtype=float)
        return float((self.psi * rho * self.lengths).sum())


def markov_matrix_oracle(markov_map: MarkovIntervalMap,
                         hole_cells=frozenset()) -> MarkovOracleResult:
    """Spectral data of the open transfer operator from its matrix.

    The transfer matrix on piecewise-constant densities has entries
    1/slope_j for each surviving branch j that covers cell i.  Returns
    the dominant eigenvalue with its right eigenfunction (integral 1)
    and the left functional psi normalized so that d(h) = 1; an
    all-hole partition yields the zero matrix, flagged degenerate.
    np.linalg.eigvals only gates: the dominant eigenvalue must be real
    and simple in modulus, to 1e-12.  theta, h and psi come from
    _power_iteration on the surviving matrix and its transpose, with
    leading_eigenpair's tolerance and stopping rule and every sum taken
    left to right, so no bit follows the BLAS kernel.
    """
    bp = np.asarray(markov_map.breakpoints, dtype=float)
    if len(bp) < 2 or np.any(np.diff(bp) <= 0):
        raise NotMarkovError("breakpoints must be strictly increasing")
    m = markov_map.n_cells
    lo = np.asarray(markov_map.image_lo, dtype=float)
    hi = np.asarray(markov_map.image_hi, dtype=float)
    if lo.shape != (m,) or hi.shape != (m,):
        raise NotMarkovError("one image interval per cell required")
    lengths = np.diff(bp)
    holes = frozenset(int(c) for c in hole_cells)
    for c in holes:
        if not 0 <= c < m:
            raise NotMarkovError(f"hole cell {c} does not exist")
    span_lo = np.array([_breakpoint_index(bp, x) for x in lo])
    span_hi = np.array([_breakpoint_index(bp, x) for x in hi])
    if np.any(span_hi <= span_lo):
        raise NotMarkovError("image intervals must be nondegenerate")
    slopes = (hi - lo) / lengths
    mat = np.zeros((m, m))
    for j in range(m):
        if j in holes:
            continue
        for i in range(span_lo[j], span_hi[j]):
            mat[i, j] = 1.0 / slopes[j]
    surviving = np.array(sorted(set(range(m)) - holes), dtype=np.int64)
    if len(surviving) == 0:
        return MarkovOracleResult(
            theta=0.0, h=np.zeros(m), psi=np.zeros(m), matrix=mat,
            surviving=surviving, lengths=lengths, degenerate=True,
        )
    sub = mat[np.ix_(surviving, surviving)]
    # the oracle demands an irreducible surviving transition structure
    n_classes = len(_class_periods(sub.T != 0))
    if n_classes != 1:
        raise ReducibleSurvivingGraphError(
            f"surviving cells split into {n_classes} communicating classes"
        )
    w = np.linalg.eigvals(sub)
    order = np.argsort(-np.abs(w))
    if abs(w[order[0]].imag) > 1e-12:
        raise ReducibleSurvivingGraphError(
            "dominant eigenvalue is not real; surviving dynamics not mixing"
        )
    if len(w) > 1 and abs(abs(w[order[0]]) - abs(w[order[1]])) < 1e-12:
        raise ReducibleSurvivingGraphError(
            "dominant eigenvalue is not simple in modulus"
        )
    sub_len = lengths[surviving]

    def power(a):
        return _power_iteration(
            lambda x: _left_sums(a * x), lambda x: float(_left_sums(x * sub_len)),
            lambda x: float(np.abs(x).max()), np.ones(len(surviving)), 1e-13, 100000)

    theta, v, _, _ = power(sub)
    _, u, _, _ = power(sub.T)
    h_full = np.zeros(m)
    h_full[surviving] = v / _left_sums(v * sub_len)
    psi_full = np.zeros(m)
    # scale so that sum(psi * h * len) = 1, giving d(h) = 1
    psi_full[surviving] = u / _left_sums(u * h_full[surviving] * sub_len)
    return MarkovOracleResult(
        theta=theta, h=h_full, psi=psi_full, matrix=mat,
        surviving=surviving, lengths=lengths, degenerate=False,
    )


def _breakpoint_index(bp: np.ndarray, x: float) -> int:
    """Index of the partition breakpoint an image endpoint must equal."""
    i = int(np.argmin(np.abs(bp - x)))
    if abs(bp[i] - x) > 1e-12:
        raise NotMarkovError(f"image endpoint {x} is not a partition breakpoint")
    return i


def flat_tower_from_markov_map(markov_map: MarkovIntervalMap, hole_cells,
                               beta: float = 0.8,
                               theta0: float = 0.5) -> TowerSpec:
    """Flat tower (all returns 1) matching an interval-map oracle input."""
    bp = np.asarray(markov_map.breakpoints, dtype=float)
    lengths = np.diff(bp)
    cols = []
    for j in range(markov_map.n_cells):
        a = _breakpoint_index(bp, markov_map.image_lo[j])
        b = _breakpoint_index(bp, markov_map.image_hi[j])
        cols.append(TowerColumn(
            mass=float(lengths[j]),
            return_time=1,
            target=tuple(range(a, b)),
        ))
    return TowerSpec(
        columns=tuple(cols),
        beta=beta,
        c0=float(lengths.sum()),
        theta0=theta0,
        holes=frozenset((0, int(c)) for c in hole_cells),
        l_trunc=1,
    )


# -- tail masses ---------------------------------------------------------------


@dataclass
class TailReport:
    rows: list          # (L, tail_mass)
    envelope_ratio: float
    bound: float
    ok: bool


def tail_mass_check(tower: Tower, h: TowerFunction | None = None,
                    theta_star: float | None = None) -> TailReport:
    """Level tails of the conditionally invariant measure proxy h*m.

    Reports the mass above each level and checks the successive-tail
    ratio against theta0/beta plus _TAIL_SLACK.  Flat towers have zero tails
    and pass trivially.  h defaults to the leading eigenfunction;
    theta_star is never read, and stays because callers pass it by
    position after h.  The level masses are those of h.coarsest(), so
    an h refined from depth 0 (as leading_eigenpair returns it at any
    depth) takes one product per cell, and h and h.refined(k) give the
    same rows, bit for bit.
    """
    if h is None:
        _, h, _ = leading_eigenpair(tower)
    h = h.coarsest()
    level_mass = {}
    for (_, l, _), m in zip(h.layout.cells, h.cell_masses()):
        level_mass[l] = level_mass.get(l, 0.0) + m
    lmax = max(level_mass)
    rows = []
    for big_l in range(0, lmax + 1):
        tail = 0.0
        for l, mass in level_mass.items():
            if l > big_l:
                tail += mass
        rows.append((big_l, float(tail)))
    ratios = [
        rows[i + 1][1] / rows[i][1]
        for i in range(len(rows) - 1)
        if rows[i][1] > 1e-300 and rows[i + 1][1] > 0
    ]
    envelope = max(ratios) if ratios else 0.0
    bound = tower.theta0 / tower.beta + _TAIL_SLACK
    ok = envelope <= bound
    if not ok:
        raise BadTailError(
            f"tail envelope ratio {envelope:.6g} exceeds "
            f"theta0/beta + {_TAIL_SLACK} = {bound:.6g}"
        )
    return TailReport(rows=rows, envelope_ratio=float(envelope),
                      bound=float(bound), ok=ok)


# -- serialization -------------------------------------------------------------


def tower_spec_from_json(obj) -> TowerSpec:
    """Read a tower spec: one base level of cells plus the tower constants."""
    f = ConfigReader(obj, "tower")
    levels = f.items("levels")
    if len(levels) != 1:
        raise ConfigError(
            "tower JSON carries exactly one levels entry (the base); "
            f"got {len(levels)}"
        )
    level = ConfigReader(levels[0], "tower.levels[0]")
    cols = tuple(TowerColumn(mass=c.number("mass"), return_time=c.integer("return"),
                             target=c.numbers("target", int, None),
                             jacobian=c.number("jacobian", None))
                 for c in level.objects("cells"))
    level.close()
    spec = TowerSpec(
        columns=cols,
        beta=f.number("beta"),
        c0=f.number("C0"),
        theta0=f.number("theta0"),
        holes=frozenset(check_numbers(cell, "tower.hole", (int, int))
                        for cell in f.items("hole", [])),
        c1=f.number("C1", 0.0),
        l_trunc=f.integer("L_trunc", None),
    )
    f.close()
    return spec


def golden_tower_spec() -> TowerSpec:
    """Doubling map on quarters with the first quarter removed.

    Flat tower over four equal base cells; the return branch of each
    cell covers the half-interval the doubling map sends it to.  The
    dominant survival factor is (1+sqrt(5))/4.
    """
    return TowerSpec(
        columns=(
            TowerColumn(mass=0.25, return_time=1, target=(0, 1)),
            TowerColumn(mass=0.25, return_time=1, target=(2, 3)),
            TowerColumn(mass=0.25, return_time=1, target=(0, 1)),
            TowerColumn(mass=0.25, return_time=1, target=(2, 3)),
        ),
        beta=0.8,
        c0=1.0,
        theta0=0.5,
        holes=frozenset({(0, 0)}),
        l_trunc=1,
    )


def golden_interval_map() -> MarkovIntervalMap:
    """The doubling map on the quarter partition of the unit interval."""
    return MarkovIntervalMap(
        breakpoints=(0.0, 0.25, 0.5, 0.75, 1.0),
        image_lo=(0.0, 0.5, 0.0, 0.5),
        image_hi=(0.5, 1.0, 0.5, 1.0),
    )


def random_tower_spec(rng) -> TowerSpec:
    """Random valid tower with holes strictly above the base.

    Draws column counts, masses, and return times, then places holes at
    levels >= 1 while keeping the weighted hole-mass condition strict,
    so the eigenvalue lower bound is never vacuous.  Retries until the
    mixing check passes.
    """
    for _ in range(_MAX_TRIES):
        ncols = int(rng.integers(2, _MAX_COLS + 1))
        returns = rng.integers(1, _MAX_RETURN + 1, size=ncols)
        returns[int(rng.integers(0, ncols))] = 1  # keep a fast loop around
        masses = 0.2 + rng.random(ncols)
        theta0 = 0.75
        c0 = 0.0
        total = float(masses.sum())
        for n in range(0, int(returns.max()) + 1):
            above = float(masses[returns > n].sum())
            c0 = max(c0, above / theta0 ** n)
        beta = theta0 + (1.0 - theta0) * (0.3 + 0.5 * rng.random())
        budget = (1.0 - beta) * total  # C1 = 0
        candidates = [
            (l, j) for j in range(ncols) for l in range(1, int(returns[j]))
        ]
        if not candidates:
            continue
        rng.shuffle(candidates)
        holes = set()
        lhs = 0.0
        for (l, j) in candidates:
            add = beta ** (-(l - 1)) * masses[j]
            if lhs + add < 0.9 * budget:
                holes.add((l, int(j)))
                lhs += add
                if rng.random() < 0.5:
                    break
        if not holes:
            continue
        spec = TowerSpec(
            columns=tuple(
                TowerColumn(mass=float(masses[j]),
                            return_time=int(returns[j]))
                for j in range(ncols)
            ),
            beta=float(beta),
            c0=float(c0 * 1.0000001),
            theta0=theta0,
            holes=frozenset(holes),
        )
        try:
            build_tower(spec)
        except (NotMixingError, HoleTooBigError, BadTailError):
            continue
        return spec
    raise NoConvergenceError("could not draw a valid random tower")
