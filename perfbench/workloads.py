"""Workload definitions: the inputs each run hands to the program.

The driver turns a workload seed into one JSON input file and gives the
child process nothing else.  Inputs are generated here, by benchmark
code, so a change to the program cannot silently change what is timed.
"""

from __future__ import annotations

import math

import numpy as np

# Perimeter of the default two-disk table (radii 0.4 and 0.2).  The
# analytic hole masses checked in child.py use it rather than the
# program's own geometry, so the check is independent of the program.
DEFAULT_PERIMETER = 2.0 * math.pi * (0.4 + 0.2)

# Mirror of configs/escape_default.json, kept here so that editing the
# shipped example does not change the benchmark.
ESCAPE_DEFAULT = {
    "hole": {"kind": "I", "anchor": [0, 0.3], "h": 0.1},
    "density": {"kind": "nu"},
    "n_particles": 200000,
    "n_max": 60,
    "window": [10, 40],
    "seed": 20260817,
    "estimator": "direct",
}

# Fleming-Viot on a Type II disk.  131072 particles are exactly two
# open_dynamics chunks, so each of the two threads gets a full chunk on
# every step; 20 steps keep one process near 7 s so a run holds several.
FV_TYPE_II = {
    "hole": {"kind": "II", "anchor": [0.5, 0.0], "h": 0.05},
    "density": {"kind": "nu"},
    "n_particles": 131072,
    "n_steps": 20,
    "window": [5, 20],
    "capture": [10, 20],
    "r_bins": 64,
    "phi_bins": 64,
    "threads": 2,
}

# Tower schedule: tower i is solved at cylinder depth DEPTHS[i % 6] and
# has 3 + (i // 6) % 3 base columns, so every seed gets the same mix of
# sizes.  The DEEP towers (about 2x10^5 cylinders each) take most of the
# solve time: on a shared host the loop-bound shallow towers time about
# twice as noisily as these vector-bound ones.
N_TOWERS = 24
DEPTHS = (0, 1, 2, 3, 4, 5)
HEIGHTS = (1, 3, 5, 2, 4)  # a tower with c columns uses the first c, shuffled
GAP_BAND = (0.65, 0.70)    # about 70 to 85 power iterations per tower
N_DEEP = 8
DEEP_DEPTH = 6
DEEP_COLS = 5

WORKLOADS = {
    "escape-direct": (
        "shipped escape config via cli.main at 1 thread: survivors fall "
        "below one chunk, so first-hit search, serial steps, setup and "
        "artifact writing dominate"
    ),
    "fv-typeII": (
        "Fleming-Viot on a Type II disk at 2 threads: constant full "
        "chunked batches, disk-crossing mask, inverse map, cloning and "
        "histograms do real work"
    ),
    "tower-spectral": (
        "random Markov towers at cylinder depths 0-6 plus the golden "
        "tower and its matrix oracle: isolates tower and import cost, no "
        "billiard code runs"
    ),
}


def _gap_ratio(spec) -> float:
    """|lambda_2| / |lambda_1| of the open operator on cell-constant functions.

    Power iteration from the constant function never leaves that space,
    so this ratio fixes leading_eigenpair's iteration count at any depth.
    """
    cols = spec["levels"][0]["cells"]
    masses = np.array([c["mass"] for c in cols])
    heights = [c["return"] for c in cols]
    holes = {tuple(h) for h in spec["hole"]}
    cells = [(l, j) for j in range(len(cols)) for l in range(heights[j])]
    index = {c: k for k, c in enumerate(cells)}
    jac = masses.sum() / masses  # every column returns onto the whole base
    op = np.zeros((len(cells), len(cells)))
    for l, j in cells:
        if (l, j) in holes:
            continue
        if l >= 1 and (l - 1, j) not in holes:
            op[index[(l, j)], index[(l - 1, j)]] = 1.0
        if l == 0:
            for k in range(len(cols)):
                top = (heights[k] - 1, k)
                if top not in holes:
                    op[index[(0, j)], index[top]] += 1.0 / jac[k]
    mods = np.sort(np.abs(np.linalg.eigvals(op)))[::-1]
    return float(mods[1] / mods[0])


def _random_tower(rng, n_cols: int) -> dict:
    """One valid tower spec in the program's JSON format.

    Built like tower.random_tower_spec (a fast base loop, holes strictly
    above the base under the strict weighted hole-mass condition), so it
    always passes build_tower, but with column heights fixed up to order
    and the gap ratio held in GAP_BAND.  Cells and power iterations per
    tower then barely vary, so neither does the work of a seed.
    """
    for _ in range(10000):
        returns = rng.permutation(np.array(HEIGHTS[:n_cols]))
        masses = 0.2 + rng.random(n_cols)
        theta0 = 0.75
        c0 = max(float(masses[returns > n].sum()) / theta0 ** n
                 for n in range(int(returns.max()) + 1))
        beta = theta0 + (1.0 - theta0) * (0.3 + 0.5 * rng.random())
        budget = 0.9 * (1.0 - beta) * float(masses.sum())
        cands = [(l, j) for j in range(n_cols) for l in range(1, int(returns[j]))]
        rng.shuffle(cands)
        holes, lhs = [], 0.0
        for l, j in cands:
            add = beta ** (-(l - 1)) * masses[j]
            if lhs + add < budget:
                holes.append([int(l), int(j)])
                lhs += add
                if rng.random() < 0.5:
                    break
        spec = {
            "levels": [{"cells": [
                {"mass": float(masses[j]), "return": int(returns[j])}
                for j in range(n_cols)
            ]}],
            "hole": sorted(holes),
            "beta": float(beta),
            "C0": float(c0 * 1.0000001),
            "theta0": theta0,
            "C1": 0.0,
        }
        if holes and GAP_BAND[0] <= _gap_ratio(spec) <= GAP_BAND[1]:
            return spec
    raise RuntimeError(f"no {n_cols}-column tower in the gap band")


GOLDEN = {
    "levels": [{"cells": [
        {"mass": 0.25, "return": 1, "target": [0, 1]},
        {"mass": 0.25, "return": 1, "target": [2, 3]},
        {"mass": 0.25, "return": 1, "target": [0, 1]},
        {"mass": 0.25, "return": 1, "target": [2, 3]},
    ]}],
    "hole": [[0, 0]],
    "beta": 0.8,
    "C0": 1.0,
    "theta0": 0.5,
    "L_trunc": 1,
}

# the quartered doubling map; removing cell 0 gives theta = (1+sqrt5)/4
GOLDEN_MAP = {
    "breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0],
    "image_lo": [0.0, 0.5, 0.0, 0.5],
    "image_hi": [0.5, 1.0, 0.5, 1.0],
    "hole_cells": [0],
}


def make_input(workload: str, seed: int, small: bool = False) -> dict:
    """The complete input of one child process for a workload seed.

    small shrinks every size for the benchmark's self-test only.
    """
    if workload == "escape-direct":
        cfg = dict(ESCAPE_DEFAULT)
        if small:
            cfg.update(n_particles=20000, n_max=20, window=[5, 15])
        return {"config": cfg, "seed": seed}
    if workload == "fv-typeII":
        cfg = dict(FV_TYPE_II)
        if small:
            cfg.update(n_particles=8192, n_steps=6, window=[2, 6], capture=[3, 6])
        return {"config": cfg, "seed": seed}
    if workload == "tower-spectral":
        rng = np.random.Generator(np.random.Philox(key=[seed, 0x70E4]))
        n_towers, n_deep = (12, 0) if small else (N_TOWERS, N_DEEP)
        towers = [
            {"spec": _random_tower(rng, 3 + (i // len(DEPTHS)) % 3),
             "depth": DEPTHS[i % len(DEPTHS)]}
            for i in range(n_towers)
        ]
        towers += [
            {"spec": _random_tower(rng, DEEP_COLS), "depth": DEEP_DEPTH}
            for _ in range(n_deep)
        ]
        return {"towers": towers, "golden": GOLDEN, "golden_map": GOLDEN_MAP,
                "seed": seed}
    raise ValueError(f"unknown workload {workload!r}")
