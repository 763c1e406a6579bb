"""The same artifacts whatever SIMD code numpy dispatches to.

numpy picks a SIMD implementation of each ufunc at import time, and
its transcendental functions (arctan2, arcsin, log, exp) return
different last bits at different levels.  A chaotic map turns one such
bit into a different trajectory, so the trajectory path must not call
them.  This runs small configs of every ensemble subcommand in fresh
interpreters with the host's dispatch targets switched off level by
level (NPY_DISABLE_CPU_FEATURES), and once more with OpenBLAS held to
an SSE-era kernel (OPENBLAS_CORETYPE; other BLAS builds ignore it), and
compares every --out file, the tower subcommands' included.  Tower
integrals are checked the same way under a second OpenBLAS kernel.
"""

import json
import os
import subprocess
import sys

import leakybilliards

CONFIGS = {
    "simulate-I": ("simulate", {
        "hole": {"kind": "I", "anchor": [0, 0.3], "h": 0.1},
        "n_particles": 20000, "n_max": 30, "seed": 12}),
    "simulate-II": ("simulate", {
        "hole": {"kind": "II", "anchor": [0.5, 0.0], "h": 0.05},
        "n_particles": 20000, "n_max": 30, "seed": 12}),
    "survivor-measure": ("survivor-measure", {
        "hole": {"kind": "I", "anchor": [0, 0.3], "h": 0.05},
        "n_particles": 20000, "n_steps": 20, "r_bins": 32, "phi_bins": 32,
        "seed": 13, "min_survivors": 500}),
    "escape-direct": ("escape-rate", {
        "hole": {"kind": "I", "anchor": [0, 0.3], "h": 0.1},
        "n_particles": 20000, "n_max": 30, "window": [5, 25], "seed": 11}),
    "escape-fv": ("escape-rate", {
        "hole": {"kind": "I", "anchor": [0, 0.3], "h": 0.1},
        "n_particles": 20000, "n_max": 30, "window": [5, 25], "seed": 11,
        "estimator": "fleming-viot"}),
}
# the tower subcommands on the shipped golden config: the matrix oracle's
# theta is in tower-eig's results
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs", "tower_golden.json")) as _fh:
    _GOLDEN = json.load(_fh)
CONFIGS.update({"tower-eig": ("tower-eig", _GOLDEN), "tower-bound": ("tower-bound", _GOLDEN)})

# runs every config through cli.main and prints {name: {file: sha256}},
# plus the fits of 2000 random survival curves: numpy's log and exp
# differ between levels on few enough inputs that the configs alone
# might not meet one
RUNNER = """
import hashlib, json, os, sys
import numpy as np
from leakybilliards import cli, escape
root, configs = sys.argv[1], json.loads(sys.argv[2])
rng = np.random.Generator(np.random.Philox(7))
fits = []
for _ in range(2000):
    curve = np.floor(np.cumprod(np.r_[1e5, 1.0 - 0.05 * rng.random(30)]))
    est = escape.fit_escape_rate(curve, (5, 30), censored=np.floor(rng.random(31) * 50).cumsum())
    fits.append((est.theta_hat, est.log_slope, est.stderr))
digests = {"fit": {"fits": hashlib.sha256(np.array(fits).tobytes()).hexdigest()}}
for name, (sub, cfg) in sorted(configs.items()):
    out = os.path.join(root, name)
    os.mkdir(out)
    path = out + ".json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    if cli.main([sub, "--config", path, "--out", out]) != 0:
        raise SystemExit(f"{name} failed")
    digests[name] = {f: hashlib.sha256(open(os.path.join(out, f), "rb").read()).hexdigest()
                     for f in sorted(os.listdir(out))}
print(json.dumps(digests))
"""


# integrals of one depth-4 function on a 5-column tower and its d
# functional terms: dot products through BLAS sum in an order that
# depends on the kernel OpenBLAS picks for the host
TOWER_RUNNER = """
import json
import numpy as np
from leakybilliards import tower
rng = np.random.default_rng(3)
spec = tower.random_tower_spec(rng)
while len(spec.columns) < 5:
    spec = tower.random_tower_spec(rng)
t = tower.build_tower(spec)
theta, _, _ = tower.leading_eigenpair(t)
rho = tower.tower_random(t, 4, rng)
print(json.dumps([rho.integrate().hex()]
                 + [x.hex() for x in tower.d_functional(t, rho, theta).terms]))
"""


def _dispatch_levels():
    """The host's dispatch targets, lowest first (X86_V3, X86_V4, ... on
    x86-64 with numpy 2)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def _run(script, args=(), disabled=(), blas_core=None):
    env = dict(os.environ)
    for key in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE", "LEAKY_THREADS"):
        env.pop(key, None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    if blas_core:
        env["OPENBLAS_CORETYPE"] = blas_core
    src = os.path.dirname(os.path.dirname(os.path.abspath(leakybilliards.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _digests(tmp_path, tag, disabled, blas_core=None):
    root = tmp_path / tag
    root.mkdir()
    return _run(RUNNER, (str(root), json.dumps(CONFIGS)), disabled, blas_core)


def test_tower_integrals_do_not_depend_on_blas_kernel():
    assert _run(TOWER_RUNNER, blas_core="Haswell") == _run(TOWER_RUNNER)


def test_artifacts_do_not_depend_on_simd_dispatch(tmp_path):
    levels = _dispatch_levels()
    # everything above the lowest level (the AVX512 targets on x86-64),
    # then every level
    settings = [([], None), (levels[1:], None), (levels, None), ([], "Nehalem")]
    runs = [_digests(tmp_path, f"run{i}", *s) for i, s in enumerate(settings)]
    assert sorted(runs[0]) == sorted([*CONFIGS, "fit"])
    for setting, other in zip(settings[1:], runs[1:]):
        for name in runs[0]:
            assert other[name] == runs[0][name], (name, setting)
