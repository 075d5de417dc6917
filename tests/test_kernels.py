"""Oracle tests of the pair-sum paths in ``flockkit._kernels``.

Every path is compared with a ``math.fsum`` direct sum on sampled rows:
``den`` relatively, and ``s`` relative to ``sum_j U_ij (|u_j| + |v_i|)``,
the scale that bounds its terms.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flockkit import CompactBump, FreeSpace, GaussianPeriodized, LogGradBounded, Torus, _kernels

RTOL = 1e-12
EPS = np.finfo(float).eps


def fsum_row(spec, size, x_i, v_i, y, u):
    """``(den, s, scale)`` of one target row by compensated summation."""
    delta = x_i[None, :] - y
    if size is not None:
        delta = delta - size * np.rint(delta / size)
    w = spec.values(delta)
    den = math.fsum(w)
    s = np.array([math.fsum(w * (u[:, c] - v_i[c])) for c in range(y.shape[1])])
    scale = np.array([math.fsum(w * (np.abs(u[:, c]) + abs(v_i[c])))
                      for c in range(y.shape[1])])
    return den, s, scale


def oracle_error(spec, domain, x, v, y, u, den, s, rows):
    size = domain.size if isinstance(domain, Torus) else None
    worst = 0.0
    for i in rows:
        den_ref, s_ref, scale = fsum_row(spec, size, x[i], v[i], y, u)
        worst = max(worst, abs(den[i] - den_ref) / den_ref,
                    float(np.max(np.abs(s[i] - s_ref) / scale)))
    return worst


def sums_with_path(spec, domain, x, v, y, u):
    """The call's result and the change of the per-path counters it caused."""
    before = dict(_kernels.path_counts)
    den, s = _kernels.alignment_sums(spec, domain, x, v, y, u)
    return den, s, {k: _kernels.path_counts[k] - before[k] for k in before}


def uniform_case(d, ratio, n, m, seed):
    period = 10.0
    spec = GaussianPeriodized(d=d, width=ratio * period, period=period)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, period, (n, d))
    y = rng.uniform(0.0, period, (m, d))
    v = rng.uniform(-0.6, 0.6, (n, d))
    u = rng.uniform(-0.6, 0.6, (m, d))
    return spec, Torus(d, period), x, v, y, u


# (d, w/D) -> the path the cost model picks for a ~1e6-pair call; the narrow
# kernels in d >= 2 put a uniform cloud's row sums too close to the
# precision floor, and d = 3 pays (2K + 1)^3 features per point
EXPECTED_PATH = {
    (1, 0.05): "fourier", (1, 0.1): "fourier", (1, 0.3): "fourier",
    (2, 0.05): "direct", (2, 0.1): "fourier", (2, 0.3): "fourier",
    (3, 0.05): "direct", (3, 0.1): "direct", (3, 0.3): "fourier",
}
SHAPES = {"square": (1000, 1000), "rectangular": (2600, 400)}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("d,ratio", EXPECTED_PATH)
def test_large_band_matches_fsum(d, ratio, shape):
    n, m = SHAPES[shape]
    spec, dom, x, v, y, u = uniform_case(d, ratio, n, m, seed=17 * d + int(100 * ratio))
    den, s, ran = sums_with_path(spec, dom, x, v, y, u)
    path = EXPECTED_PATH[(d, ratio)]
    assert ran[path] == 1 and ran["small"] == 0
    assert ran["direct" if path == "fourier" else "fourier"] == 0
    rows = np.random.default_rng(1).choice(n, size=24, replace=False)
    assert oracle_error(spec, dom, x, v, y, u, den, s, rows) <= RTOL


@pytest.mark.parametrize("d,ratio", [k for k, p in EXPECTED_PATH.items() if p == "fourier"])
def test_fourier_error_constant(d, ratio):
    # the precision floor assumes |error| <= _FOURIER_ERR * eps * u0 * sum_j |col_j|
    # for den (col = 1) and for s (col = u_c, with the v_c den term)
    spec, dom, x, v, y, u = uniform_case(d, ratio, 1200, 900, seed=5 + d)
    den, s, _ = _kernels._fourier_sums(spec, spec._fourier_modes, x, v, y, u)
    m = y.shape[0]
    worst = 0.0
    for i in np.random.default_rng(2).choice(x.shape[0], size=40, replace=False):
        den_ref, s_ref, _ = fsum_row(spec, dom.size, x[i], v[i], y, u)
        worst = max(worst, abs(den[i] - den_ref) / (EPS * spec.u0 * m))
        bound = EPS * spec.u0 * (np.abs(u).sum(axis=0) + np.abs(v[i]) * m)
        worst = max(worst, float(np.max(np.abs(s[i] - s_ref) / bound)))
    assert worst <= _kernels._FOURIER_ERR


def test_clustered_sources_send_far_rows_to_the_direct_path():
    spec = GaussianPeriodized(d=2, width=1.0, period=10.0)
    dom = Torus(2, 10.0)
    rng = np.random.default_rng(8)
    y = np.mod(5.0 + 0.4 * rng.standard_normal((800, 2)), 10.0)
    u = rng.uniform(-0.5, 0.5, (800, 2))
    x = rng.uniform(0.0, 10.0, (1500, 2))
    v = rng.uniform(-0.5, 0.5, (1500, 2))
    _, _, ok = _kernels._fourier_sums(spec, spec._fourier_modes, x, v, y, u)
    den, s, ran = sums_with_path(spec, dom, x, v, y, u)
    assert ran["fourier"] == 1
    assert 0 < ran["fourier_fallback_rows"] == int(np.sum(~ok)) < x.shape[0]
    far = np.flatnonzero(~ok)
    near = np.flatnonzero(ok)
    rows = np.concatenate([far[:: max(1, far.size // 16)], near[:: max(1, near.size // 16)]])
    assert oracle_error(spec, dom, x, v, y, u, den, s, rows) <= RTOL


@pytest.mark.parametrize("case", ["n_max_below_auto", "size_not_period", "free_space",
                                  "other_family"])
def test_fourier_path_rejected(case):
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 5.0, (1000, 2))
    v = rng.uniform(-0.5, 0.5, (1000, 2))
    spec = GaussianPeriodized(d=2, width=0.5, period=5.0)
    dom = Torus(2, 5.0)
    if case == "n_max_below_auto":
        spec = GaussianPeriodized(d=2, width=2.0, period=5.0, n_max=1)
        assert spec._auto_images > 1 and spec._fourier_modes is None
    elif case == "size_not_period":
        dom = Torus(2, 10.0)
        x = 2.0 * x
    elif case == "free_space":
        dom = FreeSpace(2)
    else:
        spec = CompactBump(d=2, radius=1.0)
        dom = FreeSpace(2)
    den, s, ran = sums_with_path(spec, dom, x, v, x, v)
    assert ran["direct"] == 1 and ran["fourier"] == 0
    assert oracle_error(spec, dom, x, v, x, v, den, s, range(0, 1000, 97)) <= RTOL


def test_direct_path_across_row_chunks():
    # 2000-row chunks of the kernel matrix, each split into 131-row products
    rng = np.random.default_rng(9)
    spec, dom = CompactBump(d=2, radius=3.0), FreeSpace(2)
    x = rng.uniform(0.0, 10.0, (2600, 2))
    v = rng.uniform(-0.5, 0.5, (2600, 2))
    y = rng.uniform(0.0, 10.0, (1000, 2))
    u = rng.uniform(-0.5, 0.5, (1000, 2))
    assert _kernels._row_chunks(2600, 1000, 2) == 2000
    den, s, ran = sums_with_path(spec, dom, x, v, y, u)
    assert ran["direct"] == 1
    rows = [0, 130, 131, 1964, 1965, 1999, 2000, 2130, 2131, 2599]
    assert oracle_error(spec, dom, x, v, y, u, den, s, rows) <= RTOL


def test_explicit_n_max_at_or_above_auto_keeps_fourier():
    base = GaussianPeriodized(d=2, width=1.0, period=10.0)
    spec = GaussianPeriodized(d=2, width=1.0, period=10.0, n_max=base._auto_images + 1)
    np.testing.assert_array_equal(spec._fourier_modes, base._fourier_modes)


def test_mode_count_follows_the_tail_rule():
    spec = GaussianPeriodized(d=2, width=1.0, period=10.0)
    modes = spec._fourier_modes
    assert len(modes) - 1 == 13  # 27^2 = 729 features in d = 2
    a = 2.0 * math.pi**2 / 100.0
    assert math.exp(-a * 13**2) < 1e-14 <= math.exp(-a * 12**2)
    # the series reproduces the lattice sum at the far corner and the centre
    s = np.array([0.0, 1.3, 5.0])
    phase = 2.0 * np.pi * np.outer(s, np.arange(1, 14)) / 10.0
    series = modes[0] + 2.0 * np.cos(phase) @ modes[1:]
    np.testing.assert_allclose(series, spec._theta(s), rtol=1e-13, atol=1e-16)


SMALL_FAMILIES = {
    "bump": lambda d: CompactBump(d=d, radius=3.0),
    "loggrad": lambda d: LogGradBounded(d=d, decay=1.0),
    "loggrad_periodic": lambda d: LogGradBounded(d=d, decay=1.0, period=6.0),
    "gaussian": lambda d: GaussianPeriodized(d=d, width=1.0, period=6.0),
}
SMALL_SHAPES = {"square": (40, 40), "rectangular": (45, 20)}


def small_case(family, d, domain, shape):
    """A small-band call on a cell of side 6 (free space or the torus of that side)."""
    rng = np.random.default_rng(10 * d + (domain == "torus"))
    n, m = SMALL_SHAPES[shape]
    x = rng.uniform(0.0, 6.0, (n, d))
    v = rng.uniform(-0.6, 0.6, (n, d))
    y, u = (x, v) if shape == "square" else (rng.uniform(0.0, 6.0, (m, d)),
                                           rng.uniform(-0.6, 0.6, (m, d)))
    dom = Torus(d, 6.0) if domain == "torus" else FreeSpace(d)
    return SMALL_FAMILIES[family](d), dom, x, v, y, u


@pytest.mark.parametrize("shape", SMALL_SHAPES)
@pytest.mark.parametrize("domain", ["free", "torus"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", SMALL_FAMILIES)
def test_small_band_matches_fsum(family, d, domain, shape):
    spec, dom, x, v, y, u = small_case(family, d, domain, shape)
    den, s, ran = sums_with_path(spec, dom, x, v, y, u)
    assert ran["small"] == 1 and ran["direct"] == 0 and ran["fourier"] == 0
    assert oracle_error(spec, dom, x, v, y, u, den, s, range(0, x.shape[0], 4)) <= RTOL


@pytest.mark.parametrize("family", SMALL_FAMILIES)
def test_small_band_rerun_gives_the_same_bits(family):
    spec, dom, x, v, y, u = small_case(family, 2, "torus", "rectangular")
    first = _kernels.alignment_sums(spec, dom, x, v, y, u)
    again = _kernels.alignment_sums(spec, dom, x.copy(), v.copy(), y.copy(), u.copy())
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))


def test_small_band_keeps_the_difference_form():
    # an aligned state stays an exact fixed point below the large band
    spec = GaussianPeriodized(d=2, width=1.0, period=10.0)
    dom = Torus(2, 10.0)
    x = np.random.default_rng(4).uniform(0.0, 10.0, (900, 2))
    v = np.tile([0.3, -0.1], (900, 1))
    den, s, ran = sums_with_path(spec, dom, x, v, x, v)
    assert ran["small"] == 1 and ran["fourier"] == 0 and ran["direct"] == 0
    assert np.all(s == 0.0)


def test_blas_thread_count_does_not_change_bits():
    # one call per large-band product: the direct path (compact bump), the
    # Fourier path, and the Fourier path with rows sent back to the direct one
    script = """
import hashlib, numpy as np
from flockkit import CompactBump, FreeSpace, GaussianPeriodized, Torus, _kernels
rng = np.random.default_rng(6)
x = rng.uniform(0, 10, (1500, 2)); v = rng.uniform(-.5, .5, (1500, 2))
y = rng.uniform(0, 10, (900, 2)); u = rng.uniform(-.5, .5, (900, 2))
gauss, torus = GaussianPeriodized(d=2, width=1.0, period=10.0), Torus(2, 10.0)
clustered = np.mod(5.0 + 0.4 * rng.standard_normal((800, 2)), 10.0)
calls = [(CompactBump(d=2, radius=3.0), FreeSpace(2), x, v, y, u),
         (gauss, torus, x, v, y, u),
         (gauss, torus, x, v, clustered, u[:800])]
for call, path in zip(calls, ("direct", "fourier", "fourier_fallback_rows")):
    before = _kernels.path_counts[path]
    den, s = _kernels.alignment_sums(*call)
    assert _kernels.path_counts[path] > before, path
    print(hashlib.sha256(den.tobytes() + s.tobytes()).hexdigest())
assert _kernels.path_counts["fourier"] == 2 and _kernels.path_counts["direct"] == 1
"""
    src = str(Path(_kernels.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.append(out.stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]
