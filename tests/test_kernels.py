"""Oracle tests of the pair-sum paths in ``flockkit._kernels``.

Every path is compared with a ``math.fsum`` direct sum on sampled rows:
``den`` relatively, and ``s`` relative to ``sum_j U_ij (|u_j| + |v_i|)``,
the scale that bounds its terms.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from flockkit import (CompactBump, FreeSpace, GaussianPeriodized, InputError, LogGradBounded,
                      Torus, _kernels, geometry)

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
    assert ran[path] == 1
    assert ran["direct" if path == "fourier" else "fourier"] == 0
    rows = np.random.default_rng(1).choice(n, size=24, replace=False)
    assert oracle_error(spec, dom, x, v, y, u, den, s, rows) <= RTOL


# Fourier calls at the sizes the kernels run at, (d, w/D, n, m), all but the
# last below 1e6 pairs: "c10" is the w = 2, D = 5 Picard cloud of C10 and
# "entropy" the characteristics of 4000 samples against a 256-point curve
SMALL_FOURIER = {
    "d1_256": (1, 0.1, 256, 256), "d2_256": (2, 0.1, 256, 256), "d3_256": (3, 0.3, 256, 256),
    "c10": (2, 0.4, 200, 200), "entropy": (2, 0.1, 4000, 256),
}


@pytest.mark.parametrize("case", SMALL_FOURIER)
def test_fourier_at_every_size_matches_fsum(case):
    d, ratio, n, m = SMALL_FOURIER[case]
    spec, dom, x, v, y, u = uniform_case(d, ratio, n, m, seed=31 + d)
    den, s, ran = sums_with_path(spec, dom, x, v, y, u)
    assert ran["fourier"] == 1 and ran["direct"] == 0 and ran["fourier_fallback_rows"] == 0
    rows = np.random.default_rng(3).choice(n, size=24, replace=False)
    assert oracle_error(spec, dom, x, v, y, u, den, s, rows) <= RTOL


@pytest.mark.parametrize("d,ratio", [(2, 0.1), (3, 0.3)])
def test_fourier_row_chunks_match_one_chunk(d, ratio, monkeypatch):
    # with 8000 chunk elements the row chunks are 142 rows (two blocks of 71)
    # at d = 2, K = 13 and 224 rows (eight blocks of 28) at d = 3, K = 5, so
    # 400 targets and 300 sources take several chunks and end in a partial block
    spec, dom, x, v, y, u = uniform_case(d, ratio, 400, 300, seed=41 + d)
    whole = sums_with_path(spec, dom, x, v, y, u)
    monkeypatch.setattr(_kernels, "_CHUNK_ELEMS", 8000)
    den, s, ran = sums_with_path(spec, dom, x, v, y, u)
    assert ran["fourier"] == 1 and ran["direct"] == 0 and ran["fourier_fallback_rows"] == 0
    assert den.tobytes() == whole[0].tobytes() and s.tobytes() == whole[1].tobytes()
    rows = np.concatenate([np.arange(0, 400, 23), [141, 142, 399]])
    assert oracle_error(spec, dom, x, v, y, u, den, s, rows) <= RTOL


@pytest.mark.parametrize("d,ratio", [k for k, p in EXPECTED_PATH.items() if p == "fourier"])
def test_fourier_error_constant(d, ratio):
    # the precision floor assumes |error| <= _FOURIER_ERR * eps * u0 * sum_j |col_j|
    # for den (col = 1) and for s (col = u_c - c_c, with the (v_c - c_c) den
    # term), the columns centred on the first source velocity c
    spec, dom, x, v, y, u = uniform_case(d, ratio, 1200, 900, seed=5 + d)
    den, s, _ = _kernels._fourier_sums(spec, spec._fourier_modes, x, v, y, u)
    m = y.shape[0]
    c = u[0]
    worst = 0.0
    for i in np.random.default_rng(2).choice(x.shape[0], size=40, replace=False):
        den_ref, s_ref, _ = fsum_row(spec, dom.size, x[i], v[i], y, u)
        worst = max(worst, abs(den[i] - den_ref) / (EPS * spec.u0 * m))
        bound = EPS * spec.u0 * (np.abs(u - c).sum(axis=0) + np.abs(v[i] - c) * m)
        worst = max(worst, float(np.max(np.abs(s[i] - s_ref) / bound)))
    assert worst <= _kernels._FOURIER_ERR


@pytest.mark.parametrize("d,ratio,k_max", [(3, 0.3, 5), (2, 0.1, 13), (1, 0.05, 26)])
def test_factors_match_direct_trig(d, ratio, k_max):
    # K = 26 is the largest mode count the router admits; the recurrence's
    # error grows like k eps, so it is held to 3 K eps
    period = 10.0
    spec = GaussianPeriodized(d=d, width=ratio * period, period=period)
    assert len(spec._fourier_modes) == k_max + 1
    rng = np.random.default_rng(9 + d)
    x = rng.uniform(-period, 2.0 * period, (3000, d))
    x[:3] = [[0.5 * period] * d, [-0.5 * period] * d, [1.5 * period] * d]  # phase ends
    x[3] = 0.0
    f = _kernels._factors(x, period, k_max)
    assert f.shape == (d, x.shape[0], 2 * k_max + 1)
    assert np.all(f[:, :, 0] == 1.0)
    omega = 2.0 * math.pi / period
    xt = x.T - period * np.rint(x.T / period)
    assert f[:, :, 1].tobytes() == np.cos(omega * xt).tobytes()
    assert f[:, :, k_max + 1].tobytes() == np.sin(omega * xt).tobytes()
    assert f[:, 3].tolist() == [[1.0] * (k_max + 1) + [0.0] * k_max] * d
    arg = xt[:, :, None] * (omega * np.arange(1, k_max + 1))
    err = max(np.abs(f[:, :, 1:k_max + 1] - np.cos(arg)).max(),
              np.abs(f[:, :, k_max + 1:] - np.sin(arg)).max())
    assert err <= 3 * k_max * EPS


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


@pytest.mark.parametrize("ratio,k_max", [(0.22, 6), (0.19, 7)])
def test_fourier_products_fit_one_blas_thread(ratio, k_max):
    # at d = 4 one target row's product with R takes 13^4 * 9 multiply-adds
    # for K = 6, within _PRODUCT_MACS, and 15^4 * 9 for K = 7, beyond it
    spec, dom = GaussianPeriodized(d=4, width=10.0 * ratio, period=10.0), Torus(4, 10.0)
    assert len(spec._fourier_modes) - 1 == k_max
    modes = _kernels._fourier_modes_for(spec, dom, 4000, 4000)
    assert (modes is not None) == ((2 * k_max + 1) ** 4 * 9 <= _kernels._PRODUCT_MACS)


def test_direct_gaussian_sums_use_the_kernel_table():
    # one wrapped-Gaussian evaluator: a direct large-band call sums exactly the
    # entries of kernel_table (2 w^2 = 0.72 is not a power of two, and the
    # torus side is not the period, so the Fourier path is ruled out)
    rng = np.random.default_rng(11)
    spec, dom = GaussianPeriodized(d=2, width=0.6, period=5.0), Torus(2, 10.0)
    x = rng.uniform(0.0, 10.0, (1100, 2))
    v = rng.uniform(-0.5, 0.5, (1100, 2))
    y = rng.uniform(0.0, 10.0, (1000, 2))
    u = rng.uniform(-0.5, 0.5, (1000, 2))
    den, _, ran = sums_with_path(spec, dom, x, v, y, u)
    assert ran["direct"] == 1 and ran["fourier"] == 0
    table = _kernels.kernel_table(spec, dom, x, y)
    assert den.tobytes() == table.sum(axis=1).tobytes()


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


def loop_mode_count(a):
    """The smallest ``K >= 1`` with ``exp(-a K^2) < 1e-14``, counted one mode at a time."""
    k_max = 1
    while math.exp(-a * k_max * k_max) >= 1e-14:
        k_max += 1
    return k_max


@pytest.mark.parametrize("period", [1.0, 5.0, 7.3, 10.0])
def test_closed_form_mode_count_matches_the_loop(period):
    # from K = 1 through the cap at K = 43,690; narrower widths build no coefficients
    seen_cap = seen_under = 0
    for width in np.geomspace(1e-5 * period, 0.3 * period, 250):
        spec = GaussianPeriodized(d=1, width=float(width), period=period)
        k_loop = loop_mode_count(spec._mode_exponent)
        modes = spec._fourier_modes
        if k_loop > geometry._MODE_CAP:
            assert modes is None
            seen_cap += 1
        else:
            assert len(modes) - 1 == k_loop
            seen_under += 1
    assert seen_cap and seen_under


def test_mode_cap_is_the_widest_fourier_product():
    # the widths whose tail rule gives K = cap and K = cap + 1
    cap = geometry._MODE_CAP
    for k_max in (cap, cap + 1):
        a = -math.log(1e-14) / (k_max - 0.5) ** 2
        spec = GaussianPeriodized(d=1, width=10.0 * math.sqrt(a / (2.0 * math.pi**2)), period=10.0)
        assert loop_mode_count(spec._mode_exponent) == k_max
        modes = spec._fourier_modes
        assert (modes is None) if k_max > cap else (len(modes) == cap + 1)


def test_narrow_gaussian_builds_and_sums_directly():
    # K would be about 1.3e9 at w = 1e-8 on the 10-torus (a 10 GB coefficient array)
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 10.0, (20, 1))
    v = rng.uniform(-0.5, 0.5, (20, 1))
    start = time.perf_counter()
    spec = GaussianPeriodized(d=1, width=1e-8, period=10.0)
    assert spec._fourier_modes is None
    den, s, ran = sums_with_path(spec, Torus(1, 10.0), x, v, x, v)
    assert time.perf_counter() - start < 1.0
    assert ran["direct"] == 1 and ran["fourier"] == 0
    assert oracle_error(spec, Torus(1, 10.0), x, v, x, v, den, s, range(20)) <= RTOL


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
    assert ran["direct"] == 1 and ran["fourier"] == 0
    assert oracle_error(spec, dom, x, v, y, u, den, s, range(0, x.shape[0], 4)) <= RTOL


@pytest.mark.parametrize("family", SMALL_FAMILIES)
def test_small_band_rerun_gives_the_same_bits(family):
    spec, dom, x, v, y, u = small_case(family, 2, "torus", "rectangular")
    first = _kernels.alignment_sums(spec, dom, x, v, y, u)
    again = _kernels.alignment_sums(spec, dom, x.copy(), v.copy(), y.copy(), u.copy())
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))


GAUSS_W1, TORUS_10 = GaussianPeriodized(d=2, width=1.0, period=10.0), Torus(2, 10.0)
# case -> (n, spec, domain, the path the call takes); the Fourier path's fixed
# cost per call keeps N <= 150 at w = 1, D = 10 direct (the particle runs'
# N = 50 Gaussian calls), and every N = 20 bump call is direct
ALIGNED_CASES = {
    "gaussian_n50": (50, GAUSS_W1, TORUS_10, "direct"),
    "gaussian_n150": (150, GAUSS_W1, TORUS_10, "direct"),
    "bump_n20": (20, CompactBump(d=2, radius=1.0), FreeSpace(2), "direct"),
    "gaussian_n200": (200, GAUSS_W1, TORUS_10, "fourier"),
    "gaussian_small": (900, GAUSS_W1, TORUS_10, "fourier"),
    "gaussian_fourier_large": (1100, GAUSS_W1, TORUS_10, "fourier"),
    "bump_large": (1100, CompactBump(d=2, radius=3.0), FreeSpace(2), "direct"),
    "gaussian_large": (1100, GaussianPeriodized(d=2, width=0.6, period=5.0), TORUS_10,
                       "direct"),
}


@pytest.mark.parametrize("case", ALIGNED_CASES)
def test_aligned_state_is_an_exact_fixed_point(case):
    # both paths are centred on a source velocity, so an aligned state gives
    # s == 0 exactly on either path, below and above 1e6 pairs
    n, spec, dom, path = ALIGNED_CASES[case]
    x = np.random.default_rng(4).uniform(0.0, 10.0, (n, 2))
    v = np.tile([0.3, -0.1], (n, 1))
    den, s, ran = sums_with_path(spec, dom, x, v, x, v)
    assert ran[path] == 1 and ran["direct" if path == "fourier" else "fourier"] == 0
    assert np.all(s == 0.0)


@pytest.mark.parametrize("n,m", [(0, 5), (5, 0)])
def test_empty_point_sets_rejected(n, m):
    rng = np.random.default_rng(12)
    x, v = rng.uniform(0.0, 6.0, (n, 2)), rng.uniform(-0.5, 0.5, (n, 2))
    y, u = rng.uniform(0.0, 6.0, (m, 2)), rng.uniform(-0.5, 0.5, (m, 2))
    with pytest.raises(InputError, match="at least one target and one source"):
        _kernels.alignment_sums(CompactBump(d=2, radius=3.0), FreeSpace(2), x, v, y, u)


def test_blas_thread_count_does_not_change_bits():
    # one call per product: the direct path (compact bump, below and above
    # 1e6 pairs), the Fourier path (above and below 1e6 pairs), and the
    # Fourier path with rows sent back to the direct one
    script = """
import hashlib, numpy as np
from flockkit import CompactBump, FreeSpace, GaussianPeriodized, Torus, _kernels
rng = np.random.default_rng(6)
x = rng.uniform(0, 10, (1500, 2)); v = rng.uniform(-.5, .5, (1500, 2))
y = rng.uniform(0, 10, (900, 2)); u = rng.uniform(-.5, .5, (900, 2))
gauss, torus = GaussianPeriodized(d=2, width=1.0, period=10.0), Torus(2, 10.0)
clustered = np.mod(5.0 + 0.4 * rng.standard_normal((800, 2)), 10.0)
calls = [(CompactBump(d=2, radius=3.0), FreeSpace(2), x[:300], v[:300], y, u),
         (CompactBump(d=2, radius=3.0), FreeSpace(2), x, v, y, u),
         (gauss, torus, x, v, y, u),
         (gauss, torus, x[:256], v[:256], y[:256], u[:256]),
         (gauss, torus, x, v, clustered, u[:800])]
paths = ("direct", "direct", "fourier", "fourier", "fourier_fallback_rows")
for call, path in zip(calls, paths):
    before = _kernels.path_counts[path]
    den, s = _kernels.alignment_sums(*call)
    assert _kernels.path_counts[path] > before, path
    print(hashlib.sha256(den.tobytes() + s.tobytes()).hexdigest())
assert _kernels.path_counts["fourier"] == 3 and _kernels.path_counts["direct"] == 2
"""
    src = str(Path(_kernels.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.append(out.stdout.split())
    assert len(digests[0]) == 5
    assert digests[0] == digests[1]
