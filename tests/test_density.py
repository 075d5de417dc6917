import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from flockkit import (
    CompactBump,
    ConfigError,
    FieldSpec,
    FreeSpace,
    GaussianPeriodized,
    InputError,
    ParticleEnsemble,
    Plain,
    PointCloud,
    Regularized,
    Torus,
    entropy_decay_check,
    evolve_cloud,
    flow_jacobian,
    integrate,
    knn_entropy,
    moment_diagnostics,
    torus_gaussian_sampler,
)
from flockkit.cli import _build_field, _resolve_dt, build_initial_state, load_config
from flockkit.density import _chi_mass, _cumulative_simpson
from flockkit.geometry import unit_ball_volume

TORUS = Torus(2, 10.0)
GAUSS = GaussianPeriodized(d=2, width=1.0, period=10.0)
PLAIN_FIELD = FieldSpec(spec=GAUSS, mode=Plain())


def torus_cloud(n, seed=0, sigma=0.3):
    sampler = torus_gaussian_sampler(TORUS, sigma)
    w0, _ = sampler(n, np.random.default_rng(seed))
    return PointCloud(TORUS, w0[:, :2], w0[:, 2:])


def plain_curve(n=60, T=1.0, seed=1):
    cloud = torus_cloud(n, seed=seed)
    return evolve_cloud(cloud, PLAIN_FIELD, T, dt=0.005,
                        save_times=list(np.arange(0.0, T + 1e-12, 0.05)))


class TestFlowJacobian:
    def test_identity_at_time_zero(self):
        curve = plain_curve(T=0.2)
        rep = flow_jacobian((np.array([5.0, 5.0]), np.array([0.1, 0.0])), curve,
                            PLAIN_FIELD, t=0.0)
        assert rep.det_fd == pytest.approx(1.0, abs=1e-9)
        assert rep.det_theory == 1.0

    def test_plain_contraction_rate(self):
        curve = plain_curve(T=1.0)
        rng = np.random.default_rng(2)
        for _ in range(3):
            x = rng.uniform(2, 8, 2)
            v = rng.uniform(-0.4, 0.4, 2)
            rep = flow_jacobian((x, v), curve, PLAIN_FIELD, t=1.0, h=1e-4, dt=1e-3)
            assert rep.det_theory == pytest.approx(math.exp(-2.0), rel=1e-12)
            assert rep.rel_err < 1e-3

    def test_regularized_dilute_cloud_volume_preserved(self):
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Regularized(0.1))
        dilute = PointCloud(FreeSpace(2), np.array([[100.0, 100.0]]),
                            np.array([[0.0, 0.0]]))
        curve = evolve_cloud(dilute, field, T=1.0, dt=0.01)
        rep = flow_jacobian((np.zeros(2), np.array([0.3, 0.1])), curve, field,
                            t=1.0, h=1e-4, dt=1e-3)
        assert rep.det_theory == 1.0
        assert rep.det_fd == pytest.approx(1.0, abs=1e-9)

    def test_regularized_overlap_matches_path_integral(self):
        rng = np.random.default_rng(3)
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Regularized(0.1))
        cloud = PointCloud(FreeSpace(2), rng.uniform(-1.5, 1.5, (50, 2)),
                           0.4 * rng.uniform(-1, 1, (50, 2)))
        curve = evolve_cloud(cloud, field, T=1.0, dt=0.005,
                             save_times=list(np.arange(0.0, 1.01, 0.05)))
        rep = flow_jacobian((cloud.x[0] + 0.05, cloud.v[0]), curve, field,
                            t=1.0, h=1e-4, dt=1e-3)
        assert rep.det_theory < 1.0  # genuine contraction with overlap
        assert rep.rel_err < 1e-3


def brute_knn_entropy(points, k=4, box=None):
    """Reference estimate: all pair distances (minimum images on periodic axes),
    the k-th neighbour by partition, digamma as a harmonic sum."""
    pts = np.asarray(points, dtype=float)
    n, m = pts.shape
    delta = pts[:, None, :] - pts[None, :, :]
    if box is not None:
        period = np.asarray(box, dtype=float)
        for c in np.flatnonzero(period > 0.0):
            delta[:, :, c] -= period[c] * np.rint(delta[:, :, c] / period[c])
    dist2 = np.sum(np.square(delta), axis=-1)
    # row self-distance is zero, so the k-th neighbour sits at order k
    radii = np.clip(np.sqrt(np.partition(dist2, k, axis=1)[:, k]), 1e-300, None)

    def digamma_int(j):
        return -0.5772156649015328606 + float(np.sum(1.0 / np.arange(1, j)))

    return (digamma_int(n) - digamma_int(k) + math.log(unit_ball_volume(m))
            + m * float(np.mean(np.log(radii))))


def phase_points(d, n, seed, period=10.0):
    """Torus positions plus free velocities, shape (n, 2d)."""
    rng = np.random.default_rng(seed)
    return np.hstack([rng.uniform(0.0, period, (n, d)), 0.3 * rng.standard_normal((n, d))])


BOXES = {
    "free": lambda d: None,
    "periodic": lambda d: np.full(2 * d, 10.0),
    "mixed": lambda d: np.concatenate([np.full(d, 10.0), np.zeros(d)]),
}


class TestKnnEntropyOracle:
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("kind", BOXES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force(self, d, kind, k):
        pts = phase_points(d, 700, seed=10 * d + k)
        box = BOXES[kind](d)
        ref = brute_knn_entropy(pts, k, box)
        assert knn_entropy(pts, k, box) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1, 4])
    def test_unwrapped_and_boundary_coordinates(self, k):
        d = 2
        pts = phase_points(d, 600, seed=3)
        rng = np.random.default_rng(4)
        pts[:, :d] += 10.0 * rng.integers(-3, 4, (600, d))  # whole periods
        pts[:5, 0] = 10.0     # exactly at the period
        pts[5:10, 1] = 0.0
        pts[10:15, 0] = -1e-300  # np.mod rounds this up to the period
        box = BOXES["mixed"](d)
        ref = brute_knn_entropy(pts, k, box)
        assert knn_entropy(pts, k, box) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("kind", BOXES)
    def test_duplicate_points_hit_the_radius_clip(self, kind, k):
        pts = phase_points(2, 400, seed=5)
        pts[100:100 + k + 2] = pts[100]  # more than k copies: k-th radius is zero
        box = BOXES[kind](2)
        ref = brute_knn_entropy(pts, k, box)
        assert knn_entropy(pts, k, box) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_rerun_is_bit_identical(self):
        pts = phase_points(2, 3000, seed=6)
        box = BOXES["mixed"](2)
        first = knn_entropy(pts, 4, box)
        assert knn_entropy(pts.copy(), 4, box) == first
        assert knn_entropy(pts, 4, box) == first

    def test_input_is_not_modified(self):
        pts = phase_points(2, 200, seed=7)
        pts[:, :2] += 20.0
        before = pts.copy()
        knn_entropy(pts, 4, BOXES["mixed"](2))
        np.testing.assert_array_equal(pts, before)


class TestKnnEntropy:
    def test_uniform_box(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 1.0, (6000, 2))
        assert knn_entropy(pts, k=4) == pytest.approx(0.0, abs=0.05)

    def test_gaussian(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0.0, 1.0, (6000, 2))
        expected = math.log(2 * math.pi) + 1.0
        assert knn_entropy(pts, k=4) == pytest.approx(expected, abs=0.05)

    def test_periodic_uniform(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.0, 10.0, (4000, 2))
        expected = 2 * math.log(10.0)
        assert knn_entropy(pts, k=4, box=np.array([10.0, 10.0])) == pytest.approx(
            expected, abs=0.05)

    def test_needs_enough_samples(self):
        with pytest.raises(Exception):
            knn_entropy(np.zeros((3, 2)), k=4)

    def test_k_must_be_positive(self):
        with pytest.raises(InputError):
            knn_entropy(np.zeros((10, 2)), k=0)


def chi_mass_reference(d, x):
    """``P(d/2, x)`` to about 35 digits in decimal arithmetic, from the series
    ``e^-x sum_{k >= d//2} x^(b+k) / Gamma(b+k+1)`` with ``b = d/2 - d//2`` (Abramowitz &
    Stegun 6.5.29), whose terms are all positive, at the exact value of the float ``x``."""
    with localcontext() as ctx:
        ctx.prec = 40
        x, b, n = Decimal(x), Decimal(d % 2) / 2, d // 2
        pi = Decimal("3.141592653589793238462643383279502884197")
        term = 2 * (x / pi).sqrt() if b else Decimal(1)  # x^b / Gamma(b + 1)
        total, k = Decimal(0), 0
        while k <= max(n, x) or term > total * Decimal("1e-40"):
            total += term if k >= n else 0
            k += 1
            term *= x / (b + k)
        return total * (-x).exp()


# sigma and v_cap of the reference density: x = v_cap^2 / 2 sigma^2 from 0.125 to 20
CHI_GRID = [(sigma, v_cap) for sigma in (0.15, 0.2, 0.3, 0.45, 0.7, 1.0) for v_cap in (0.5, 0.95)]


class TestChiMass:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_within_16_ulps_of_the_reference(self, d):
        sides = set()
        for sigma, v_cap in CHI_GRID:
            x = v_cap**2 / (2.0 * sigma**2)
            reference = chi_mass_reference(d, x)
            if reference < Decimal("1e-3"):  # refused by the sampler
                continue
            sides.add(x < d / 2.0 + 1.0)  # the series below a + 1, the complement above
            ulps = abs(Decimal(_chi_mass(d, x)) - reference) / Decimal(np.spacing(float(reference)))
            assert ulps <= 16, (d, sigma, v_cap, float(ulps))
        assert sides == {True, False}

    def test_reference_agrees_with_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for d in range(1, 7):
            for sigma, v_cap in CHI_GRID:
                x = v_cap**2 / (2.0 * sigma**2)
                exact = mpmath.gammainc(mpmath.mpf(d) / 2, 0, x, regularized=True)
                assert abs(mpmath.mpf(str(chi_mass_reference(d, x))) / exact - 1) < 1e-28

    def test_shipped_default_keeps_the_bits_of_gammainc(self):
        # scipy.special.gammainc(1.0, x) at sigma = 0.3, v_cap = 0.95, the density of every
        # shipped kinetic config
        mass = _chi_mass(2, 0.95**2 / (2.0 * 0.3**2))
        assert np.float64(mass).tobytes() == np.float64(0.9933549887172586).tobytes()

    @pytest.mark.parametrize("d", range(1, 7))
    def test_ends_of_the_range(self, d):
        assert _chi_mass(d, 0.0) == 0.0
        assert _chi_mass(d, math.inf) == 1.0

    @pytest.mark.parametrize("sigma,v_cap,message", [
        (0.3, 1e-300, r"^v_cap = 1e-300 makes the acceptance mass zero or not finite$"),
        (1e3, 0.95, r"acceptance mass of 4\.51e-07, below 0\.001"),
    ])
    def test_vanishing_mass_refused(self, sigma, v_cap, message):
        with pytest.raises(InputError, match=message):
            torus_gaussian_sampler(TORUS, sigma=sigma, v_cap=v_cap)


class TestSampler:
    def test_samples_respect_caps_and_density(self):
        sampler = torus_gaussian_sampler(TORUS, sigma=0.3, v_cap=0.95)
        w0, logf = sampler(5000, np.random.default_rng(7))
        x, v = w0[:, :2], w0[:, 2:]
        assert np.all(x >= 0.0) and np.all(x < 10.0)
        speeds = np.sqrt(np.sum(v**2, axis=1))
        assert float(speeds.max()) <= 0.95
        # log-density normalizes: E[1/f] over samples of f-weighted draws is
        # the phase-space volume of the support
        volume_est = float(np.mean(np.exp(-logf)))
        volume = 100.0 * math.pi * 0.95**2
        assert volume_est == pytest.approx(volume, rel=0.1)

    def test_deterministic_for_fixed_seed(self):
        sampler = torus_gaussian_sampler(TORUS, sigma=0.3)
        a, _ = sampler(100, np.random.default_rng(8))
        b, _ = sampler(100, np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)


class TestEntropyDecay:
    def test_time_zero_estimates_agree(self):
        curve = plain_curve(T=0.2)
        sampler = torus_gaussian_sampler(TORUS, sigma=0.3)
        rows = entropy_decay_check(sampler, curve, PLAIN_FIELD, t_list=[0.0],
                                   M=4000, dt=0.01, rng=np.random.default_rng(9))
        assert len(rows) == 1
        assert rows[0].H_knn == pytest.approx(rows[0].H_transport, abs=0.05)

    def test_plain_transport_estimate_is_exactly_linear(self):
        curve = plain_curve(T=1.0)
        sampler = torus_gaussian_sampler(TORUS, sigma=0.3)
        rows = entropy_decay_check(sampler, curve, PLAIN_FIELD,
                                   t_list=[0.25, 0.5, 1.0], M=500, dt=0.0125,
                                   rng=np.random.default_rng(10))
        h0 = rows[0].H_transport + 2.0 * 0.25
        for row in rows:
            assert row.H_transport == pytest.approx(h0 - 2.0 * row.t, abs=1e-12)
            assert row.mean_overlap == pytest.approx(1.0)

    def test_small_sample_count_rejected(self):
        curve = plain_curve(T=0.2)
        sampler = torus_gaussian_sampler(TORUS, sigma=0.3)
        with pytest.raises(ConfigError):
            entropy_decay_check(sampler, curve, PLAIN_FIELD, t_list=[0.1], M=50,
                                dt=0.01)

    def test_regularized_dilute_limit_rate_vanishes(self):
        # without overlap the regularized transport entropy stays constant
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Regularized(0.1))
        far = PointCloud(FreeSpace(2), np.array([[500.0, 500.0]]),
                         np.array([[0.0, 0.0]]))
        curve = evolve_cloud(far, field, T=0.4, dt=0.01)

        def sampler(m, rng):
            x = rng.uniform(0.0, 2.0, (m, 2))
            v = 0.3 * rng.standard_normal((m, 2)).clip(-0.9, 0.9)
            logf = np.full(m, -math.log(4.0))  # velocity part constant enough
            return np.hstack([x, v]), logf

        rows = entropy_decay_check(sampler, curve, field, t_list=[0.2, 0.4],
                                   M=200, dt=0.01, rng=np.random.default_rng(3))
        assert rows[0].mean_overlap <= 1e-12
        assert rows[1].H_transport == pytest.approx(rows[0].H_transport, abs=1e-12)


class TestMomentDiagnostics:
    def test_rest_state_constant_moments(self):
        w0 = ParticleEnsemble(FreeSpace(2), np.zeros((4, 2)), np.zeros((4, 2)))
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=1.0, dt=0.01)
        rep = moment_diagnostics(traj)
        assert rep.ma1_max_err <= 1e-15
        assert rep.max_second_moment_increase <= 0.0
        np.testing.assert_array_equal(rep.second_moment, np.zeros(len(rep.times)))

    def test_free_particle_identity_exact(self):
        w0 = ParticleEnsemble(FreeSpace(2), np.zeros((1, 2)), np.array([[0.4, -0.3]]))
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=2.0, dt=0.01)
        rep = moment_diagnostics(traj)
        assert rep.ma1_max_err <= 1e-12
        assert rep.max_second_moment_increase <= 1e-15

    def test_interacting_cluster(self):
        rng = np.random.default_rng(11)
        q = 0.5 * rng.standard_normal((10, 2))
        p = 0.5 * rng.standard_normal((10, 2))
        w0 = ParticleEnsemble(FreeSpace(2), q, p)
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=2.0, dt=0.002,
                         save_every=10)
        rep = moment_diagnostics(traj)
        assert rep.max_second_moment_increase <= 1e-9
        # quadrature over the saved frames: fourth order in the frame spacing
        frame_h = 0.002 * 10
        assert rep.ma1_max_err <= 100.0 * 2.0 * frame_h**4 + 1e-12

    def test_torus_uses_unwrapped_positions(self):
        dom = Torus(2, 5.0)
        w0 = ParticleEnsemble(dom, np.array([[4.5, 2.0]]), np.array([[1.0, 0.0]]))
        traj = integrate(w0, GaussianPeriodized(d=2, width=1.0, period=5.0),
                         Plain(), T=1.0, dt=0.01)
        rep = moment_diagnostics(traj)
        assert rep.ma1_max_err <= 1e-12
        assert rep.mean_position[-1][0] == pytest.approx(5.5, abs=1e-12)


def saved_times(frames, dt, save_every, last_steps):
    """The frame times of ``integrate``: every ``save_every``-th step, then ``T``."""
    n_steps = (frames - 2) * save_every + last_steps
    return np.array([k * save_every * dt for k in range(frames - 1)] + [n_steps * dt])


class TestCumulativeSimpsonPort:
    """The in-package rule has the bits of ``scipy.integrate.cumulative_simpson``."""

    @pytest.mark.parametrize("tail", [(), (1,), (2,), (3,)], ids=["n", "n1", "n2", "n3"])
    @pytest.mark.parametrize("frames", [2, 3, 4, 5, 6, 7, 8, 11, 30, 31, 59, 60])
    def test_bits_equal_scipy(self, frames, tail):
        rng = np.random.default_rng([frames, len(tail)])
        grids = [np.cumsum(np.r_[0.0, rng.uniform(0.01, 1.0, frames - 1)])]
        for dt, save_every in [(0.01, 1), (0.002, 10), (1e-3, 50), (0.0125, 7)]:
            for last_steps in sorted({1, save_every // 2 + 1, save_every}):
                grids.append(saved_times(frames, dt, save_every, last_steps))
        for t in grids:
            y = rng.standard_normal((frames, *tail))
            expected = cumulative_simpson(y, x=t, axis=0, initial=0.0)
            got = _cumulative_simpson(y, t)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_shipped_simulate_moment_error_keeps_its_bits(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "simulate.cfg")
        domain, field = _build_field(cfg)
        w0 = build_initial_state(cfg, domain, field.spec)
        traj = integrate(w0, field.spec, field.mode, T=cfg.get("dynamics", "t"),
                         dt=_resolve_dt(cfg, field.spec, w0),
                         save_every=cfg.get("run", "save_every"))
        mean_x = traj.q_raw.mean(axis=1)
        integral = cumulative_simpson(traj.p.mean(axis=1), x=traj.times, axis=0, initial=0.0)
        expected = float(np.max(np.abs(mean_x - mean_x[0] - integral)))
        assert moment_diagnostics(traj).ma1_max_err.hex() == expected.hex()
