import numpy as np
import pytest

from flockkit import (
    CompactBump,
    FreeSpace,
    GaussianPeriodized,
    InputError,
    LogGradBounded,
    NumericalError,
    ParticleEnsemble,
    Plain,
    Trajectory,
    Regularized,
    Torus,
    barycenter_project,
    check_mean_velocity_ball,
    check_velocity_ball,
    dist_to_manifold,
    integrate,
    rhs,
)
from flockkit._kernels import alignment_sums, kernel_table
from flockkit.dynamics import _frame_metrics, _max_speed, _rhs_arrays, default_dt
from flockkit.geometry import wrap_positions


def cluster_state(n=8, d=2, speed=0.5, seed=0, spread=0.6):
    rng = np.random.default_rng(seed)
    q = spread * rng.standard_normal((n, d))
    p = rng.standard_normal((n, d))
    p *= speed * rng.uniform(0.2, 1.0, n)[:, None] / np.sqrt(np.sum(p**2, axis=1))[:, None]
    return ParticleEnsemble(FreeSpace(d), q, p)


class TestRhs:
    def test_aligned_state_has_zero_acceleration_exactly(self):
        dom = FreeSpace(2)
        rng = np.random.default_rng(1)
        state = ParticleEnsemble(dom, rng.standard_normal((6, 2)),
                                 np.tile([0.3, -0.4], (6, 1)))
        _, dp = rhs(state, CompactBump(d=2, radius=1.0))
        assert np.all(dp == 0.0)

    def test_two_overlapping_particles(self):
        dom = FreeSpace(2)
        state = ParticleEnsemble(dom, np.zeros((2, 2)),
                                 np.array([[1.0, 0.0], [0.0, 0.0]]))
        _, dp = rhs(state, CompactBump(d=2, radius=1.0))
        np.testing.assert_allclose(dp[0], [-0.5, 0.0])
        np.testing.assert_allclose(dp[1], [0.5, 0.0])

    def test_beyond_compact_support_no_interaction(self):
        dom = FreeSpace(2)
        state = ParticleEnsemble(dom, np.array([[0.0, 0.0], [5.0, 0.0]]),
                                 np.array([[1.0, 0.0], [-1.0, 0.0]]))
        _, dp = rhs(state, CompactBump(d=2, radius=1.0))
        np.testing.assert_array_equal(dp, np.zeros((2, 2)))

    def test_dq_is_velocity(self):
        state = cluster_state()
        dq, _ = rhs(state, CompactBump(d=2, radius=1.0))
        np.testing.assert_array_equal(dq, state.p)

    def test_regularized_shrinks_acceleration(self):
        state = cluster_state(seed=2)
        spec = CompactBump(d=2, radius=1.0)
        _, dp_plain = rhs(state, spec, Plain())
        _, dp_reg = rhs(state, spec, Regularized(0.5))
        assert np.all(np.sqrt((dp_reg**2).sum(1)) <= np.sqrt((dp_plain**2).sum(1)) + 1e-15)

    def test_non_finite_input_rejected(self):
        dom = FreeSpace(2)
        with pytest.raises(InputError):
            ParticleEnsemble(dom, np.array([[np.nan, 0.0]]), np.zeros((1, 2)))


class TestIntegrate:
    def test_free_streaming_single_particle(self):
        dom = FreeSpace(2)
        w0 = ParticleEnsemble(dom, np.zeros((1, 2)), np.array([[0.5, 0.25]]))
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=2.0, dt=0.01)
        np.testing.assert_allclose(traj.q[-1], [[1.0, 0.5]], atol=1e-13)
        np.testing.assert_array_equal(traj.p[-1], w0.p)

    def test_manifold_invariance(self):
        dom = FreeSpace(2)
        rng = np.random.default_rng(3)
        w0 = ParticleEnsemble(dom, 0.5 * rng.standard_normal((10, 2)),
                              np.tile([0.2, 0.6], (10, 1)))
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=5.0, dt=0.01)
        assert max(r.dist_to_manifold for r in traj.metrics) <= 1e-12
        np.testing.assert_allclose(traj.p[-1], w0.p, atol=1e-12)

    def test_torus_positions_stay_wrapped(self):
        dom = Torus(2, 5.0)
        w0 = ParticleEnsemble(dom, np.array([[4.5, 2.0]]), np.array([[1.0, 0.0]]))
        spec = GaussianPeriodized(d=2, width=1.0, period=5.0)
        traj = integrate(w0, spec, Plain(), T=1.0, dt=0.01, save_every=10)
        assert np.all(traj.q >= 0.0) and np.all(traj.q < 5.0)
        # unwrapped coordinates keep the drift across the seam
        np.testing.assert_allclose(traj.q_raw[-1], [[5.5, 2.0]], atol=1e-12)
        np.testing.assert_allclose(traj.q[-1], [[0.5, 2.0]], atol=1e-12)

    def test_step_halving_fourth_order(self):
        w0 = cluster_state(seed=5)
        spec = LogGradBounded(d=2, decay=1.0)
        ref = integrate(w0, spec, Plain(), T=1.0, dt=1.0 / 1280, save_every=1280)
        errs = []
        for dt in (1.0 / 40, 1.0 / 80):
            traj = integrate(w0, spec, Plain(), T=1.0, dt=dt, save_every=100000)
            errs.append(np.max(np.abs(traj.p[-1] - ref.p[-1]))
                        + np.max(np.abs(traj.q[-1] - ref.q[-1])))
        ratio = errs[0] / errs[1]
        assert 10.0 <= ratio <= 24.0

    def test_euler_oracle_agreement(self):
        # tiny-step first-order reference stays within its own error budget
        w0 = cluster_state(n=5, seed=6)
        spec = LogGradBounded(d=2, decay=1.0)
        dt = 0.01
        traj = integrate(w0, spec, Plain(), T=0.5, dt=dt, save_every=100000)

        q, p = w0.q.copy(), w0.p.copy()
        h = dt / 100.0
        from flockkit.dynamics import _rhs_arrays
        for _ in range(int(round(0.5 / h))):
            dp = _rhs_arrays(q, p, w0.domain, spec, 0.0)
            q = q + h * p
            p = p + h * dp
        assert np.max(np.abs(traj.q[-1] - q)) < 5e-4
        assert np.max(np.abs(traj.p[-1] - p)) < 5e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_raises_numerical_error_naming_step(self, monkeypatch):
        # a finite start whose accelerations of 1e308 overflow the first increment
        import flockkit.dynamics as dynamics
        w0 = ParticleEnsemble(FreeSpace(2), np.zeros((2, 2)), np.zeros((2, 2)))
        monkeypatch.setattr(dynamics, "alignment_sums",
                            lambda *args: (np.ones(2), np.full((2, 2), 1e308)))
        with pytest.raises(NumericalError, match=r"non-finite state at step 1 \(t = 0\.1\)"):
            integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=1.0, dt=0.1)

    def test_stage_error_names_step_and_time(self, monkeypatch):
        import flockkit.dynamics as dynamics
        w0 = ParticleEnsemble(FreeSpace(2), np.zeros((2, 2)), np.zeros((2, 2)))
        monkeypatch.setattr(dynamics, "alignment_sums",
                            lambda *args: (np.zeros(2), np.zeros((2, 2))))
        with pytest.raises(NumericalError, match=r"underflowed.*RK4 stage of step 1 \(t = 0\.1\)"):
            integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=1.0, dt=0.1)

    def test_horizon_off_the_step_grid_rejected(self):
        # T = 1, dt = 0.3 used to stop at t = 0.9
        w0 = cluster_state()
        with pytest.raises(InputError, match=r"T = 1\.0 .* dt = 0\.3"):
            integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=1.0, dt=0.3)

    def test_horizon_on_the_step_grid_ends_at_t(self):
        w0 = cluster_state()
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=1.0, dt=0.25)
        assert traj.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert traj.metrics[-1].t == 1.0

    def test_horizon_far_below_one_step_rejected(self):
        # T = 1, dt = 1e10 used to return only the t = 0 frame
        w0 = cluster_state()
        with pytest.raises(InputError, match=r"T = 1\.0 .* dt = 10000000000\.0"):
            integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=1.0, dt=1e10)

    def test_zero_horizon_keeps_the_initial_frame(self):
        w0 = cluster_state()
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=0.0, dt=1e10)
        assert traj.times.tolist() == [0.0]
        np.testing.assert_array_equal(traj.p[-1], w0.p)

    @pytest.mark.parametrize("save_every", [2.5, True, 0, -3, "5"])
    def test_save_every_must_be_a_positive_integer(self, save_every):
        # 2.5 used to save every 5th step and True every step, without an error
        with pytest.raises(InputError, match=rf"save_every .*got {save_every!r}"):
            integrate(cluster_state(), CompactBump(d=2, radius=1.0), Plain(), T=0.1, dt=0.01,
                      save_every=save_every)

    def test_save_every_takes_numpy_integers(self):
        w0, spec = cluster_state(), CompactBump(d=2, radius=1.0)
        traj = integrate(w0, spec, Plain(), T=0.1, dt=0.01, save_every=np.int64(5))
        ref = integrate(w0, spec, Plain(), T=0.1, dt=0.01, save_every=5)
        assert traj.times.tolist() == ref.times.tolist() and len(traj.times) == 3

    def test_invalid_grid(self):
        w0 = cluster_state()
        with pytest.raises(InputError):
            integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=1.0, dt=0.0)
        with pytest.raises(InputError):
            integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=-1.0, dt=0.1)

    def test_default_dt_rule(self):
        w0 = cluster_state(speed=0.5, seed=7)
        spec = CompactBump(d=2, radius=2.0)
        dt = default_dt(spec, w0)
        assert dt == pytest.approx(1e-3 * 2.0 / w0.max_speed())


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_integrate(w0, spec, eps, T, dt):
    """The step loop as it was written before the stage buffers: separate position and
    velocity updates, ``s / (den + eps)`` and the one-chunk direct sums with ``w.sum``,
    and the max speed by ``np.sum`` over the row."""
    domain = w0.domain

    def accel(x, v):
        w = kernel_table(spec, domain, x)
        den = w.sum(axis=1)
        c = v[0]
        s = w @ (v - c) - (v - c) * den[:, None]
        return s / (den + eps)[:, None]

    def max_speed(p):
        return float(np.sqrt(np.max(np.sum(np.square(p), axis=1))))

    h = dt
    q_raw, p = w0.q, w0.p
    q = wrap_positions(domain, q_raw)
    frames, top = [(q, p, q_raw)], max_speed(p)
    for _ in range(int(round(T / dt))):
        x, v = q, p
        k1 = accel(x, v)
        v2 = v + 0.5 * h * k1
        k2 = accel(x + 0.5 * h * v, v2)
        v3 = v + 0.5 * h * k2
        k3 = accel(x + 0.5 * h * v2, v3)
        v4 = v + h * k3
        k4 = accel(x + h * v3, v4)
        dx = (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        dv = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        q_raw = q_raw + dx
        q = wrap_positions(domain, q + dx)
        p = p + dv
        top = max(top, max_speed(p))
        frames.append((q, p, q_raw))
    return frames, top


class TestLeanStepBits:
    """The lean step forms have the bits of the expressions they replace."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_max_speed(self, d):
        rng = np.random.default_rng(d)
        p = rng.standard_normal((9, d)) * np.logspace(-170, 150, 9)[:, None]
        p[[2, 5]] = 0.0
        # equal-scale rows: the order of the coordinate sum shows in the last bit
        cases = [p, np.zeros((4, d)), p[:1], -p] + [rng.standard_normal((3, d))
                                                     for _ in range(200)]
        for case in cases:
            ref = np.sqrt(np.max(np.sum(np.square(case), axis=1)))
            assert same_bits(_max_speed(case), ref)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.37])
    def test_rhs_arrays(self, eps):
        w0 = cluster_state(n=12, seed=4)
        for spec in (CompactBump(d=2, radius=1.0), LogGradBounded(d=2, decay=0.7)):
            den, s = alignment_sums(spec, w0.domain, w0.q, w0.p, w0.q, w0.p)
            got = _rhs_arrays(w0.q, w0.p, w0.domain, spec, eps)
            assert same_bits(got, s / (den + eps)[:, None])

    @pytest.mark.parametrize("mode", [Plain(), Regularized(0.1)], ids=["plain", "regularized"])
    @pytest.mark.parametrize("family", ["bump", "loggrad", "gaussian"])
    def test_integrate_matches_the_reference_stepper(self, family, mode):
        rng = np.random.default_rng(17)
        if family == "gaussian":
            dom, spec = Torus(2, 10.0), GaussianPeriodized(d=2, width=1.0, period=10.0)
            # a cluster at the corner moving out across both seams
            q = np.mod(9.6 + 0.5 * rng.standard_normal((10, 2)), 10.0)
            p = 1.5 + 0.3 * rng.standard_normal((10, 2))
        else:
            dom = FreeSpace(2)
            spec = CompactBump(d=2, radius=1.0) if family == "bump" else LogGradBounded(d=2)
            q, p = 0.6 * rng.standard_normal((10, 2)), rng.standard_normal((10, 2))
        w0 = ParticleEnsemble(dom, q, p)
        traj = integrate(w0, spec, mode, T=0.4, dt=0.002)
        frames, top = reference_integrate(w0, spec, mode.epsilon, T=0.4, dt=0.002)
        assert traj.n_frames == len(frames) == 201
        for k, (qk, pk, rawk) in enumerate(frames):
            assert same_bits(traj.q[k], qk) and same_bits(traj.p[k], pk), k
            assert same_bits(traj.q_raw[k], rawk), k
        assert same_bits(traj.max_speed_overall, top)
        if family == "gaussian":
            assert np.any(traj.q_raw[-1] >= 10.0)  # the seam was crossed


class TestBarycenterProjector:
    def test_fixes_constant_rows(self):
        p = np.tile([1.0, 2.0], (4, 1))
        np.testing.assert_array_equal(barycenter_project(p), p)

    def test_two_row_average(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(barycenter_project(p), [[0.5, 0.5], [0.5, 0.5]])

    def test_idempotent_and_contractive(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = rng.standard_normal((7, 3))
            proj = barycenter_project(p)
            np.testing.assert_allclose(barycenter_project(proj), proj, atol=1e-15)
            assert np.sqrt(np.sum(proj**2)) <= np.sqrt(np.sum(p**2)) + 1e-12


class TestDistToManifold:
    def test_zero_on_manifold(self):
        state = ParticleEnsemble(FreeSpace(2), np.zeros((3, 2)),
                                 np.tile([0.1, 0.2], (3, 1)))
        # exact up to the rounding of the row mean
        assert dist_to_manifold(state) <= 1e-15

    def test_two_particle_value(self):
        state = ParticleEnsemble(FreeSpace(1), np.zeros((2, 1)),
                                 np.array([[1.0], [-1.0]]))
        assert dist_to_manifold(state) == pytest.approx(np.sqrt(2.0))

    def test_matches_grid_minimization_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            p = 0.3 * rng.standard_normal((5, 2))
            state = ParticleEnsemble(FreeSpace(2), np.zeros((5, 2)), p)
            got = dist_to_manifold(state)
            # two-stage grid search over candidate common velocities
            center = p.mean(axis=0)
            best = np.inf
            for half, steps in ((0.2, 41), (0.002, 41)):
                g = np.linspace(-half, half, steps)
                for dx in g:
                    for dy in g:
                        v = center + np.array([dx, dy])
                        best = min(best, np.sqrt(np.sum((p - v) ** 2)))
                center = center  # refinement stays centred on the mean
            assert got == pytest.approx(best, abs=1e-6)


class TestBallChecks:
    def test_rest_state(self):
        w0 = ParticleEnsemble(FreeSpace(2), np.zeros((3, 2)), np.zeros((3, 2)))
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=1.0, dt=0.01)
        rep = check_velocity_ball(traj, 1.0)
        assert rep.max_speed == 0.0 and rep.ok

    def test_single_particle_speed_preserved(self):
        w0 = ParticleEnsemble(FreeSpace(2), np.zeros((1, 2)), np.array([[0.6, 0.8]]))
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=2.0, dt=0.01)
        rep = check_velocity_ball(traj, 1.0)
        assert rep.max_speed == pytest.approx(1.0, abs=1e-12) and rep.ok

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_speed_never_passes(self):
        # |p| = 1e200 squares past the float range: every speed reads inf, and the
        # ball of the initial (inf) speed used to certify it; ParticleEnsemble now
        # refuses such a state, so the one-frame trajectory is built directly
        p = np.array([[1e200, 0.0]])
        traj = Trajectory(FreeSpace(2), np.zeros(1), np.zeros((1, 1, 2)), p[None],
                          np.zeros((1, 1, 2)), metrics=[_frame_metrics(0.0, p)],
                          max_speed_overall=_max_speed(p))
        rep = check_velocity_ball(traj, _max_speed(p))
        assert rep.max_speed == np.inf and not rep.ok

    def test_speed_ball_invariance_small_cluster(self):
        w0 = cluster_state(n=12, speed=1.0, seed=10, spread=0.4)
        r0 = w0.max_speed()
        for mode in (Plain(), Regularized(0.1)):
            traj = integrate(w0, CompactBump(d=2, radius=1.0), mode,
                             T=5.0, dt=0.005, save_every=50)
            assert check_velocity_ball(traj, r0).ok

    def test_mean_velocity_stability(self):
        rng = np.random.default_rng(11)
        n, eps = 10, 0.05
        q = np.zeros((n, 2))
        q[:, 0] = 0.7 * np.arange(n)
        p = np.tile([0.4, 0.0], (n, 1))
        delta = rng.standard_normal((n, 2))
        delta -= delta.mean(axis=0)
        p += delta * (0.9 * eps / np.sqrt(np.sum(delta**2)))
        w0 = ParticleEnsemble(FreeSpace(2), q, p)
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(),
                         T=5.0, dt=0.005, save_every=50)
        rep = check_mean_velocity_ball(traj, eps)
        assert rep.ok
        assert rep.max_dev_from_initial_mean <= eps + 1e-9
        assert rep.max_dist_to_manifold <= 2 * eps + 1e-9

    def test_on_manifold_mean_ball_zero(self):
        w0 = ParticleEnsemble(FreeSpace(2), np.zeros((4, 2)),
                              np.tile([0.3, 0.0], (4, 1)))
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Plain(), T=1.0, dt=0.01)
        rep = check_mean_velocity_ball(traj, 0.01)
        assert rep.max_dev_from_initial_mean <= 1e-12
        assert rep.max_dist_to_manifold <= 1e-12

    def test_mean_velocity_stability_regularized(self):
        # the sign argument behind the bound is unaffected by the regularizer
        rng = np.random.default_rng(13)
        n, eps = 10, 0.05
        q = np.zeros((n, 2))
        q[:, 0] = 0.7 * np.arange(n)
        delta = rng.standard_normal((n, 2))
        delta -= delta.mean(axis=0)
        p = np.tile([0.4, 0.0], (n, 1)) + delta * (0.9 * eps / np.sqrt(np.sum(delta**2)))
        w0 = ParticleEnsemble(FreeSpace(2), q, p)
        traj = integrate(w0, CompactBump(d=2, radius=1.0), Regularized(0.1),
                         T=5.0, dt=0.005, save_every=50)
        assert check_mean_velocity_ball(traj, eps).ok


class TestGalileanWeights:
    def test_weights_invariant_under_common_translation(self):
        from flockkit import interaction_matrix
        rng = np.random.default_rng(12)
        spec = LogGradBounded(d=2, decay=1.0)
        q = rng.standard_normal((6, 2))
        state = ParticleEnsemble(FreeSpace(2), q, np.zeros((6, 2)))
        base = interaction_matrix(state, spec).a
        for _ in range(10):
            shift = rng.standard_normal(2)
            shifted = ParticleEnsemble(FreeSpace(2), q + shift, np.zeros((6, 2)))
            moved = interaction_matrix(shifted, spec).a
            assert np.max(np.abs(base - moved)) < 1e-13
