from itertools import permutations

import numpy as np
import pytest

from flockkit import (
    CompactBump,
    ConfigError,
    DegenerateInputError,
    FieldSpec,
    FreeSpace,
    GaussianPeriodized,
    InputError,
    LogGradBounded,
    NumericalError,
    PointCloud,
    Plain,
    Regularized,
    Torus,
    evolve_cloud,
    field_constants,
    flow_characteristics,
    lipschitz_probe,
    mean_field_M,
    mean_field_batch,
    mean_field_convergence,
    picard_iterate,
    stability_bound_check,
    transport_distance,
)
from flockkit.kinetic import MeasureCurve, _phase_cost
from flockkit.density import torus_gaussian_sampler

TORUS = Torus(2, 10.0)
GAUSS = GaussianPeriodized(d=2, width=1.0, period=10.0)
PLAIN_FIELD = FieldSpec(spec=GAUSS, mode=Plain())


def torus_cloud(n, seed=0, sigma=0.3):
    sampler = torus_gaussian_sampler(TORUS, sigma)
    w0, _ = sampler(n, np.random.default_rng(seed))
    return PointCloud(TORUS, w0[:, :2], w0[:, 2:])


class TestFieldSpec:
    def test_plain_requires_torus(self):
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Plain())
        cloud = PointCloud(FreeSpace(2), np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            mean_field_M(np.zeros(2), np.zeros(2), cloud, field)

    def test_plain_requires_positive_infimum(self):
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Plain())
        cloud = PointCloud(TORUS, np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            mean_field_M(np.zeros(2), np.zeros(2), cloud, field)


class TestMeanField:
    def test_single_atom_plain(self):
        atom = PointCloud(TORUS, np.array([[5.0, 5.0]]), np.array([[0.3, -0.2]]))
        got = mean_field_M(np.array([5.1, 5.0]), np.array([0.1, 0.1]), atom, PLAIN_FIELD)
        np.testing.assert_allclose(got, [0.2, -0.3], atol=1e-14)

    def test_empty_support_regularized_returns_minus_v(self):
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Regularized(0.1))
        atom = PointCloud(FreeSpace(2), np.zeros((1, 2)), np.array([[0.5, 0.0]]))
        got = mean_field_M(np.array([30.0, 30.0]), np.array([0.2, -0.1]), atom, field)
        np.testing.assert_allclose(got, [-0.2, 0.1], atol=1e-15)

    def test_zero_overlap_convention_switch(self):
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Regularized(0.1),
                          zero_overlap_zero=True)
        atom = PointCloud(FreeSpace(2), np.zeros((1, 2)), np.array([[0.5, 0.0]]))
        got = mean_field_M(np.array([30.0, 30.0]), np.array([0.2, -0.1]), atom, field)
        np.testing.assert_array_equal(got, np.zeros(2))

    @pytest.mark.parametrize("mode", [Plain(), Regularized(0.1)])
    def test_bounded_by_two(self, mode):
        if isinstance(mode, Plain):
            field, cloud = PLAIN_FIELD, torus_cloud(40, seed=1)
        else:
            field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=mode)
            rng = np.random.default_rng(2)
            cloud = PointCloud(FreeSpace(2), rng.uniform(-2, 2, (40, 2)),
                               0.9 * rng.uniform(-0.7, 0.7, (40, 2)))
        rng = np.random.default_rng(3)
        if isinstance(cloud.domain, Torus):
            xs = rng.uniform(0, 10, (1000, 2))
        else:
            xs = rng.uniform(-4, 4, (1000, 2))
        vs = rng.standard_normal((1000, 2))
        vs /= np.maximum(1.0, np.sqrt(np.sum(vs**2, axis=1)))[:, None]
        m = mean_field_batch(xs, vs, cloud, field)
        assert float(np.max(np.sqrt(np.sum(m**2, axis=1)))) <= 2.0 + 1e-12

    def test_constant_velocity_cloud_plain_field_vanishes(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(TORUS, rng.uniform(0, 10, (20, 2)),
                           np.tile([0.2, -0.1], (20, 1)))
        got = mean_field_M(np.array([3.0, 3.0]), np.array([0.2, -0.1]), cloud,
                           PLAIN_FIELD)
        np.testing.assert_array_equal(got, np.zeros(2))


class TestLipschitzProbe:
    def test_constant_velocity_cloud_has_zero_quotient(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(TORUS, rng.uniform(0, 10, (30, 2)),
                           np.tile([0.3, 0.0], (30, 1)))
        report = lipschitz_probe(PLAIN_FIELD, cloud, samples=100)
        assert report.L_emp <= 1e-12

    def test_gaussian_periodized_constant(self):
        report = lipschitz_probe(PLAIN_FIELD, torus_cloud(50, seed=6), samples=300,
                                 rng=np.random.default_rng(6))
        assert report.lemma == "gaussian-periodized"
        assert report.L_paper == pytest.approx(10.0)
        assert report.L_emp <= report.L_paper

    def test_log_grad_constant(self):
        spec = LogGradBounded(d=2, decay=0.5, period=10.0)
        field = FieldSpec(spec=spec, mode=Plain())
        report = lipschitz_probe(field, torus_cloud(50, seed=7), samples=300,
                                 rng=np.random.default_rng(7))
        assert report.lemma == "log-grad-bounded"
        assert report.L_paper == pytest.approx(4.0)
        assert report.L_emp <= report.L_paper

    def test_regularized_constant(self):
        spec = CompactBump(d=2, radius=1.0)
        assert spec.grad_sup <= 1.0
        field = FieldSpec(spec=spec, mode=Regularized(0.1))
        rng = np.random.default_rng(8)
        cloud = PointCloud(FreeSpace(2), rng.uniform(-2, 2, (40, 2)),
                           rng.uniform(-0.5, 0.5, (40, 2)))
        report = lipschitz_probe(field, cloud, samples=300, rng=rng)
        assert report.lemma == "regularized"
        assert report.L_paper == pytest.approx(20.0)
        assert report.L_emp <= report.L_paper

    def test_mismatched_hypotheses_rejected(self):
        field = FieldSpec(spec=GAUSS, mode=Regularized(0.1))
        with pytest.raises(ConfigError):
            lipschitz_probe(field, torus_cloud(10, seed=9), samples=10)


class TestFlow:
    def test_comoving_atom_is_fixed_point_in_relative_state(self):
        v = np.array([0.2, 0.0])
        times = np.linspace(0.0, 1.0, 11)
        xs = np.array([[5.0, 5.0] + t * v for t in times])[:, None, :]
        vs = np.tile(v, (11, 1, 1))
        curve = MeasureCurve(TORUS, times, xs, vs)
        path = flow_characteristics((np.array([[5.0, 5.0]]), v[None, :]), curve,
                                    PLAIN_FIELD, t_final=1.0, dt=0.01)
        xf, vf = path.final()
        np.testing.assert_array_equal(vf, v[None, :])
        np.testing.assert_allclose(xf, [[5.2, 5.0]], atol=1e-12)

    def test_forward_backward_roundtrip(self):
        cloud = torus_cloud(25, seed=10)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=0.5, dt=0.005,
                             save_times=list(np.arange(0, 0.51, 0.05)))
        fwd = flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=0.5, dt=0.005)
        xf, vf = fwd.final()
        back = flow_characteristics((xf, vf), curve, PLAIN_FIELD, t_final=0.0,
                                    dt=0.005, t_start=0.5)
        xb, vb = back.final()
        assert np.max(np.abs(xb - cloud.x)) < 1e-8
        assert np.max(np.abs(vb - cloud.v)) < 1e-8

    def test_empirical_self_consistency(self):
        # characteristics driven by the empirical curve reproduce the particles
        cloud = torus_cloud(30, seed=11)
        dt = 1e-3
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=0.5, dt=dt,
                             save_times=list(np.arange(0.0, 0.5 + 1e-12, dt)))
        path = flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=0.5, dt=dt)
        xf, vf = path.final()
        err = max(float(np.max(np.abs(xf - curve.x[-1]))),
                  float(np.max(np.abs(vf - curve.v[-1]))))
        assert err < 1e-4

    def test_misaligned_record_times_rejected(self):
        cloud = torus_cloud(5, seed=12)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=0.2, dt=0.01)
        with pytest.raises(Exception):
            flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=0.2, dt=0.01,
                                 record_times=[0.0333])

    def test_final_time_off_the_step_grid_rejected(self):
        # 1.0 / 0.3 steps used to return the t = 0.9 state labelled t = 1.0
        cloud = torus_cloud(5, seed=12)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=1.0, dt=0.1)
        with pytest.raises(InputError, match="t_final - t_start"):
            flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=1.0, dt=0.3)

    def test_record_time_outside_the_span_rejected_before_stepping(self, monkeypatch):
        import flockkit.kinetic as kinetic
        cloud = torus_cloud(5, seed=12)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=1.0, dt=0.1)
        monkeypatch.setattr(kinetic, "_field_rhs", None)  # any step would fail
        for t_final, record in ((0.5, 0.7), (0.0, 0.7)):
            with pytest.raises(InputError, match="record time"):
                flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=t_final,
                                     dt=0.1, t_start=0.5, record_times=[record])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_raises_numerical_error_naming_step_and_time(self):
        cloud = torus_cloud(5, seed=12)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=1.0, dt=0.1)
        w0 = (np.array([[5.0, 5.0]]), np.array([[9e307, 0.0]]))
        field = FieldSpec(spec=GAUSS, mode=Regularized(0.1))
        with pytest.raises(NumericalError, match=r"step 1 \(t = 0\.1\)"):
            flow_characteristics(w0, curve, field, t_final=1.0, dt=0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_plain_mode_blowup_raises_numerical_error_naming_step_and_time(self):
        # the second RK4 stage puts x near 4.5e306, where the minimum image
        # no longer resolves the cell and every kernel value is 0
        cloud = torus_cloud(5, seed=12)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=1.0, dt=0.1)
        w0 = (np.array([[5.0, 5.0]]), np.array([[9e307, 0.0]]))
        with pytest.raises(NumericalError, match=r"blew up.*step 1 \(t = 0\.1\)"):
            flow_characteristics(w0, curve, PLAIN_FIELD, t_final=1.0, dt=0.1)

    def test_zero_mass_at_resolved_positions_stays_a_config_error(self, monkeypatch):
        import flockkit.kinetic as kinetic
        cloud = torus_cloud(5, seed=12)
        monkeypatch.setattr(kinetic, "alignment_sums",
                            lambda *args: (np.zeros(len(args[2])), np.zeros_like(args[3])))
        with pytest.raises(ConfigError, match="zero interaction mass"):
            evolve_cloud(cloud, PLAIN_FIELD, T=0.5, dt=0.1)

    def test_curve_from_trajectory_and_lookup(self):
        from flockkit import ParticleEnsemble, integrate
        cloud = torus_cloud(6, seed=13)
        w0 = ParticleEnsemble(TORUS, cloud.x.copy(), cloud.v.copy())
        traj = integrate(w0, GAUSS, Plain(), T=0.4, dt=0.01, save_every=10)
        curve = MeasureCurve.from_trajectory(traj)
        assert curve.n == 6
        # piecewise-constant-left lookup: times strictly inside an interval
        # resolve to the left grid cloud
        np.testing.assert_array_equal(curve.cloud_at(0.15).x, curve.x[1])
        np.testing.assert_array_equal(curve.cloud_at(0.1).x, curve.x[1])
        np.testing.assert_array_equal(curve.cloud_at(10.0).x, curve.x[-1])


class TestTransportDistance:
    def test_identical_clouds(self):
        cloud = torus_cloud(12, seed=13)
        assert transport_distance(cloud, cloud) == 0.0

    def test_single_atom_pair(self):
        a = PointCloud(TORUS, np.array([[1.0, 1.0]]), np.array([[0.1, 0.0]]))
        b = PointCloud(TORUS, np.array([[1.0, 1.3]]), np.array([[0.1, 0.0]]))
        assert transport_distance(a, b) == pytest.approx(0.3)

    def test_clipped_at_one(self):
        a = PointCloud(TORUS, np.array([[0.0, 0.0]]), np.array([[0.9, 0.0]]))
        b = PointCloud(TORUS, np.array([[5.0, 5.0]]), np.array([[-0.9, 0.0]]))
        assert transport_distance(a, b) == 1.0

    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_brute_force_permutations(self, n):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a = torus_cloud(n, seed=int(rng.integers(1000)))
            b = torus_cloud(n, seed=int(rng.integers(1000)))
            cost = _phase_cost(a, b)
            brute = min(sum(cost[i, perm[i]] for i in range(n))
                        for perm in permutations(range(n)))
            assert transport_distance(a, b) == pytest.approx(min(brute / n, 1.0),
                                                             abs=1e-12)

    @pytest.mark.parametrize("domain", [TORUS, FreeSpace(2)])
    def test_phase_cost_matches_the_broadcast_formula(self, domain):
        rng = np.random.default_rng(16)
        a = PointCloud(domain, rng.uniform(0, 10, (30, 2)), rng.uniform(-0.6, 0.6, (30, 2)))
        b = PointCloud(domain, rng.uniform(0, 10, (30, 2)), rng.uniform(-0.6, 0.6, (30, 2)))
        dx = a.x[:, None, :] - b.x[None, :, :]
        if domain is TORUS:
            dx -= TORUS.size * np.rint(dx / TORUS.size)
        dv = a.v[:, None, :] - b.v[None, :, :]
        ref = np.sqrt(np.sum(np.square(dx), axis=-1) + np.sum(np.square(dv), axis=-1))
        assert _phase_cost(a, b).tobytes() == ref.tobytes()

    def test_metric_properties(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = torus_cloud(8, seed=int(rng.integers(1000)))
            b = torus_cloud(8, seed=int(rng.integers(1000)))
            c = torus_cloud(8, seed=int(rng.integers(1000)))
            dab = transport_distance(a, b)
            dba = transport_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-14)
            dac = transport_distance(a, c)
            dcb = transport_distance(c, b)
            assert dab <= dac + dcb + 1e-12

    def test_translation_invariance_on_torus(self):
        a = torus_cloud(10, seed=16)
        b = torus_cloud(10, seed=17)
        shift = np.array([3.7, 8.1])
        a2 = PointCloud(TORUS, np.mod(a.x + shift, 10.0), a.v)
        b2 = PointCloud(TORUS, np.mod(b.x + shift, 10.0), b.v)
        assert transport_distance(a2, b2) == pytest.approx(
            transport_distance(a, b), abs=1e-12)

    def test_unequal_sizes_subsampled(self):
        a = torus_cloud(50, seed=18)
        b = torus_cloud(20, seed=19)
        d = transport_distance(a, b)
        assert 0.0 <= d <= 1.0


class TestEvolveCloud:
    def test_plain_matches_particle_integrator(self):
        from flockkit import ParticleEnsemble, integrate
        cloud = torus_cloud(15, seed=20)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=0.3, dt=0.005)
        w0 = ParticleEnsemble(TORUS, cloud.x.copy(), cloud.v.copy())
        traj = integrate(w0, GAUSS, Plain(), T=0.3, dt=0.005, save_every=60)
        np.testing.assert_allclose(np.mod(curve.x[-1], 10.0), traj.q[-1], atol=1e-12)
        np.testing.assert_allclose(curve.v[-1], traj.p[-1], atol=1e-12)

    def test_horizon_off_the_step_grid_rejected(self):
        # T = 1, dt = 0.3 used to return a curve holding only t = 0
        with pytest.raises(InputError, match=r"T/dt = 3\.33"):
            evolve_cloud(torus_cloud(5, seed=22), PLAIN_FIELD, T=1.0, dt=0.3)

    def test_save_time_off_the_step_grid_rejected(self):
        with pytest.raises(InputError, match="save time"):
            evolve_cloud(torus_cloud(5, seed=22), PLAIN_FIELD, T=0.5, dt=0.1,
                         save_times=[0.25])

    def test_blowup_raises_numerical_error_naming_step_and_time(self, monkeypatch):
        import flockkit.kinetic as kinetic
        monkeypatch.setattr(kinetic, "_field_rhs",
                            lambda x, v, *args, **kwargs: np.full_like(v, np.inf))
        with pytest.raises(NumericalError, match=r"step 1 \(t = 0\.1\)"):
            evolve_cloud(torus_cloud(5, seed=22), PLAIN_FIELD, T=0.5, dt=0.1)

    def test_velocities_stay_in_unit_ball(self):
        cloud = torus_cloud(25, seed=21, sigma=0.45)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=1.0, dt=0.01)
        speeds = np.sqrt(np.sum(curve.v[-1] ** 2, axis=1))
        assert float(speeds.max()) <= 1.0 + 1e-9


class TestConvergence:
    def test_single_atom_initial_measure_gives_zero_distances(self):
        def sampler(n, rng):
            x = np.tile([5.0, 5.0], (n, 1))
            v = np.tile([0.2, 0.1], (n, 1))
            return PointCloud(TORUS, x, v)

        rows = mean_field_convergence(sampler, [10, 20], 40, t_eval=0.2,
                                      field=PLAIN_FIELD, seeds=[1, 2], dt=0.02)
        assert all(row["W_hat"] <= 1e-9 for row in rows)

    def test_eval_time_off_the_step_grid_rejected(self):
        # t_eval = 0.25 with dt = 0.1 used to report W_hat of the initial clouds
        def sampler(n, rng):
            return torus_cloud(n, seed=int(rng.integers(1000)))

        with pytest.raises(InputError, match="T/dt"):
            mean_field_convergence(sampler, [10], 20, t_eval=0.25,
                                   field=PLAIN_FIELD, seeds=[1], dt=0.1)

    def test_sampling_error_decreases_with_n(self):
        sampler_fn = torus_gaussian_sampler(TORUS, 0.3)

        def sampler(n, rng):
            w0, _ = sampler_fn(n, rng)
            return PointCloud(TORUS, w0[:, :2], w0[:, 2:])

        rows = mean_field_convergence(sampler, [50, 200], 800, t_eval=0.0,
                                      field=PLAIN_FIELD, seeds=[1, 2, 3], dt=0.05)
        med = {n: np.median([r["W_hat"] for r in rows if r["N"] == n])
               for n in (50, 200)}
        assert med[200] < med[50]


class TestStability:
    def test_growth_bounded(self):
        cloud_a = torus_cloud(60, seed=22)
        rng = np.random.default_rng(23)
        x_b = cloud_a.x + 0.05 * rng.standard_normal(cloud_a.x.shape)
        v_b = np.clip(cloud_a.v + 0.05 * rng.standard_normal(cloud_a.v.shape),
                      -0.7, 0.7)
        cloud_b = PointCloud(TORUS, x_b, v_b)
        report = stability_bound_check(cloud_a, cloud_b, PLAIN_FIELD, T=0.5,
                                       dt=0.01, n_checks=5)
        assert report.ok
        assert report.c > 0

    def test_identical_clouds_rejected(self):
        cloud = torus_cloud(10, seed=24)
        with pytest.raises(DegenerateInputError):
            stability_bound_check(cloud, cloud, PLAIN_FIELD, T=0.1, dt=0.01)

    def test_translated_pair_keeps_constant_ratio(self):
        # plain dynamics is translation-equivariant, so a rigidly shifted
        # copy stays at a constant transport distance (ratio one)
        cloud_a = torus_cloud(30, seed=28)
        shift = np.array([1.25, 0.5])
        cloud_b = PointCloud(TORUS, cloud_a.x + shift, cloud_a.v)
        report = stability_bound_check(cloud_a, cloud_b, PLAIN_FIELD, T=0.4,
                                       dt=0.01, n_checks=4)
        assert report.ok
        for row in report.rows:
            assert row["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_check_times_move_to_the_step_grid(self):
        # thirds of T = 0.2 are off the dt = 0.01 grid; the states used to be
        # taken a step late and labelled with the off-grid time
        cloud_a = torus_cloud(20, seed=29)
        cloud_b = PointCloud(TORUS, cloud_a.x + 0.3, cloud_a.v)
        report = stability_bound_check(cloud_a, cloud_b, PLAIN_FIELD, T=0.2,
                                       dt=0.01, n_checks=3)
        assert [row["t"] for row in report.rows] == [0.07, 0.13, 0.2]


class TestFieldConstants:
    def test_gaussian_constants(self):
        consts = field_constants(PLAIN_FIELD, TORUS)
        assert consts.lemma == "gaussian-periodized"
        assert consts.L == pytest.approx(10.0)
        assert consts.a == pytest.approx(GAUSS.inf_lower(TORUS))
        assert consts.c0 == pytest.approx(4.0 * (GAUSS.grad_sup + GAUSS.sup_upper))

    def test_regularized_constants(self):
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Regularized(0.2))
        consts = field_constants(field, FreeSpace(2))
        assert consts.lemma == "regularized"
        assert consts.L == pytest.approx(10.0)
        assert consts.a == pytest.approx(0.2)


class TestPicard:
    def test_aligned_cloud_fixed_after_one_iterate(self):
        # aligned velocities free-stream: the first pushforward is already the
        # fixed point, so the second iterate reproduces it exactly
        rng = np.random.default_rng(25)
        cloud = PointCloud(TORUS, rng.uniform(0, 10, (20, 2)),
                           np.tile([0.3, -0.2], (20, 1)))
        result = picard_iterate(cloud, PLAIN_FIELD, T=0.2, grid_K=20, iters=4)
        assert result.converged
        assert len(result.distances) >= 2
        assert result.distances[1] <= 1e-12
        assert result.ratios and result.ratios[0] <= 1e-9

    def test_fixed_point_matches_direct_simulation(self):
        cloud = torus_cloud(40, seed=26)
        T, grid_k = 0.3, 150
        result = picard_iterate(cloud, PLAIN_FIELD, T=T, grid_K=grid_k, iters=8)
        assert result.converged
        final = result.curves[-1]
        direct = evolve_cloud(cloud, PLAIN_FIELD, T, dt=T / grid_k,
                              save_times=list(final.times))
        gaps = [transport_distance(
            PointCloud(TORUS, final.x[k], final.v[k]),
            PointCloud(TORUS, direct.x[k], direct.v[k]))
            for k in range(0, len(final.times), 10)]
        assert max(gaps) < 1e-3

    def test_alpha_must_exceed_lipschitz_constant(self):
        cloud = torus_cloud(10, seed=27)
        with pytest.raises(ConfigError):
            picard_iterate(cloud, PLAIN_FIELD, T=0.1, grid_K=10, iters=2, alpha=1.0)
