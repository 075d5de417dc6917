import re
import tracemalloc
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
    ParticleEnsemble,
    PointCloud,
    Plain,
    Regularized,
    Torus,
    evolve_cloud,
    field_constants,
    flow_characteristics,
    lipschitz_probe,
    mean_field_batch,
    mean_field_convergence,
    picard_iterate,
    stability_bound_check,
    transport_distance,
)
from flockkit import kinetic
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
            mean_field_batch(np.zeros((1, 2)), np.zeros((1, 2)), cloud, field)

    def test_plain_requires_positive_infimum(self):
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Plain())
        cloud = PointCloud(TORUS, np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            mean_field_batch(np.zeros((1, 2)), np.zeros((1, 2)), cloud, field)

    @pytest.mark.parametrize("which", ["x", "v"])
    def test_non_finite_cloud_rejected(self, which):
        # nan > 1 + tol is false, so a nan velocity used to pass the unit-ball check
        arrays = {"x": np.zeros((2, 2)), "v": np.zeros((2, 2))}
        arrays[which][1, 0] = np.nan
        with pytest.raises(InputError, match="non-finite entries in cloud"):
            PointCloud(TORUS, arrays["x"], arrays["v"])

    def test_empty_cloud_rejected(self):
        # an empty cloud used to reach mean_field_batch / evolve_cloud and divide by zero
        with pytest.raises(InputError, match="at least one point"):
            PointCloud(TORUS, np.zeros((0, 2)), np.zeros((0, 2)))


def _flow_from(x, v):
    curve = evolve_cloud(torus_cloud(5, seed=12), PLAIN_FIELD, T=0.1, dt=0.05)
    return flow_characteristics((x, v), curve, PLAIN_FIELD, t_final=0.1, dt=0.05)


# every entry point that takes a set of phase points, and its speed rule: particles
# need finite speeds, flow starts any finite entries, the rest the unit ball
PHASE_ENTRY_POINTS = {
    "ParticleEnsemble": lambda x, v: ParticleEnsemble(FreeSpace(2), x, v),
    "PointCloud": lambda x, v: PointCloud(TORUS, x, v),
    "MeasureCurve": lambda x, v: MeasureCurve(TORUS, [0.0, 1.0], [x, x], [v, v]),
    "mean_field_batch": lambda x, v: mean_field_batch(x, v, torus_cloud(5), PLAIN_FIELD),
    "flow-starts": _flow_from,
}


def bad_phase_points(entry, kind):
    rng = np.random.default_rng(31)
    x, v = rng.uniform(0.0, 10.0, (3, 2)), rng.uniform(-0.5, 0.5, (3, 2))
    if kind == "nan-position":
        x[1, 0] = np.nan
    elif kind == "nan-velocity":
        v[1, 0] = np.nan
    elif kind == "no-points":
        x, v = x[:0], v[:0]
    elif kind == "shape-mismatch":
        v = v[:2]
    else:  # an overflowing speed for particles, one outside the unit ball elsewhere
        v[1] = [1e200, 0.0] if entry == "ParticleEnsemble" else [5.0, 0.0]
    return x, v


class TestPhasePoints:
    @pytest.mark.parametrize("entry,kind", [
        (entry, kind) for entry in PHASE_ENTRY_POINTS
        for kind in ("nan-position", "nan-velocity", "no-points", "shape-mismatch", "speed")
        if (entry, kind) != ("flow-starts", "speed")
    ], ids=lambda value: value)
    def test_refused_at_every_entry_point(self, entry, kind):
        # curves, mean-field targets and flow starts used to take nan and out-of-ball
        # points (a nan increment, a nan flow blamed on dt), and particles |p| = 1e200
        x, v = bad_phase_points(entry, kind)
        with pytest.raises(InputError):
            PHASE_ENTRY_POINTS[entry](x, v)

    @pytest.mark.parametrize("which", ["times", "positions", "velocities"])
    def test_ragged_curve_rejected(self, which):
        # ragged frames given as lists used to raise numpy's "inhomogeneous shape" ValueError
        args = {"times": [0.0, 1.0], "positions": [np.zeros((2, 2))] * 2,
                "velocities": [np.zeros((2, 2))] * 2}
        args[which] = [0.0, [1.0, 2.0]] if which == "times" else [np.zeros((2, 2)),
                                                                   np.zeros((3, 2))]
        with pytest.raises(InputError, match=f"curve {which} is not a regular array"):
            MeasureCurve(TORUS, *args.values())

    def test_ragged_points_rejected(self):
        with pytest.raises(InputError, match="positions in cloud is not a regular array"):
            PointCloud(TORUS, [[0.0, 0.0], [1.0]], np.zeros((2, 2)))

    def test_curve_names_its_cloud(self):
        x, v = bad_phase_points("MeasureCurve", "speed")
        with pytest.raises(InputError, match=r"speeds in curve cloud at t = 0 must be at most"):
            MeasureCurve(TORUS, [0.0, 1.0], [x, x], [v, v])


class TestMeanField:
    def test_single_atom_plain(self):
        atom = PointCloud(TORUS, np.array([[5.0, 5.0]]), np.array([[0.3, -0.2]]))
        got = mean_field_batch(np.array([[5.1, 5.0]]), np.array([[0.1, 0.1]]), atom,
                               PLAIN_FIELD)[0]
        np.testing.assert_allclose(got, [0.2, -0.3], atol=1e-14)

    def test_empty_support_regularized_returns_minus_v(self):
        field = FieldSpec(spec=CompactBump(d=2, radius=1.0), mode=Regularized(0.1))
        atom = PointCloud(FreeSpace(2), np.zeros((1, 2)), np.array([[0.5, 0.0]]))
        got = mean_field_batch(np.array([[30.0, 30.0]]), np.array([[0.2, -0.1]]), atom,
                               field)[0]
        np.testing.assert_allclose(got, [-0.2, 0.1], atol=1e-15)

    @pytest.mark.parametrize("x, v, message", [
        ([0.0, 0.0], [np.nan, 0.0], "non-finite entries in mean-field targets"),
        ([0.0, 0.0], [0.8, 0.8],
         r"speeds in mean-field targets must be at most 1\.000000001; max speed 1\.13137"),
        ([np.nan, 0.0], [0.0, 0.0], "non-finite entries in mean-field targets"),
    ], ids=["nan-velocity", "outside-the-ball", "nan-position"])
    def test_point_outside_phase_space_rejected(self, x, v, message):
        # a nan velocity used to come back as the increment [nan, 0]
        with pytest.raises(InputError, match=message):
            mean_field_batch(np.array([x]), np.array([v]), torus_cloud(5), PLAIN_FIELD)

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
        got = mean_field_batch(np.array([[3.0, 3.0]]), np.array([[0.2, -0.1]]), cloud,
                               PLAIN_FIELD)[0]
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

    def test_plain_overlap_is_exactly_one_without_kernel_calls(self, monkeypatch):
        # plain mode has epsilon = 0, so mass / (mass + epsilon) is exactly 1:
        # only the 4 RK4 stages per step evaluate the kernel
        import flockkit.kinetic as kinetic
        from flockkit._kernels import alignment_sums
        curve = evolve_cloud(torus_cloud(8, seed=5), PLAIN_FIELD, T=0.5, dt=0.05)
        w0 = torus_cloud(6, seed=6)
        bare = flow_characteristics(w0, curve, PLAIN_FIELD, t_final=0.5, dt=0.05)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].shape[0])
            return alignment_sums(*args, **kwargs)

        monkeypatch.setattr(kinetic, "alignment_sums", counting)
        path = flow_characteristics(w0, curve, PLAIN_FIELD, t_final=0.5, dt=0.05,
                                    want_overlap=True)
        assert len(calls) == 4 * 10
        elapsed = 0.0
        for _ in range(10):  # the trapezoid rule's own accumulation of h = 1
            elapsed += 0.5 * 0.05 * (1.0 + 1.0)
        np.testing.assert_array_equal(path.overlap_integral[0], np.zeros(6))
        np.testing.assert_array_equal(path.overlap_integral[-1], np.full(6, elapsed))
        np.testing.assert_array_equal(path.x, bare.x)
        np.testing.assert_array_equal(path.v, bare.v)

    def test_misaligned_record_times_rejected(self):
        cloud = torus_cloud(5, seed=12)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=0.2, dt=0.01)
        with pytest.raises(Exception):
            flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=0.2, dt=0.01,
                                 record_times=[0.0333])

    def test_empty_batch_rejected(self):
        # an empty batch used to fail with "range() arg 3 must not be zero"
        cloud = torus_cloud(5, seed=12)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=0.2, dt=0.01)
        with pytest.raises(InputError,
                           match="at least one point is required in characteristic starts"):
            flow_characteristics(np.zeros((0, 4)), curve, PLAIN_FIELD, t_final=0.2, dt=0.01)

    def test_final_time_off_the_step_grid_rejected(self):
        # 1.0 / 0.3 steps used to return the t = 0.9 state labelled t = 1.0
        cloud = torus_cloud(5, seed=12)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=1.0, dt=0.1)
        with pytest.raises(InputError, match="t_final - t_start"):
            flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=1.0, dt=0.3)

    def test_final_time_past_a_short_curve_rejected(self):
        # an absolute 1e-9 slack accepted t_final = 5e-10 on a curve ending at
        # 1e-10 and integrated past its end; a rounding-level overshoot still passes
        cloud = torus_cloud(5, seed=12)
        curve = MeasureCurve(TORUS, [0.0, 1e-10], np.stack([cloud.x] * 2),
                             np.stack([cloud.v] * 2))
        with pytest.raises(InputError, match="outside curve span"):
            flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=5e-10, dt=1e-10)
        curve = MeasureCurve(TORUS, [0.0, 0.3], np.stack([cloud.x] * 2),
                             np.stack([cloud.v] * 2))
        path = flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=0.1 + 0.2, dt=0.1)
        assert path.times[-1] == 0.1 + 0.2 > 0.3

    def test_start_time_outside_the_span_rejected_before_stepping(self, monkeypatch):
        # t_start = -3 on a curve over [0, 0.1] used to run 310 steps driven by
        # the first cloud; the start obeys the same span rule as the final time
        import flockkit.kinetic as kinetic
        cloud = torus_cloud(5, seed=12)
        curve = evolve_cloud(cloud, PLAIN_FIELD, T=0.1, dt=0.01)
        monkeypatch.setattr(kinetic, "_field_rhs", None)  # any step would fail
        for t_start in (-3.0, 0.5):
            with pytest.raises(InputError, match=rf"t_start {t_start} outside curve span"):
                flow_characteristics(cloud, curve, PLAIN_FIELD, t_final=0.1, dt=0.01,
                                     t_start=t_start)

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
        curve = MeasureCurve(TORUS, traj.times, traj.q, traj.p)
        assert curve.n == 6
        # piecewise-constant-left lookup: times strictly inside an interval
        # resolve to the left grid cloud
        assert [curve.index_at(t) for t in (0.15, 0.1, 10.0)] == [1, 1, len(curve.times) - 1]

    def test_lookup_slack_is_relative_to_the_grid_spacing(self):
        # an absolute 1e-12 slack used to map t = 0 to the last of these clouds
        cloud = torus_cloud(2, seed=13)
        curve = MeasureCurve(TORUS, [0.0, 1e-13, 2e-13], np.stack([cloud.x] * 3),
                             np.stack([cloud.v] * 3))
        assert [curve.index_at(t) for t in (0.0, 0.5e-13, 1e-13, 2e-13)] == [0, 0, 1, 2]
        # a rounding-level shortfall still reaches the grid time, a real one does not
        curve = MeasureCurve(TORUS, np.linspace(0.0, 1.0, 11), np.stack([cloud.x] * 11),
                             np.stack([cloud.v] * 11))
        assert curve.index_at(0.3 - 1e-12) == 3
        assert curve.index_at(0.3 - 1e-9) == 2

    def test_backward_records_at_one_step_share_frames_and_overlap(self):
        # 0.2 and 0.2 + 1e-12 both lie on step 6 of the backward grid from 0.5
        cloud = torus_cloud(8, seed=14)
        field = FieldSpec(spec=GAUSS, mode=Regularized(0.1))
        curve = evolve_cloud(cloud, field, T=0.5, dt=0.05, save_times=[0.1, 0.2, 0.3, 0.4])
        w0 = torus_cloud(5, seed=15)
        path = flow_characteristics(w0, curve, field, t_final=0.0, dt=0.05, t_start=0.5,
                                    record_times=[0.2, 0.2 + 1e-12], want_overlap=True)
        assert list(path.times) == [0.5, 0.2 + 1e-12, 0.2, 0.0]
        for frames in (path.x, path.v, path.overlap_integral):
            np.testing.assert_array_equal(frames[1], frames[2])
        # and they are the state at 0.2 itself, not a later one
        short = flow_characteristics(w0, curve, field, t_final=0.2, dt=0.05, t_start=0.5,
                                     want_overlap=True)
        np.testing.assert_array_equal(path.x[1], short.x[-1])
        np.testing.assert_array_equal(path.v[1], short.v[-1])
        np.testing.assert_array_equal(path.overlap_integral[1], short.overlap_integral[-1])
        assert np.all(path.overlap_integral[1] < path.overlap_integral[-1])


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

    @pytest.mark.parametrize("domain", [TORUS, FreeSpace(2), Torus(1, 10.0), FreeSpace(1),
                                        Torus(3, 10.0), FreeSpace(3)])
    def test_phase_cost_matches_the_broadcast_formula(self, domain):
        # m at 1, B-1, B, B+1 and 3B+5 for B the rows of a block at 200 columns, and n
        # at the same offsets from the rows of a block at m columns
        d = domain.d
        rng = np.random.default_rng(16 + d)

        def cloud(n):
            v = rng.uniform(-1.0, 1.0, (n, d)) / np.sqrt(d)
            return PointCloud(domain, rng.uniform(0, 10, (n, d)), v)

        block = kinetic._BLOCK_PAIRS // 200
        for m in (1, block - 1, block, block + 1, 3 * block + 5):
            rows = max(1, kinetic._BLOCK_PAIRS // m)
            for n in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
                if n == m:
                    continue
                a, b = cloud(n), cloud(m)
                dx = a.x[:, None, :] - b.x[None, :, :]
                if isinstance(domain, Torus):
                    dx -= domain.size * np.rint(dx / domain.size)
                dv = a.v[:, None, :] - b.v[None, :, :]
                ref = np.sqrt(np.sum(np.square(dx), axis=-1) + np.sum(np.square(dv), axis=-1))
                assert _phase_cost(a, b).tobytes() == ref.tobytes(), (n, m)

    @pytest.mark.parametrize("domain", [TORUS, FreeSpace(2)])
    def test_phase_cost_memory_is_the_result_plus_one_block(self, domain):
        rng = np.random.default_rng(17)
        a = PointCloud(domain, rng.uniform(0, 10, (2000, 2)), rng.uniform(-0.6, 0.6, (2000, 2)))
        b = PointCloud(domain, rng.uniform(0, 10, (2000, 2)), rng.uniform(-0.6, 0.6, (2000, 2)))
        tracemalloc.start()
        try:
            cost = _phase_cost(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * cost.nbytes

    def test_clouds_on_different_tori_rejected(self):
        # a Torus(2, 5) cloud used to be measured with the Torus(2, 10) period
        a = PointCloud(Torus(2, 10.0), np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]))
        b = PointCloud(Torus(2, 5.0), np.array([[4.0, 4.0]]), np.array([[0.0, 0.0]]))
        with pytest.raises(InputError, match="same domain"):
            transport_distance(a, b)
        with pytest.raises(InputError, match="same domain"):
            transport_distance(a, PointCloud(FreeSpace(2), a.x, a.v))

    @pytest.mark.parametrize("cap", [0, -3, 2.5, True, "10", None])
    def test_max_points_must_be_a_positive_integer(self, cap):
        a = torus_cloud(5, seed=18)
        with pytest.raises(InputError, match=f"max_points .* got {re.escape(repr(cap))}"):
            transport_distance(a, a, max_points=cap)

    def test_max_points_accepts_numpy_integers(self):
        a, b = torus_cloud(8, seed=18), torus_cloud(8, seed=19)
        assert transport_distance(a, b, max_points=np.int64(3)) == \
            transport_distance(a, b, max_points=3)

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


class TestFieldRhsBits:
    """The in-place division has the bits of ``s / (den + eps)[:, None]``."""

    @pytest.mark.parametrize("mode", [Plain(), Regularized(0.1)], ids=["plain", "regularized"])
    @pytest.mark.parametrize("n, m, path", [(1, 200, "direct"), (4000, 256, "fourier")])
    def test_matches_the_out_of_place_form(self, n, m, path, mode):
        from flockkit import _kernels
        rng = np.random.default_rng(n + m)
        x, v = rng.uniform(0.0, 10.0, (n, 2)), rng.uniform(-0.5, 0.5, (n, 2))
        y, u = rng.uniform(0.0, 10.0, (m, 2)), rng.uniform(-0.5, 0.5, (m, 2))
        field = FieldSpec(spec=GAUSS, mode=mode)
        den, s = _kernels.alignment_sums(GAUSS, TORUS, x, v, y, u)
        before = _kernels.path_counts[path]
        got = kinetic._field_rhs(x, v, y, u, field, TORUS)
        assert _kernels.path_counts[path] == before + 1
        ref = s / (den + mode.epsilon * m)[:, None]
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spec, domain, n, m", [
        (GAUSS, TORUS, 1, 200), (GAUSS, TORUS, 4000, 256),
        # targets out of the bump's reach have zero mass and the increment -v
        (CompactBump(d=2, radius=0.2), FreeSpace(2), 60, 40),
    ], ids=["direct", "fourier", "zero-overlap"])
    def test_literal_display_matches_the_out_of_place_form(self, spec, domain, n, m):
        from flockkit import _kernels
        rng = np.random.default_rng(n + m)
        x, v = rng.uniform(0.0, 10.0, (n, 2)), rng.uniform(-0.5, 0.5, (n, 2))
        y, u = rng.uniform(0.0, 10.0, (m, 2)), rng.uniform(-0.5, 0.5, (m, 2))
        den, s = _kernels.alignment_sums(spec, domain, x, v, y, u)
        field = FieldSpec(spec=spec, mode=Regularized(0.1))
        got = mean_field_batch(x, v, PointCloud(domain, y, u), field)
        eps_n = 0.1 * m
        ref = (s - eps_n * v) / (den + eps_n)[:, None]
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        if isinstance(domain, FreeSpace):
            assert np.any(den == 0.0)


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

    def test_horizon_far_below_one_step_rejected(self):
        # T = 1, dt = 1e10 used to label the initial cloud t = 1
        with pytest.raises(InputError, match="T/dt = 1e-10"):
            evolve_cloud(torus_cloud(5, seed=22), PLAIN_FIELD, T=1.0, dt=1e10)

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


def grid_sweep_cases(count=60, seed=2024):
    """``(span, dt)`` pairs over many magnitudes: on the grid, within 1e-15..1e-3
    relative of it, and spans from far below one step to a few steps."""
    rng = np.random.default_rng(seed)
    cases = [(1.0, 1e10), (0.0, 1e10), (0.0, 1e-9), (5e-324, 1.0)]
    for _ in range(count):
        dt = 10.0 ** rng.uniform(-9.0, 4.0)
        kind = rng.integers(3)
        if kind == 0:
            ratio = float(rng.integers(0, 5))
        elif kind == 1:
            ratio = rng.integers(1, 5) * (1.0 + rng.choice([-1.0, 1.0])
                                          * 10.0 ** rng.uniform(-15.0, -3.0))
        else:
            ratio = 10.0 ** rng.uniform(-18.0, 0.7)
        cases.append((ratio * dt, dt))
    return cases


class TestStepGridSweep:
    """Each integrator either lands its last frame exactly on the horizon after
    a whole number of steps or raises ``InputError``; nothing is dropped."""

    @staticmethod
    def counted_steps(monkeypatch):
        import flockkit.dynamics as dynamics
        steps = []
        increment = dynamics._rk4_increment

        def counting(*args):
            steps.append(args[3])
            return increment(*args)

        # every integrator steps through the one loop in dynamics
        monkeypatch.setattr(dynamics, "_rk4_increment", counting)
        return steps

    @staticmethod
    def aligned_cloud():
        # equal velocities stay equal (zero acceleration), so no step size blows up
        x = np.random.default_rng(3).uniform(0.0, 10.0, (4, 2))
        return PointCloud(TORUS, x, np.tile([0.3, -0.1], (4, 1)))

    @staticmethod
    def run(integrator, cloud, span, dt):
        """Final time label of one integrator run over ``[0, span]``."""
        from flockkit import ParticleEnsemble, integrate
        if integrator == "integrate":
            w0 = ParticleEnsemble(TORUS, cloud.x, cloud.v)
            return integrate(w0, GAUSS, Plain(), T=span, dt=dt).times[-1]
        if integrator == "evolve_cloud":
            return evolve_cloud(cloud, PLAIN_FIELD, T=span, dt=dt).times[-1]
        times = [0.0, span] if span > 0.0 else [0.0]
        curve = MeasureCurve(TORUS, times, np.stack([cloud.x] * len(times)),
                             np.stack([cloud.v] * len(times)))
        return flow_characteristics((cloud.x, cloud.v), curve, PLAIN_FIELD,
                                    t_final=span, dt=dt).times[-1]

    @pytest.mark.parametrize("integrator", ["integrate", "evolve_cloud",
                                            "flow_characteristics"])
    def test_ends_on_the_horizon_or_raises(self, integrator, monkeypatch):
        steps = self.counted_steps(monkeypatch)
        cloud = self.aligned_cloud()
        for span, dt in grid_sweep_cases():
            steps.clear()
            ratio = span / dt
            on_grid = abs(ratio - round(ratio)) <= 1e-12 * max(1.0, ratio)
            try:
                last = self.run(integrator, cloud, span, dt)
            except InputError:
                assert not (on_grid and (span == 0.0 or round(ratio) >= 1)), (span, dt)
                continue
            assert last == span, (span, dt)
            assert (len(steps) == 0) == (span == 0.0), (span, dt)
            assert abs(len(steps) * dt - span) <= 1e-9 * span, (span, dt)


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

    def test_more_checks_than_steps_rejected(self):
        # eight checks over two steps used to include a vacuous one at t = 0
        cloud_a = torus_cloud(10, seed=29)
        cloud_b = PointCloud(TORUS, cloud_a.x + 0.3, cloud_a.v)
        with pytest.raises(InputError, match="n_checks = 8"):
            stability_bound_check(cloud_a, cloud_b, PLAIN_FIELD, T=0.01, dt=0.005,
                                  n_checks=8)
        report = stability_bound_check(cloud_a, cloud_b, PLAIN_FIELD, T=0.01, dt=0.005,
                                       n_checks=2)
        assert [row["t"] for row in report.rows] == [0.005, 0.01]


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

    # the values of the isinstance chain that picked the lemma before each family stated
    # its own: the same bits for every family and mode that has a lemma
    @pytest.mark.parametrize("spec,mode,domain,lemma,L,c0,a", [
        (GaussianPeriodized(d=2, width=1.0, period=10.0), Plain(), Torus(2, 10.0),
         "gaussian-periodized", 10.0, 1.1826892215563989, 8.841339661967142e-12),
        (GaussianPeriodized(d=2, width=2.0, period=5.0), Plain(), Torus(2, 5.0),
         "gaussian-periodized", 1.25, 0.21458081325721062, 0.033489615755883585),
        (GaussianPeriodized(d=1, width=0.5, period=3.0), Plain(), Torus(1, 3.0),
         "gaussian-periodized", 12.0, 3.531475507277417, 0.017727393647752034),
        (GaussianPeriodized(d=3, width=0.7, period=4.0), Plain(), Torus(3, 4.0),
         "gaussian-periodized", 8.163265306122451, 2.777357257699191, 7.1225326586796555e-06),
        (LogGradBounded(d=2, decay=0.5, period=10.0), Plain(), Torus(2, 10.0),
         "log-grad-bounded", 4.0, 1.4836852022235683, 9.826116597664424e-07),
        (LogGradBounded(d=3, decay=1.0, period=4.0), Plain(), Torus(3, 4.0),
         "log-grad-bounded", 2.0, 1.8425115970963653, 0.0013307877830738986),
        (LogGradBounded(d=1, decay=2.0, period=6.0, n_max=2), Plain(), Torus(1, 6.0),
         "log-grad-bounded", 1.0, 0.8582543030568256, 0.06210322196161263),
        (CompactBump(d=2, radius=1.0), Regularized(0.2), FreeSpace(2),
         "regularized", 10.0, 7.639437268410976, 0.2),
        (CompactBump(d=1, radius=2.0), Regularized(0.1), Torus(1, 8.0),
         "regularized", 20.0, 1.5, 0.1),
        (CompactBump(d=3, radius=1.5), Regularized(0.05), Torus(3, 6.0),
         "regularized", 40.0, 2.829421210522584, 0.05),
    ])
    def test_constants_keep_their_bits(self, spec, mode, domain, lemma, L, c0, a):
        consts = field_constants(FieldSpec(spec=spec, mode=mode), domain)
        assert (consts.lemma, consts.L, consts.c0, consts.a) == (lemma, L, c0, a)

    @pytest.mark.parametrize("spec,mode,domain,message", [
        (GaussianPeriodized(d=2, width=1.0, period=10.0), Regularized(0.1), Torus(2, 10.0),
         "regularized Lipschitz constant requires compact support"),
        (LogGradBounded(d=2, decay=1.0), Plain(), Torus(2, 10.0),
         "no Lipschitz constant known for this plain-mode field"),
        (LogGradBounded(d=2, decay=1.0), Regularized(0.1), FreeSpace(2),
         "regularized Lipschitz constant requires compact support"),
        (CompactBump(d=2, radius=0.5), Regularized(0.1), FreeSpace(2),
         "regularized Lipschitz constant requires compact support"),
        (CompactBump(d=2, radius=1.0), Plain(), Torus(2, 10.0),
         "plain-mode mean-field dynamics requires an interaction with positive infimum"),
        (GaussianPeriodized(d=2, width=1.0, period=10.0), Plain(), FreeSpace(2),
         "plain-mode mean-field dynamics requires a torus domain"),
    ], ids=["gaussian-regularized", "free-loggrad-plain-on-torus", "loggrad-regularized",
            "steep-bump-regularized", "bump-plain", "gaussian-plain-in-free-space"])
    def test_no_lemma_is_a_config_error(self, spec, mode, domain, message):
        with pytest.raises(ConfigError, match=message):
            field_constants(FieldSpec(spec=spec, mode=mode), domain)


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
