import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from flockkit import (
    CompactBump,
    FreeSpace,
    GaussianPeriodized,
    InputError,
    LogGradBounded,
    Torus,
    displacement,
    potential_eval,
    potential_grad,
)
from flockkit.geometry import (
    _is_canonical_offset,
    displacement_table,
    unit_sphere_area,
    wrap_positions,
)


def all_specs(d=2):
    return [
        CompactBump(d=d, radius=1.0),
        LogGradBounded(d=d, decay=0.5),
        LogGradBounded(d=d, decay=0.5, period=10.0),
        GaussianPeriodized(d=d, width=1.0, period=10.0),
    ]


class TestDisplacement:
    def test_free_space_is_subtraction(self):
        dom = FreeSpace(2)
        np.testing.assert_array_equal(
            displacement(dom, np.array([1.0, 1.0]), np.array([0.0, 0.0])),
            np.array([1.0, 1.0]),
        )

    def test_torus_min_image_wraps(self):
        dom = Torus(1, 10.0)
        np.testing.assert_allclose(
            displacement(dom, np.array([9.5]), np.array([0.5])), np.array([-1.0])
        )

    def test_torus_zero(self):
        dom = Torus(1, 10.0)
        np.testing.assert_array_equal(
            displacement(dom, np.array([3.0]), np.array([3.0])), np.array([0.0])
        )

    def test_torus_components_in_half_cell(self):
        dom = Torus(3, 7.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-20, 20, 3)
            y = rng.uniform(-20, 20, 3)
            delta = displacement(dom, x, y)
            assert np.all(np.abs(delta) <= 3.5 + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            displacement(FreeSpace(2), np.array([1.0]), np.array([0.0, 0.0]))

    def test_wrap_positions(self):
        dom = Torus(2, 5.0)
        q = np.array([[6.0, -1.0]])
        np.testing.assert_allclose(wrap_positions(dom, q), [[1.0, 4.0]])


def broadcast_table(domain, x, y):
    """Reference: the plain ``(n, m, d)`` broadcast of every pair's displacement."""
    delta = x[:, None, :] - y[None, :, :]
    if isinstance(domain, Torus):
        delta -= domain.size * np.rint(delta / domain.size)
    return delta


def broadcast_values(spec, delta):
    """Each family's values with the norm summed by ``np.sum`` over the last axis."""
    def norm(a):
        return np.sqrt(np.sum(np.square(a), axis=-1))

    if isinstance(spec, CompactBump):
        return spec.normalizer * np.clip(1.0 - norm(delta) / spec.radius, 0.0, None)
    if isinstance(spec, LogGradBounded):
        total = spec._profile(norm(delta))
        for off in spec._offsets:
            if _is_canonical_offset(off):
                total += spec._profile(norm(delta + off)) + spec._profile(norm(delta - off))
        return total
    out = 1.0
    for c in range(spec.d):
        s = np.abs(delta[..., c])
        acc = np.zeros_like(s)
        for shift in spec._shifts:
            acc += np.exp(-np.square(s + shift) / (2.0 * spec.width**2))
        out = out * (spec._norm1 * acc)
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCoordinateMajorTables:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("domain", ["free", "torus"])
    def test_displacement_table_matches_broadcast(self, d, domain):
        dom = Torus(d, 7.0) if domain == "torus" else FreeSpace(d)
        rng = np.random.default_rng(d)
        x = rng.uniform(-10.0, 10.0, (9, d))
        y = rng.uniform(-10.0, 10.0, (5, d))
        for a, b in ((x, y), (x, x), (x[:1], y)):
            table = displacement_table(dom, a, b)
            assert same_bits(table, broadcast_table(dom, a, b))
            # stored as contiguous (d, n, m) coordinate planes
            assert np.moveaxis(table, -1, 0).flags.c_contiguous

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("spec_idx", range(4))
    def test_values_match_broadcast(self, d, spec_idx):
        self.check_values_match_broadcast(all_specs(d)[spec_idx])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("width", [0.37, 1.3])
    def test_gaussian_values_match_broadcast(self, d, width):
        # 2 w^2 is not a power of two, so dividing by it and multiplying by its
        # reciprocal round differently
        self.check_values_match_broadcast(GaussianPeriodized(d=d, width=width, period=10.0))

    @staticmethod
    def check_values_match_broadcast(spec):
        d = spec.d
        rng = np.random.default_rng(10 + d)
        points = rng.uniform(0.0, 10.0, (12, d))
        inputs = [
            rng.uniform(-6.0, 6.0, d),
            np.zeros(d),
            rng.uniform(-6.0, 6.0, (30, d)),
            rng.uniform(-6.0, 6.0, (6, 7, d)),
            displacement_table(Torus(d, 10.0), points, points[:8]),
            displacement_table(FreeSpace(d), points, points),
        ]
        for delta in inputs:
            assert same_bits(spec.values(delta), broadcast_values(spec, delta))


def all_shift_theta(spec, s):
    """The wrapped Gaussian summed over every shift of ``_shifts``, none pruned."""
    s = np.abs(np.asarray(s, dtype=float))
    acc = np.zeros_like(s)
    for shift in spec._shifts:
        acc += np.exp(np.square(s + shift) / (-2.0 * spec.width**2))
    return acc * spec._norm1


class TestPrunedImageSum:
    """Skipping the positive images below 2^-60 leaves every bit of the image sum."""

    # (width, period, n_max, shifts kept): w / D <= 0.1 prunes every positive image, C10's
    # (2, 5) none, (1, 5) only the second one and (1.3, 10) none
    CASES = [(1.0, 10.0, None, 2), (0.37, 10.0, None, 2), (0.5, 5.0, None, 2),
             (0.1, 1.0, None, 2), (1.0, 10.0, 3, 4), (2.0, 5.0, None, 7), (1.0, 5.0, None, 4),
             (1.3, 10.0, None, 3)]

    @staticmethod
    def inputs(width, period):
        rng = np.random.default_rng(int(100 * width + period))
        half = period / 2.0
        # the exponent s^2 / 2w^2 from 700 to 750: exp underflows through the subnormals
        tail = width * np.sqrt(2.0 * np.linspace(700.0, 750.0, 41))
        return [
            rng.uniform(-half, half, 500),  # minimum images on the torus
            np.array([0.0, -0.0, half, -half, np.nextafter(half, 0.0), 5e-324, 1e-300]),
            rng.uniform(-3.0 * period, 3.0 * period, (20, 25)),  # free space
            np.concatenate([tail, tail + period, -tail, np.array([np.inf, 1e300])]),
            np.float64(0.3 * period),
        ]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("width,period,n_max,kept", CASES)
    def test_theta_matches_the_all_shift_sum(self, width, period, n_max, kept):
        spec = GaussianPeriodized(d=2, width=width, period=period, n_max=n_max)
        assert spec._theta_shifts.tolist() == spec._shifts[:kept].tolist()
        for s in self.inputs(width, period):
            assert same_bits(spec._theta(s), all_shift_theta(spec, s))

    def test_particle_width_keeps_two_shifts(self):
        spec = GaussianPeriodized(d=2, width=1.0, period=10.0)
        assert spec._shifts.tolist() == [-10.0, 0.0, 10.0]
        assert spec._theta_shifts.tolist() == [-10.0, 0.0]

    @pytest.mark.parametrize("width,period,n_max,kept", CASES)
    def test_derived_constants(self, width, period, n_max, kept):
        for d in (1, 2, 3):
            spec = GaussianPeriodized(d=d, width=width, period=period, n_max=n_max)
            t0 = float(all_shift_theta(spec, np.zeros(1))[0])
            far = float(all_shift_theta(spec, np.array([period / 2.0]))[0])
            tmax = float(np.max(np.abs(spec._theta_prime(np.linspace(0.0, period / 2.0,
                                                                       20001)))))
            assert same_bits(spec.u0, t0**d)
            assert same_bits(spec.inf_lower(Torus(d, period)), far**d)
            assert same_bits(spec.grad_sup, math.sqrt(d) * tmax * t0 ** (d - 1))


class TestCompactBump:
    def test_unit_value_at_origin_d1(self):
        # normalizer forced by the unit integral of (1 - |x|) over [-1, 1]
        spec = CompactBump(d=1, radius=1.0)
        assert potential_eval(spec, np.array([0.0])) == pytest.approx(1.0, abs=1e-14)

    def test_zero_outside_support(self):
        spec = CompactBump(d=1, radius=1.0)
        assert potential_eval(spec, np.array([1.5])) == 0.0

    def test_gradient_inside_support_d1(self):
        spec = CompactBump(d=1, radius=1.0)
        np.testing.assert_allclose(potential_grad(spec, np.array([0.5])), [-1.0])

    def test_gradient_zero_at_origin_and_outside(self):
        spec = CompactBump(d=2, radius=1.0)
        np.testing.assert_array_equal(potential_grad(spec, np.zeros(2)), np.zeros(2))
        np.testing.assert_array_equal(potential_grad(spec, np.array([2.0, 0.0])), np.zeros(2))


class TestGaussianPeriodized:
    def test_origin_value_matches_free_gaussian(self):
        # images at distance >= 10 contribute below 1e-12 for width 0.5
        spec = GaussianPeriodized(d=1, width=0.5, period=10.0)
        expected = (2.0 * math.pi * 0.25) ** -0.5
        assert potential_eval(spec, np.array([0.0])) == pytest.approx(expected, abs=1e-12)

    def test_direct_lattice_sum_oracle(self):
        spec = GaussianPeriodized(d=2, width=1.5, period=6.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = rng.uniform(-3, 3, 2)
            brute = 0.0
            for i in range(-12, 13):
                for j in range(-12, 13):
                    shift = np.array([i * 6.0, j * 6.0])
                    brute += math.exp(-np.sum((r + shift) ** 2) / (2 * 1.5**2))
            brute /= 2 * math.pi * 1.5**2
            assert potential_eval(spec, r) == pytest.approx(brute, rel=1e-12)

    def test_gradient_zero_at_origin(self):
        spec = GaussianPeriodized(d=2, width=1.0, period=10.0)
        np.testing.assert_allclose(potential_grad(spec, np.zeros(2)), np.zeros(2),
                                   atol=1e-15)

    def test_periodization_truncation_stable(self):
        base = GaussianPeriodized(d=2, width=1.0, period=10.0)
        finer = GaussianPeriodized(d=2, width=1.0, period=10.0,
                                   n_max=base._n_images + 1)
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = rng.uniform(-5, 5, 2)
            assert abs(potential_eval(base, r) - potential_eval(finer, r)) < 1e-12

    def test_truncation_order_capped(self):
        spec = GaussianPeriodized(d=1, width=5.0, period=1.0)
        assert spec._n_images <= 8


class TestLogGradBounded:
    @pytest.mark.parametrize("d,decay,reference", [
        (1, 0.05, 849898135.60794586767),
        (2, 0.1, 31869.281000800363409),
        (3, 0.1, 36995.884958156187425),
        (2, 1.0, 0.2163139948580662718),
    ])
    def test_normalizer_matches_a_high_precision_reference(self, d, decay, reference):
        # 20 digits of 1 / (|S^{d-1}| * integral of exp(-sqrt(1+r^2)/l) r^(d-1) dr)
        # from a 40-digit mpmath quadrature; adaptive double quadrature missed the
        # first three by up to 3e-6 relative
        normalizer = LogGradBounded(d=d, decay=decay).normalizer
        assert normalizer == pytest.approx(reference, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("decay,period", [
        (0.05, None), (0.3, None), (1.0, None), (4.0, None), (1.0, 10.0), (0.5, 3.0),
    ])
    def test_grad_sup_is_the_gradient_profile_maximum(self, decay, period):
        # a 20,001-point grid read 1.2e-6 (decay 1) to 3.5e-8 (decay 0.05) relative
        # below the supremum, which field_constants uses as an upper bound; here each
        # image n contributes the profile's maximum over [r_n, r_n + 50 decay], found
        # in the offset u = r - r_n so that the optimizer's tolerance is absolute
        spec = LogGradBounded(d=2, decay=decay, period=period)
        distances = spec._image_distances() if period else [0.0]
        reference = math.fsum(
            -minimize_scalar(lambda u: -spec._grad_profile(rn + u), bounds=(0.0, 50.0 * decay),
                             method="bounded", options={"xatol": 1e-12}).fun
            for rn in distances)
        assert spec.grad_sup == pytest.approx(reference, rel=1e-11, abs=0.0)

    def test_log_gradient_bound_holds(self):
        spec = LogGradBounded(d=2, decay=0.5)
        k = spec.log_grad_bound
        rng = np.random.default_rng(3)
        for _ in range(1000):
            r = rng.uniform(-4, 4, 2)
            val = potential_eval(spec, r)
            grad = potential_grad(spec, r)
            assert np.sqrt(np.sum(grad**2)) <= k * val + 1e-15

    def test_periodized_truncation_stable(self):
        base = LogGradBounded(d=2, decay=0.5, period=10.0)
        finer = LogGradBounded(d=2, decay=0.5, period=10.0,
                               n_max=base._n_images + 1)
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.uniform(-5, 5, 2)
            assert abs(potential_eval(base, r) - potential_eval(finer, r)) < 1e-12

    def test_positive_torus_infimum(self):
        spec = LogGradBounded(d=2, decay=0.5, period=10.0)
        dom = Torus(2, 10.0)
        lower = spec.inf_lower(dom)
        assert lower > 0.0
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = rng.uniform(-5, 5, 2)
            assert potential_eval(spec, r) >= lower - 1e-15


class TestSharedProperties:
    @pytest.mark.parametrize("spec_idx", range(4))
    def test_even_symmetry(self, spec_idx):
        spec = all_specs()[spec_idx]
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = rng.uniform(-3, 3, 2)
            assert potential_eval(spec, r) == potential_eval(spec, -r)

    @pytest.mark.parametrize("spec_idx", range(4))
    def test_nonnegative_and_positive_at_origin(self, spec_idx):
        spec = all_specs()[spec_idx]
        assert potential_eval(spec, np.zeros(2)) > 0.0
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert potential_eval(spec, rng.uniform(-6, 6, 2)) >= 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_free_space_normalization(self, d):
        # radial quadrature of the profile must give unit mass
        for spec in (CompactBump(d=d, radius=1.3), LogGradBounded(d=d, decay=0.7)):
            if isinstance(spec, CompactBump):
                profile = lambda r: spec.normalizer * max(0.0, 1.0 - r / spec.radius)
                upper = spec.radius
            else:
                profile = lambda r: float(spec._profile(np.array([r]))[0])
                upper = np.inf
            integral, _ = quad(lambda r: profile(r) * r ** (d - 1), 0.0, upper)
            assert integral * unit_sphere_area(d) == pytest.approx(1.0, abs=1e-8)

    def test_torus_normalization_gaussian(self):
        # periodization preserves total mass: cell integral equals one
        spec = GaussianPeriodized(d=2, width=1.0, period=7.0)
        one_dim, _ = quad(lambda s: float(spec._theta(np.array([s]))[0]), -3.5, 3.5,
                          limit=200)
        assert one_dim**2 == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("spec_idx", [1, 2, 3])
    def test_gradient_matches_finite_differences(self, spec_idx):
        spec = all_specs()[spec_idx]
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(20):
            r = rng.uniform(-3, 3, 2)
            grad = potential_grad(spec, r)
            for c in range(2):
                e = np.zeros(2)
                e[c] = h
                fd = (potential_eval(spec, r + e) - potential_eval(spec, r - e)) / (2 * h)
                assert grad[c] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_grad_sup_is_an_upper_bound(self):
        rng = np.random.default_rng(9)
        for spec in all_specs():
            bound = spec.grad_sup
            for _ in range(300):
                r = rng.uniform(-5, 5, 2)
                g = np.sqrt(np.sum(potential_grad(spec, r) ** 2))
                assert g <= bound * (1 + 1e-9) + 1e-15

    def test_validation_errors(self):
        with pytest.raises(InputError):
            CompactBump(d=0, radius=1.0)
        with pytest.raises(InputError):
            GaussianPeriodized(d=2, width=-1.0, period=5.0)
        with pytest.raises(InputError):
            Torus(2, -3.0)
        with pytest.raises(InputError):
            potential_eval(CompactBump(d=2, radius=1.0), np.array([1.0]))
        # a normalizer that underflows or overflows refuses the family when it is built
        for family, name in ((CompactBump, "radius"), (LogGradBounded, "decay")):
            for value in (1e-300, 1e300):
                with pytest.raises(InputError, match=re.escape(f"{name} = {value!r}")):
                    family(d=2, **{name: value})
