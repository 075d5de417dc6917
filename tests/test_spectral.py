import numpy as np
import pytest

from flockkit import (
    CompactBump,
    FreeSpace,
    LogGradBounded,
    NumericalError,
    ParticleEnsemble,
    Plain,
    PreconditionError,
    Regularized,
    b_norm_check,
    c_matrix_gap,
    integrate,
    interaction_matrix,
    operator_norm,
    spectrum,
    velocity_projector,
)
from flockkit import spectral
from flockkit._kernels import kernel_table


def positions_state(q):
    q = np.asarray(q, dtype=float)
    return ParticleEnsemble(FreeSpace(q.shape[1]), q, np.zeros_like(q))


def random_connected_state(rng, n=10, spread=1.2):
    # a jittered chain is always connected for unit range
    q = np.zeros((n, 2))
    q[:, 0] = 0.6 * np.arange(n) + 0.05 * rng.standard_normal(n)
    q[:, 1] = 0.2 * rng.standard_normal(n)
    return positions_state(q)


def eigvals_oracle(m):
    """Real parts of the general (nonsymmetric) eigenvalues of the weight matrix,
    in descending order."""
    return np.sort(np.linalg.eigvals(m.a).real)[::-1]


class TestSpectrumOracle:
    def test_matches_general_eigensolver(self):
        rng = np.random.default_rng(0)
        for idx, n in enumerate((2, 5, 17, 40)):
            spec = (LogGradBounded(d=2, decay=1.0), CompactBump(d=2, radius=1.0))[idx % 2]
            m = interaction_matrix(positions_state(rng.uniform(0.0, 3.0, (n, 2))), spec)
            eig = spectrum(m).eigenvalues
            assert eig.shape == (n,)
            assert np.all(np.diff(eig) <= 0.0)
            assert np.max(np.abs(eig - eigvals_oracle(m))) <= 1e-12

    def test_one_by_one(self):
        m = interaction_matrix(positions_state([[0.3, -0.2]]), CompactBump(d=2, radius=1.0))
        report = spectrum(m)
        np.testing.assert_array_equal(report.eigenvalues, [1.0])
        assert report.gap == 1.0 and not report.perron_simple

    def test_degenerate(self):
        spec = CompactBump(d=2, radius=1.0)
        # isolated particles: identity weights, eigenvalue one of multiplicity three
        iso = interaction_matrix(positions_state([[0, 0], [5, 0], [10, 0]]), spec)
        # all particles overlapping: rank one, eigenvalue zero of multiplicity five
        lump = interaction_matrix(positions_state(np.zeros((6, 2))), spec)
        for m, expected in ((iso, np.ones(3)), (lump, [1.0, 0, 0, 0, 0, 0])):
            eig = spectrum(m).eigenvalues
            np.testing.assert_allclose(eig, expected, atol=1e-12)
            assert np.max(np.abs(eig - eigvals_oracle(m))) <= 1e-12


class TestInteractionMatrix:
    def test_two_overlapping_particles_half_weights(self):
        m = interaction_matrix(positions_state([[0, 0], [0, 0]]),
                               CompactBump(d=2, radius=1.0))
        np.testing.assert_allclose(m.a, [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(m.stationary, [0.5, 0.5])

    def test_two_particle_closed_form(self):
        spec = CompactBump(d=2, radius=1.0)
        state = positions_state([[0, 0], [0.5, 0]])
        u0 = spec.normalizer
        u = float(spec.values(np.array([[0.5, 0.0]]))[0])
        m = interaction_matrix(state, spec)
        np.testing.assert_allclose(m.a[0], [u0 / (u0 + u), u / (u0 + u)], rtol=1e-14)
        np.testing.assert_allclose(m.a[1], [u / (u0 + u), u0 / (u0 + u)], rtol=1e-14)

    def test_isolated_particles_identity(self):
        state = positions_state([[0, 0], [5, 0], [10, 0]])
        m = interaction_matrix(state, CompactBump(d=2, radius=1.0))
        np.testing.assert_array_equal(m.a, np.eye(3))
        assert not m.substochastic

    def test_row_sums_and_detailed_balance(self):
        rng = np.random.default_rng(1)
        spec = LogGradBounded(d=2, decay=1.0)
        for _ in range(100):
            q = rng.uniform(0, 3, (int(rng.integers(2, 12)), 2))
            m = interaction_matrix(positions_state(q), spec)
            assert np.max(np.abs(m.a.sum(axis=1) - 1.0)) < 1e-12
            flux = m.stationary[:, None] * m.a
            assert np.max(np.abs(flux - flux.T)) < 1e-12
            assert m.stationary.sum() == pytest.approx(1.0, abs=1e-12)

    def test_stationary_matches_row_masses(self):
        rng = np.random.default_rng(2)
        spec = LogGradBounded(d=2, decay=1.0)
        q = rng.uniform(0, 2, (6, 2))
        state = positions_state(q)
        m = interaction_matrix(state, spec)
        u = spec.values(q[:, None, :] - q[None, :, :])
        expected = u.sum(axis=1) / u.sum()
        np.testing.assert_allclose(m.stationary, expected, rtol=1e-13)

    @pytest.mark.parametrize("mode", [Plain(), Regularized(0.1)], ids=["plain", "regularized"])
    @pytest.mark.parametrize("spec", [CompactBump(d=2, radius=1.0), LogGradBounded(d=2)],
                             ids=["bump", "loggrad"])
    def test_matches_the_out_of_place_form(self, spec, mode):
        state = positions_state(np.random.default_rng(3).uniform(0, 3, (12, 2)))
        u = kernel_table(spec, state.domain, state.q)
        weights = u.sum(axis=1) + mode.epsilon
        m = interaction_matrix(state, spec, mode)
        assert m.a.tobytes() == (u / weights[:, None]).tobytes()
        assert m.stationary.tobytes() == (weights / weights.sum()).tobytes()

    def test_plain_zero_row_mass_rejected(self, monkeypatch):
        monkeypatch.setattr(spectral, "kernel_table", lambda *args: np.zeros((2, 2)))
        with pytest.raises(NumericalError, match="zero interaction row mass in plain mode"):
            interaction_matrix(positions_state([[0, 0], [0.5, 0]]),
                               CompactBump(d=2, radius=1.0))

    def test_regularized_substochastic(self):
        state = positions_state([[0, 0], [0.5, 0]])
        m = interaction_matrix(state, CompactBump(d=2, radius=1.0), Regularized(0.1))
        assert m.substochastic
        assert np.all(m.a.sum(axis=1) < 1.0)
        flux = m.stationary[:, None] * m.a
        assert np.max(np.abs(flux - flux.T)) < 1e-14


class TestSpectrum:
    def test_two_particle_closed_form_eigenvalues(self):
        spec = CompactBump(d=2, radius=1.0)
        state = positions_state([[0, 0], [0.5, 0]])
        u0 = spec.normalizer
        u = float(spec.values(np.array([[0.5, 0.0]]))[0])
        report = spectrum(interaction_matrix(state, spec))
        np.testing.assert_allclose(report.eigenvalues, [1.0, (u0 - u) / (u0 + u)],
                                   atol=1e-12)
        assert report.perron_simple
        assert c_matrix_gap(report) == pytest.approx(2 * u / (u0 + u), abs=1e-12)

    def test_isolated_particles_reducible(self):
        state = positions_state([[0, 0], [5, 0], [10, 0]])
        report = spectrum(interaction_matrix(state, CompactBump(d=2, radius=1.0)))
        np.testing.assert_allclose(report.eigenvalues, np.ones(3))
        assert report.gap == pytest.approx(0.0, abs=1e-14)
        assert not report.perron_simple
        with pytest.raises(PreconditionError):
            c_matrix_gap(report)

    def test_complete_uniform_weights_have_unit_gap(self):
        # all particles overlapping: rank-one weight matrix, second eigenvalue 0
        state = positions_state(np.zeros((6, 2)))
        report = spectrum(interaction_matrix(state, CompactBump(d=2, radius=1.0)))
        assert report.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(report.eigenvalues[1:])) < 1e-12
        assert c_matrix_gap(report) == pytest.approx(1.0, abs=1e-12)

    def test_random_connected_perron_structure(self):
        rng = np.random.default_rng(3)
        spec = CompactBump(d=2, radius=1.0)
        for _ in range(20):
            state = random_connected_state(rng)
            report = spectrum(interaction_matrix(state, spec))
            assert report.max_imag_residual < 1e-10
            assert report.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.abs(report.eigenvalues) <= 1.0 + 1e-10)
            assert report.perron_simple
            # nonzero phase-space eigenvalues are the weights shifted by -1
            assert np.all(report.eigenvalues[1:] - 1.0 < -1e-10)

    def test_galilean_spectrum_invariance(self):
        rng = np.random.default_rng(4)
        spec = LogGradBounded(d=2, decay=1.0)
        for _ in range(20):
            q = rng.uniform(0, 3, (8, 2))
            rep1 = spectrum(interaction_matrix(positions_state(q), spec))
            rep2 = spectrum(interaction_matrix(positions_state(q + rng.standard_normal(2)),
                                               spec))
            assert np.max(np.abs(rep1.eigenvalues - rep2.eigenvalues)) < 1e-10

    def test_gap_connectivity_equivalence(self):
        # positive gap exactly when the compact-support graph is connected
        from flockkit import build_graph, is_connected
        rng = np.random.default_rng(12)
        spec = CompactBump(d=2, radius=1.0)
        seen_disconnected = 0
        for _ in range(50):
            n = int(rng.integers(2, 12))
            q = rng.uniform(0, 3.0, (n, 2))
            state = positions_state(q)
            connected = is_connected(build_graph(state, spec))
            rep = spectrum(interaction_matrix(state, spec))
            assert (rep.gap > 1e-10) == connected
            seen_disconnected += not connected
        assert seen_disconnected > 0  # the sample must exercise both branches


class TestVelocityProjector:
    def test_uniform_configuration_matches_barycenter(self):
        state = positions_state(np.zeros((5, 2)))
        p = velocity_projector(interaction_matrix(state, CompactBump(d=2, radius=1.0)))
        np.testing.assert_allclose(p, np.full((5, 5), 0.2), atol=1e-15)

    def test_idempotent_and_commutes(self):
        rng = np.random.default_rng(5)
        spec = CompactBump(d=2, radius=1.0)
        for _ in range(10):
            m = interaction_matrix(random_connected_state(rng), spec)
            p = velocity_projector(m)
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            np.testing.assert_allclose(m.a @ p, p, atol=1e-10)
            np.testing.assert_allclose(p @ m.a, p, atol=1e-10)

    def test_reducible_rejected(self):
        state = positions_state([[0, 0], [5, 0]])
        m = interaction_matrix(state, CompactBump(d=2, radius=1.0))
        with pytest.raises(PreconditionError):
            velocity_projector(m)


class TestOperatorNorm:
    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            b = rng.standard_normal((7, 7))
            assert operator_norm(b) == pytest.approx(
                float(np.linalg.svd(b, compute_uv=False)[0]), rel=1e-10)


class TestBNorm:
    def test_identical_configurations_give_zero(self):
        rng = np.random.default_rng(7)
        q = rng.uniform(0, 2, (6, 2))
        report = b_norm_check(q, q, CompactBump(d=2, radius=1.0))
        assert report.lhs == pytest.approx(0.0, abs=1e-14)
        assert report.rhs == pytest.approx(0.0, abs=1e-14)
        assert report.ok

    def test_bound_holds_on_random_perturbations(self):
        rng = np.random.default_rng(8)
        spec = LogGradBounded(d=2, decay=1.0)
        for _ in range(20):
            q0 = rng.uniform(0, 2.5, (8, 2))
            qt = q0 + 0.1 * rng.standard_normal((8, 2))
            report = b_norm_check(qt, q0, spec)
            assert report.lhs <= report.rhs + 1e-12

    def test_bound_holds_along_trajectory(self):
        rng = np.random.default_rng(9)
        spec = LogGradBounded(d=2, decay=1.0)
        q = np.zeros((8, 2))
        q[:, 0] = 0.5 * np.arange(8)
        p = np.tile([0.2, 0.0], (8, 1)) + 0.05 * rng.standard_normal((8, 2))
        w0 = ParticleEnsemble(FreeSpace(2), q, p)
        traj = integrate(w0, spec, Plain(), T=2.0, dt=0.01, save_every=20)
        for k in range(traj.n_frames):
            report = b_norm_check(traj.q[k], traj.q[0], spec)
            assert report.lhs <= report.rhs + 1e-12
            assert report.eta > 0.0  # monotone radial family certifies a bound

    def test_eta_grid_oracle_dominates_certified_eta(self):
        rng = np.random.default_rng(10)
        spec = LogGradBounded(d=2, decay=1.0)
        for _ in range(10):
            q0 = rng.uniform(0, 2, (6, 2))
            qt = q0 + 0.3 * rng.standard_normal((6, 2))
            report = b_norm_check(qt, q0, spec)
            dense = b_norm_check(qt, q0, spec, n_s=1000).eta_grid
            assert dense >= report.eta - 1e-14
            assert report.eta_grid >= report.eta - 1e-14

    def test_non_monotone_family_falls_back_to_zero_eta(self):
        from flockkit import GaussianPeriodized
        spec = GaussianPeriodized(d=2, width=1.0, period=10.0)
        rng = np.random.default_rng(11)
        q0 = rng.uniform(0, 3, (5, 2))
        report = b_norm_check(q0 + 0.1, q0, spec)
        assert report.eta == 0.0
