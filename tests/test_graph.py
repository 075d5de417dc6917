import numpy as np
import pytest

from flockkit import (
    CompactBump,
    FreeSpace,
    GaussianPeriodized,
    ParticleEnsemble,
    Plain,
    Torus,
    build_graph,
    detect_flocking,
    integrate,
    interaction_matrix,
    is_connected,
)
from flockkit.graph import CommGraph


def state_at(positions, velocities=None, d=2):
    q = np.asarray(positions, dtype=float)
    p = np.zeros_like(q) if velocities is None else np.asarray(velocities, dtype=float)
    return ParticleEnsemble(FreeSpace(d), q, p)


def union_find_connected(adjacency):
    n = adjacency.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i, j]:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(n)}) == 1


class TestBuildGraph:
    def test_overlapping_pair_connected(self):
        g = build_graph(state_at([[0, 0], [0, 0]]), CompactBump(d=2, radius=1.0))
        assert g.adjacency[0, 1] and is_connected(g)

    def test_pair_beyond_support_disconnected(self):
        g = build_graph(state_at([[0, 0], [2, 0]]), CompactBump(d=2, radius=1.0))
        assert not g.adjacency[0, 1] and not is_connected(g)

    def test_chain_and_broken_chain(self):
        spec = CompactBump(d=2, radius=1.0)
        chain = [[0.9 * k, 0.0] for k in range(5)]
        assert is_connected(build_graph(state_at(chain), spec))
        broken = [chain[0], chain[1], chain[3], chain[4]]
        assert not is_connected(build_graph(state_at(broken), spec))

    def test_adjacency_symmetric(self):
        rng = np.random.default_rng(0)
        for spec in (CompactBump(d=2, radius=1.0),
                     GaussianPeriodized(d=2, width=1.0, period=8.0)):
            q = rng.uniform(0, 8, (15, 2))
            dom = Torus(2, 8.0) if isinstance(spec, GaussianPeriodized) else FreeSpace(2)
            g = build_graph(ParticleEnsemble(dom, q, np.zeros_like(q)), spec,
                            threshold=0.01 if isinstance(spec, GaussianPeriodized) else 0.0)
            np.testing.assert_array_equal(g.adjacency, g.adjacency.T)

    def test_full_support_graph_complete_at_zero_threshold(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(0, 10, (8, 2))
        dom = Torus(2, 10.0)
        spec = GaussianPeriodized(d=2, width=1.0, period=10.0)
        g = build_graph(ParticleEnsemble(dom, q, np.zeros_like(q)), spec)
        assert np.all(g.adjacency)

    def test_radius_monotonicity_preserves_connectivity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.uniform(0, 3, (10, 2))
            small = build_graph(state_at(q), CompactBump(d=2, radius=1.0))
            if is_connected(small):
                big = build_graph(state_at(q), CompactBump(d=2, radius=1.5))
                assert is_connected(big)


class TestIsConnected:
    def test_single_vertex(self):
        assert is_connected(CommGraph(np.ones((1, 1), dtype=bool)))

    def test_two_disjoint_pairs(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        np.fill_diagonal(adj, True)
        assert not is_connected(CommGraph(adj))

    def test_matches_union_find_on_random_geometric_graphs(self):
        rng = np.random.default_rng(3)
        spec = CompactBump(d=2, radius=1.0)
        for _ in range(100):
            n = rng.integers(2, 12)
            q = rng.uniform(0, 3, (n, 2))
            g = build_graph(state_at(q), spec)
            assert is_connected(g) == union_find_connected(g.adjacency)

    def test_irreducibility_equivalence(self):
        # connectivity of the graph equals positivity of (I + A)^(n-1)
        rng = np.random.default_rng(4)
        spec = CompactBump(d=2, radius=1.0)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            q = rng.uniform(0, 2.5, (n, 2))
            state = state_at(q)
            g = build_graph(state, spec)
            a = interaction_matrix(state, spec).a
            power = np.linalg.matrix_power(np.eye(n) + a, n - 1)
            assert is_connected(g) == bool(np.all(power > 0))

    def test_matches_scipy_connected_components(self):
        # oracle: scipy's undirected component count, on symmetric and asymmetric
        # adjacency with self-loops and isolated vertices, down to n = 1 and n = 0
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(5)
        cases = [np.zeros((0, 0), dtype=bool), np.zeros((1, 1), dtype=bool),
                 np.ones((1, 1), dtype=bool), np.eye(3, dtype=bool),
                 np.eye(4, k=1, dtype=bool), np.eye(4, k=-2, dtype=bool)]
        for k in range(400):
            n = int(rng.integers(1, 30))
            a = rng.random((n, n)) < rng.uniform(0.0, 0.3)
            if k % 2:
                a |= a.T
            if k % 3 == 0:
                isolated = rng.integers(n)
                a[isolated, :] = a[:, isolated] = False
            cases.append(a)
        for a in cases:
            expected = connected_components(a, directed=False)[0] == 1
            assert is_connected(CommGraph(a)) == expected, a.astype(int)
        assert not is_connected(CommGraph(np.zeros((0, 0), dtype=bool)))


class TestDetectFlocking:
    def test_aligned_connected_cluster_flocks_from_start(self):
        q = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        p = np.tile([0.3, 0.1], (3, 1))
        w0 = ParticleEnsemble(FreeSpace(2), q, p)
        spec = CompactBump(d=2, radius=1.0)
        traj = integrate(w0, spec, Plain(), T=2.0, dt=0.01, save_every=20)
        report = detect_flocking(traj, spec, radius=1e-6, window=1.0)
        assert report.flocking
        assert report.t_detect == 0.0
        np.testing.assert_allclose(report.v, [0.3, 0.1], atol=1e-12)

    def test_counter_moving_disconnected_pair(self):
        q = np.array([[0.0, 0.0], [5.0, 0.0]])
        p = np.array([[0.0, 0.5], [0.0, -0.5]])
        w0 = ParticleEnsemble(FreeSpace(2), q, p)
        spec = CompactBump(d=2, radius=1.0)
        traj = integrate(w0, spec, Plain(), T=2.0, dt=0.01, save_every=20)
        report = detect_flocking(traj, spec, radius=10.0, window=1.0)
        assert not report.flocking and report.v is None

    def test_window_slack_is_relative_to_the_frame_spacing(self):
        # an absolute 1e-12 slack used to pull the unaligned first frame into
        # a window of 1e-13 that holds only the last two frames
        from flockkit import Trajectory
        q = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        p = np.stack([np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]])]
                     + [np.tile([0.3, 0.1], (3, 1))] * 2)
        traj = Trajectory(FreeSpace(2), np.array([0.0, 1e-13, 2e-13]),
                          np.stack([q] * 3), p, np.stack([q] * 3))
        report = detect_flocking(traj, CompactBump(d=2, radius=1.0), radius=1e-6,
                                 window=1e-13)
        assert report.flocking and report.t_detect == 1e-13

    def test_window_longer_than_span_rejected(self):
        w0 = ParticleEnsemble(FreeSpace(2), np.zeros((2, 2)), np.zeros((2, 2)))
        spec = CompactBump(d=2, radius=1.0)
        traj = integrate(w0, spec, Plain(), T=1.0, dt=0.1)
        with pytest.raises(Exception):
            detect_flocking(traj, spec, radius=0.1, window=2.0)
