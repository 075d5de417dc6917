"""Communication graph, connectivity and flocking detection.

Two particles communicate when their pairwise interaction exceeds a
threshold (zero by default, so compact-support families give the literal
interaction graph while full-support families give a complete graph unless
an explicit threshold is supplied for effective-connectivity diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import kernel_table
from .dynamics import ParticleEnsemble, Trajectory, _time_slack
from .errors import InputError
from .geometry import PotentialSpec

__all__ = ["CommGraph", "FlockReport", "build_graph", "is_connected", "detect_flocking"]


@dataclass
class CommGraph:
    """Undirected communication graph on particle indices."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"adjacency must be square, got shape {a.shape}")
        self.adjacency = a

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass
class FlockReport:
    """Outcome of flocking detection over a trailing window."""

    flocking: bool
    v: np.ndarray | None
    t_detect: float | None
    window: float
    radius: float


def build_graph(state: ParticleEnsemble, spec: PotentialSpec,
                threshold: float = 0.0) -> CommGraph:
    """Graph with an edge wherever the pairwise interaction exceeds ``threshold``."""
    if threshold < 0.0:
        raise InputError(f"threshold must be nonnegative, got {threshold}")
    u = kernel_table(spec, state.domain, state.q)
    return CommGraph(adjacency=u > threshold)


def is_connected(g: CommGraph) -> bool:
    """Whether the undirected graph has one connected component (self-loops ignored).

    A breadth-first search from vertex 0 over ``a | a.T``; the empty graph is not connected.
    """
    a = g.adjacency | g.adjacency.T
    seen = np.arange(g.n) == 0
    frontier = seen.copy()
    while frontier.any():
        frontier = a[frontier].any(axis=0) & ~seen
        seen |= frontier
    return g.n > 0 and bool(seen.all())


def detect_flocking(traj: Trajectory, spec: PotentialSpec, radius: float,
                    window: float, threshold: float = 0.0) -> FlockReport:
    """Detect flocking: common velocity ball plus persistent connectivity.

    The candidate common velocity is the terminal mean velocity.  The system
    is flagged as flocking when every saved frame in the trailing ``window``
    has all velocities within ``radius`` of that candidate and a connected
    communication graph.  ``t_detect`` is the earliest time from which both
    conditions hold through the end of the run.
    """
    if not radius > 0.0:
        raise InputError(f"radius must be positive, got {radius}")
    span = float(traj.times[-1] - traj.times[0])
    if window > span:
        raise InputError(f"window {window} exceeds trajectory span {span}")
    v = traj.p[-1].mean(axis=0)

    ok = np.empty(traj.n_frames, dtype=bool)
    for k in range(traj.n_frames):
        devs = np.sqrt(np.sum(np.square(traj.p[k] - v[None, :]), axis=1))
        in_ball = bool(np.max(devs) <= radius)
        connected = in_ball and is_connected(build_graph(traj.state_at(k), spec, threshold))
        ok[k] = in_ball and connected

    # earliest frame from which every later frame satisfies both conditions
    suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
    t_detect = None
    if suffix_ok.any():
        t_detect = float(traj.times[int(np.argmax(suffix_ok))])

    window_start = traj.times[-1] - window
    window_frames = traj.times >= window_start - _time_slack(traj.times)
    flocking = bool(ok[window_frames].all())
    return FlockReport(flocking=flocking, v=v if flocking else None,
                       t_detect=t_detect, window=window, radius=radius)
