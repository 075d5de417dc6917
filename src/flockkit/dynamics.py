"""N-particle alignment dynamics and the one RK4 step loop it shares with
the kinetic cloud and characteristics integrators.

The velocity of every particle relaxes toward the interaction-weighted
average velocity of its neighbours; the weight of particle ``j`` in the
update of particle ``i`` is ``U(q_i - q_j)`` divided by the i-th row mass
(plus ``epsilon`` in the regularized variant).  States with all velocities
equal form an invariant manifold; :func:`dist_to_manifold` measures the
distance to it and the ``check_*`` helpers certify the ball-invariance and
stability properties of trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Iterator, Union

import numpy as np

from ._kernels import alignment_sums
from .errors import InputError, NumericalError
from .geometry import Domain, PotentialSpec, Torus, _squared_norm, wrap_positions

__all__ = [
    "ParticleEnsemble",
    "Plain",
    "Regularized",
    "DynamicsMode",
    "MetricsRecord",
    "Trajectory",
    "rhs",
    "integrate",
    "barycenter_project",
    "dist_to_manifold",
    "check_velocity_ball",
    "check_mean_velocity_ball",
    "default_dt",
]

_DEN_FLOOR = 1e-30
# relative tolerance on (span / dt) being a whole number of steps
_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class Plain:
    """Unmodified alignment weights (row-stochastic)."""

    epsilon: ClassVar[float] = 0.0


@dataclass(frozen=True)
class Regularized:
    """Alignment weights with ``epsilon`` added to every row denominator."""

    epsilon: float

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")


DynamicsMode = Union[Plain, Regularized]


@dataclass
class ParticleEnsemble:
    """Positions and velocities of ``N`` particles on a domain."""

    domain: Domain
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        self.q, self.p = _phase_points(self.domain.d, self.q, self.p, "particle state",
                                       math.inf)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]

    def max_speed(self) -> float:
        return _max_speed(self.p)


@dataclass
class MetricsRecord:
    """Per-frame diagnostics attached to a trajectory."""

    t: float
    dist_to_manifold: float
    mean_velocity: np.ndarray
    second_moment: float
    max_speed: float
    connected: bool | None = None
    spectral_gap: float | None = None


@dataclass
class Trajectory:
    """Saved frames of one integration run.

    ``q`` holds wrapped positions on a torus while ``q_raw`` keeps the
    unwrapped ones (identical in free space); mean-position identities must
    be checked on the unwrapped coordinates.
    """

    domain: Domain
    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    q_raw: np.ndarray
    metrics: list[MetricsRecord] = field(default_factory=list)
    max_speed_overall: float = 0.0
    dt: float = 0.0

    @property
    def n_frames(self) -> int:
        return len(self.times)

    def state_at(self, k: int) -> ParticleEnsemble:
        return ParticleEnsemble(self.domain, self.q[k].copy(), self.p[k].copy())


def rhs(state: ParticleEnsemble, spec: PotentialSpec, mode: DynamicsMode = Plain()
        ) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative ``(dq, dp)`` of the particle system."""
    if not (np.isfinite(state.q).all() and np.isfinite(state.p).all()):
        raise InputError("non-finite state passed to rhs")
    dp = _rhs_arrays(state.q, state.p, state.domain, spec, mode.epsilon)
    return state.p.copy(), dp


def _rhs_arrays(q: np.ndarray, p: np.ndarray, domain: Domain, spec: PotentialSpec,
                eps: float) -> np.ndarray:
    den, s = alignment_sums(spec, domain, q, p, q, p)  # fresh arrays, divided in place
    if not eps and np.minimum.reduce(den) < _DEN_FLOOR:
        raise NumericalError(
            "interaction row mass underflowed below 1e-30 in plain mode; "
            "check the potential configuration"
        )
    return _weighted_average(den, s, eps)


def _weighted_average(den: np.ndarray, w: np.ndarray, eps: float) -> np.ndarray:
    """The one alignment division: rows of ``w`` over ``den + eps``, both in place.
    Callers scale ``eps`` and guard a plain-mode zero mass themselves."""
    if eps:
        den += eps
    return np.divide(w, den[:, None], out=w)


def _rk4_increment(accel: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   z: np.ndarray, h: float, step: int, t: float) -> np.ndarray:
    """Classical fourth-order increment ``[dx, dv]`` of ``z = [x, v]`` under ``x' = v``,
    ``v' = accel(x, v)`` (Hairer, Norsett & Wanner, *Solving ODEs I*, II.1); ``h`` may be
    negative for backward flow.  Stage ``i`` is one ``[x_i, v_i, a_i]`` buffer whose state
    and slope overlap, so each update is one elementwise call over both halves.  A stage's
    ``NumericalError`` is raised again naming ``step`` and its end time ``t``.
    """
    stages = np.empty((4, 3, *z.shape[1:]))
    stages[0, :2] = z
    try:
        for i, c in enumerate((0.5 * h, 0.5 * h, h)):
            stages[i, 2] = accel(stages[i, 0], stages[i, 1])
            np.add(z, c * stages[i, 1:], out=stages[i + 1, :2])
        stages[3, 2] = accel(stages[3, 0], stages[3, 1])
    except NumericalError as exc:
        raise NumericalError(f"{exc}; in an RK4 stage of step {step} (t = {t:.6g})") from exc
    k = stages[:, 1:]
    return (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])


def _rk4_steps(accel: Callable[[np.ndarray, np.ndarray], np.ndarray],
               x: np.ndarray, v: np.ndarray, h: float, n_steps: int, what: str,
               t0: float = 0.0, wrap: Callable[[np.ndarray], np.ndarray] | None = None
               ) -> Iterator[tuple[int, float, np.ndarray, np.ndarray, np.ndarray]]:
    """The package's one RK4 step loop: yields ``(step, t = t0 + step h, dx, x, v)``
    after each step, positions passed through ``wrap`` if given; a non-finite state
    raises ``NumericalError`` naming ``what``.  The yielded arrays are fresh and never
    mutated, so callers keep them as frames.  A step is taken only when the caller
    asks for it, so ``accel`` sees the caller state set after the previous yield.
    """
    z = np.stack([x, v])
    for step in range(1, n_steps + 1):
        t = t0 + step * h
        dz = _rk4_increment(accel, z, h, step, t)
        z = z + dz
        if wrap is not None:
            z[0] = wrap(z[0])
        _require_finite(what, step, t, z)
        yield step, t, dz[0], z[0], z[1]


def _grid_steps(span: float, dt: float, name: str) -> int:
    """Number of ``dt`` steps in ``span``; ``InputError`` unless it is a whole number >= 0,
    and zero only for a span of exactly 0 (a span far below ``dt`` is off the grid)."""
    if not dt > 0.0:
        raise InputError(f"dt must be positive, got {dt}")
    ratio = span / dt
    steps = int(round(ratio))
    if (steps < 0 or (steps == 0 and span != 0.0)
            or abs(ratio - steps) > _GRID_RTOL * max(1.0, abs(ratio))):
        raise InputError(
            f"{name} = {span!r} is not on the nonnegative step grid of dt = {dt!r} "
            f"({name}/dt = {ratio!r})"
        )
    return steps


def _grid_indices(times: list[float], t0: float, h: float, n_steps: int,
                  name: str) -> list[int]:
    """Step ``k`` of each time ``t0 + k h``; ``InputError`` unless ``0 <= k <= n_steps``."""
    steps = [_grid_steps(s - t0 if h > 0 else t0 - s, abs(h), name) for s in times]
    if max(steps) > n_steps:
        raise InputError(f"{name}s {times} must lie within {n_steps} steps of {t0!r}")
    return steps


def _time_slack(times: np.ndarray) -> float:
    """A billionth of the smallest spacing of an increasing time grid (0 for one time);
    a time this close below a grid time counts as reaching it, as on the step grid."""
    return _GRID_RTOL * float(np.diff(times).min()) if len(times) > 1 else 0.0


def _require_finite(what: str, step: int, t: float, state: np.ndarray) -> None:
    """``NumericalError`` naming the step and the time if the state is non-finite."""
    if not np.isfinite(state).all():
        raise NumericalError(
            f"non-finite {what} at step {step} (t = {t:.6g}); "
            "reduce dt or check the configuration"
        )


def _phase_points(d: int, x, v, what: str, cap: float | None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The package's one check of a set of phase points: positions and velocities as
    float ``(n, d)`` arrays, or ``InputError`` naming ``what`` for mismatched shapes, no
    points, non-finite entries, or (unless ``cap`` is None) a speed that overflows or
    exceeds ``cap``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if x.shape != v.shape or x.ndim != 2 or x.shape[1] != d:
        raise InputError(f"positions {x.shape} and velocities {v.shape} in {what} "
                         f"must share shape (n, {d})")
    if x.shape[0] < 1:
        raise InputError(f"at least one point is required in {what}")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise InputError(f"non-finite entries in {what}")
    if cap is not None:
        with np.errstate(over="ignore"):  # an overflowing speed is refused below
            top = _max_speed(v)
        if not (top <= cap and math.isfinite(top)):
            limit = "finite" if cap == math.inf else f"at most {cap!r}"
            raise InputError(f"speeds in {what} must be {limit}; max speed {top:.6g}")
    return x, v


def _max_speed(p: np.ndarray) -> float:
    """The bits of ``np.sqrt(np.max(np.sum(np.square(p), axis=1)))``, with fewer calls."""
    return math.sqrt(_squared_norm(p).max())


def _frame_metrics(t: float, p: np.ndarray) -> MetricsRecord:
    n = p.shape[0]
    pbar = p.mean(axis=0)
    centered = p - pbar
    return MetricsRecord(
        t=t,
        dist_to_manifold=float(np.sqrt(np.sum(np.square(centered)))),
        mean_velocity=pbar,
        second_moment=float(np.sum(np.square(p)) / n),
        max_speed=_max_speed(p),
    )


def integrate(w0: ParticleEnsemble, spec: PotentialSpec, mode: DynamicsMode,
              T: float, dt: float, save_every: int = 1) -> Trajectory:
    """Integrate the system with the classical fourth-order one-step method.

    The grid is uniform with step ``dt``; ``T`` must be a whole multiple of
    ``dt`` (to a relative 1e-9), otherwise ``InputError`` is raised, and the
    final frame is labelled ``T``.  Every ``save_every``-th step (plus the
    final one) is recorded.  Torus positions are wrapped once per step; all
    displacement evaluations use minimum images, so the right-hand side is
    wrap-consistent.  Deterministic for fixed inputs.
    """
    n_steps = _grid_steps(float(T), dt, "T")
    if (isinstance(save_every, bool) or not isinstance(save_every, (int, np.integer))
            or save_every < 1):
        raise InputError(f"save_every must be an integer >= 1, got {save_every!r}")
    domain = w0.domain
    eps = mode.epsilon
    q_raw = w0.q
    q = wrap_positions(domain, q_raw)
    p = w0.p

    saved = [(0.0, q, p, q_raw)]
    max_speed = _max_speed(p)

    def accel(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _rhs_arrays(x, v, domain, spec, eps)

    wrap = partial(wrap_positions, domain) if isinstance(domain, Torus) else None
    for step, t, dq, q, p in _rk4_steps(accel, q, p, dt, n_steps, "state", wrap=wrap):
        q_raw = q_raw + dq
        max_speed = max(max_speed, _max_speed(p))
        if step % save_every == 0 or step == n_steps:
            saved.append((float(T) if step == n_steps else t, q, p, q_raw))

    times, qs, ps, q_raws = zip(*saved)
    return Trajectory(
        domain=domain,
        times=np.asarray(times),
        q=np.stack(qs),
        p=np.stack(ps),
        q_raw=np.stack(q_raws),
        metrics=[_frame_metrics(t, pk) for t, pk in zip(times, ps)],
        max_speed_overall=max_speed,
        dt=dt,
    )


def barycenter_project(p: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the subspace of equal rows."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    mean = p.mean(axis=0)
    return np.tile(mean, (p.shape[0], 1))


def dist_to_manifold(state: ParticleEnsemble) -> float:
    """Distance from the state to the equal-velocity manifold, ``|p - mean(p)|``."""
    centered = state.p - state.p.mean(axis=0)
    return float(np.sqrt(np.sum(np.square(centered))))


@dataclass
class BallReport:
    """Whether all speeds stayed inside the initial speed ball."""

    radius: float
    max_speed: float
    tolerance: float
    ok: bool


@dataclass
class MeanBallReport:
    """Whether velocities stayed near the initial mean and the manifold."""

    epsilon: float
    max_dev_from_initial_mean: float
    max_dist_to_manifold: float
    tolerance: float
    ok: bool


def check_velocity_ball(traj: Trajectory, r: float, tolerance: float = 1e-9) -> BallReport:
    """Certify that speeds never exceeded ``r`` (up to ``tolerance``); an
    overflowing (infinite) speed never passes, whatever ``r``."""
    frame_max = float(max(rec.max_speed for rec in traj.metrics))
    max_speed = max(frame_max, traj.max_speed_overall)
    return BallReport(radius=r, max_speed=max_speed, tolerance=tolerance,
                      ok=max_speed <= r + tolerance and math.isfinite(max_speed))


def check_mean_velocity_ball(traj: Trajectory, epsilon: float,
                             tolerance: float = 1e-9) -> MeanBallReport:
    """Certify stability around the initial mean velocity.

    Checks ``|p(t) - mean(p(0))| <= epsilon`` and the induced neighbourhood
    bound ``dist(w(t), I) <= 2 epsilon`` on every saved frame.
    """
    p0_mean = traj.p[0].mean(axis=0)
    devs = traj.p - p0_mean[None, None, :]
    max_dev = float(np.max(np.sqrt(np.sum(np.square(devs), axis=(1, 2)))))
    max_dist = float(max(rec.dist_to_manifold for rec in traj.metrics))
    ok = (max_dev <= epsilon + tolerance) and (max_dist <= 2.0 * epsilon + tolerance)
    return MeanBallReport(epsilon=epsilon, max_dev_from_initial_mean=max_dev,
                          max_dist_to_manifold=max_dist, tolerance=tolerance, ok=ok)


def interaction_range(spec: PotentialSpec) -> float:
    """Length scale of the interaction used by the default step rule."""
    for name in ("radius", "width", "decay"):
        if hasattr(spec, name):
            return float(getattr(spec, name))
    raise InputError(f"unknown potential family {type(spec).__name__}")


def default_dt(spec: PotentialSpec, w0: ParticleEnsemble) -> float:
    """Default step: 1e-3 times interaction range over maximal initial speed."""
    speed = max(w0.max_speed(), 1e-6)
    return 1e-3 * interaction_range(spec) / speed
