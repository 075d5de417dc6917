"""Mean-field machinery: velocity-increment field, characteristics flow,
transport distance, convergence and stability experiments, and the fixed
point iteration for the kinetic equation.

Measures are uniform-weight point clouds in phase space.  A measure curve
is a time grid of clouds, interpolated piecewise-constant from the left;
characteristics integrate the non-autonomous system driven by such a
curve, while :func:`evolve_cloud` runs the fully coupled empirical
dynamics (which is itself a measure solution of the kinetic equation).
Both iterate the one RK4 step loop of :mod:`flockkit.dynamics` and only
pick the frames they record.
The transport distance is the exact optimal-assignment cost under the
phase-space metric, clipped at one; it dominates the bounded-Lipschitz
distance, so every upper bound certified with it holds a fortiori.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._kernels import alignment_sums
from .dynamics import (
    DynamicsMode,
    Plain,
    _GRID_RTOL,
    _float_array,
    _grid_indices,
    _grid_steps,
    _phase_points,
    _rk4_steps,
    _time_slack,
    _weighted_average,
)
from .errors import ConfigError, DegenerateInputError, InputError, NumericalError
from .geometry import (
    Domain,
    PotentialSpec,
    Torus,
    _squared_norm,
    displacement_table,
    potential_inf_lower,
)

__all__ = [
    "PointCloud",
    "MeasureCurve",
    "FieldSpec",
    "FieldConstants",
    "mean_field_batch",
    "lipschitz_probe",
    "LipschitzReport",
    "flow_characteristics",
    "FlowPath",
    "transport_distance",
    "evolve_cloud",
    "mean_field_convergence",
    "stability_bound_check",
    "StabilityReport",
    "picard_iterate",
    "PicardResult",
    "curve_distance",
    "field_constants",
]

# the kinematic constraint |v| <= 1 of phase space X x B_1, to rounding
_UNIT_BALL = 1.0 + 1e-9


@dataclass
class PointCloud:
    """Uniform-weight empirical measure on phase space ``X x B_1``."""

    domain: Domain
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.x, self.v = _phase_points(self.domain.d, self.x, self.v, "cloud", _UNIT_BALL)

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass
class MeasureCurve:
    """Time grid of clouds with piecewise-constant-left interpolation."""

    domain: Domain
    times: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.times = _float_array(self.times, "curve times")
        self.x = _float_array(self.x, "curve positions")
        self.v = _float_array(self.v, "curve velocities")
        if not (self.x.ndim == self.v.ndim == 3
                and len(self.x) == len(self.v) == len(self.times)):
            raise InputError("curve arrays must have one (n, d) cloud per grid time")
        for k, t in enumerate(self.times):
            _phase_points(self.domain.d, self.x[k], self.v[k], f"curve cloud at t = {t:g}",
                          _UNIT_BALL)
        if np.any(np.diff(self.times) <= 0.0):
            raise InputError("curve grid times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def index_at(self, t: float) -> int:
        """Index of the last grid time reached by ``t`` (to :func:`_time_slack`)."""
        idx = int(np.searchsorted(self.times, t + _time_slack(self.times), side="right") - 1)
        return min(max(idx, 0), len(self.times) - 1)


@dataclass(frozen=True)
class FieldSpec:
    """Interaction family plus dynamics mode driving the mean-field increment."""

    spec: PotentialSpec
    mode: DynamicsMode = Plain()


def _validate_field(field: FieldSpec, domain: Domain) -> None:
    if field.spec.d != domain.d:
        raise ConfigError(
            f"field dimension {field.spec.d} does not match domain dimension {domain.d}"
        )
    if isinstance(field.mode, Plain):
        if not isinstance(domain, Torus):
            raise ConfigError(
                "plain-mode mean-field dynamics requires a torus domain "
                "(free space needs the regularized mode)"
            )
        if not potential_inf_lower(field.spec, domain) > 0.0:
            raise ConfigError(
                "plain-mode mean-field dynamics requires an interaction with "
                "positive infimum on the torus (periodized smooth families)"
            )


def _field_rhs(x: np.ndarray, v: np.ndarray, cloud_x: np.ndarray, cloud_v: np.ndarray,
               field: FieldSpec, domain: Domain, literal: bool = False) -> np.ndarray:
    """Velocity increment of targets ``(x, v)`` against a source cloud (batch).

    The default is the convention of the regularized particle system itself:
    the interaction-weighted average of the velocity differences, with
    ``epsilon`` added to the 1/n-normalised mass.  Its velocity divergence is
    ``-d * mass/(mass + epsilon)`` and it vanishes where the interaction
    mass does, which the volume-transport and entropy laws rely on.  With
    ``literal=True`` the increment is instead the weighted average velocity
    over the regularized mass minus ``v`` (the textbook display), which
    returns ``-v`` at zero overlap; the two coincide in plain mode.
    """
    den, s = alignment_sums(field.spec, domain, x, v, cloud_x, cloud_v)  # fresh, divided in place
    if isinstance(field.mode, Plain) and np.minimum.reduce(den) <= 0.0:
        # beyond D / (2 eps) the minimum image can be off by half a cell
        reach = max(np.abs(x).max(), np.abs(cloud_x).max())
        if not reach < 0.5 * domain.size / np.finfo(float).eps:
            raise NumericalError(f"zero interaction mass at positions up to {reach:.3g}, "
                                 "beyond the minimum image's precision: the state blew up")
        raise ConfigError(
            "zero interaction mass in plain mode; the field-spec invariant "
            "(positive infimum on the torus) is violated"
        )
    eps_total = field.mode.epsilon * cloud_x.shape[0]
    if literal and eps_total:
        s -= eps_total * v
    return _weighted_average(den, s, eps_total)


def mean_field_batch(x: np.ndarray, v: np.ndarray, cloud: PointCloud,
                     field: FieldSpec) -> np.ndarray:
    """Mean-field velocity increment at each row of ``x`` and ``v``, which must be phase
    points (finite, velocities in the unit ball); bounded by two.

    Uses the literal regularized display (weighted average velocity over the
    regularized mass, minus ``v``), which returns ``-v`` at zero overlap.
    """
    _validate_field(field, cloud.domain)
    x, v = _phase_points(cloud.domain.d, x, v, "mean-field targets", _UNIT_BALL)
    return _field_rhs(x, v, cloud.x, cloud.v, field, cloud.domain, literal=True)


# ---------------------------------------------------------------------------
# Lipschitz probes


@dataclass
class LipschitzReport:
    lemma: str
    L_emp: float
    L_paper: float

    @property
    def ok(self) -> bool:
        return self.L_emp <= self.L_paper + 1e-12


def lipschitz_probe(field: FieldSpec, cloud: PointCloud, samples: int,
                    rng: np.random.Generator | None = None) -> LipschitzReport:
    """Empirical Lipschitz quotient of the averaged field versus the known constant.

    Matches the field against one of the three Lipschitz regimes: bounded
    logarithmic gradient (constant ``2K``), periodized Gaussian on the torus
    (constant ``D/R^2``), or the regularized field with compact support and
    gradient supremum at most one (constant ``2/epsilon``).  The quotient is
    the componentwise difference ratio maximized over sampled position pairs.
    """
    rng = rng or np.random.default_rng(0)
    spec = field.spec
    domain = cloud.domain
    consts = field_constants(field, domain)
    _validate_field(field, domain)

    if isinstance(domain, Torus):
        xs = rng.uniform(0.0, domain.size, size=(samples, domain.d))
        zs = rng.uniform(0.0, domain.size, size=(samples, domain.d))
    else:
        lo = cloud.x.min(axis=0) - 2.0 * spec.radius
        hi = cloud.x.max(axis=0) + 2.0 * spec.radius
        xs = rng.uniform(lo, hi, size=(samples, domain.d))
        zs = xs + rng.uniform(-spec.radius, spec.radius, size=(samples, domain.d))

    # at zero velocity the increment is the local average cloud velocity
    v = np.zeros((samples, domain.d))
    fx = _field_rhs(xs, v, cloud.x, cloud.v, field, domain)
    fz = _field_rhs(zs, v, cloud.x, cloud.v, field, domain)

    delta = xs - zs
    if isinstance(domain, Torus):
        delta -= domain.size * np.rint(delta / domain.size)
    dist = np.sqrt(np.sum(np.square(delta), axis=1))
    keep = dist > 1e-9
    quot = np.max(np.abs(fx - fz), axis=1)[keep] / dist[keep]
    return LipschitzReport(lemma=consts.lemma, L_emp=float(quot.max()), L_paper=consts.L)


# ---------------------------------------------------------------------------
# Characteristics


@dataclass
class FlowPath:
    """Recorded characteristics of a batch of phase points."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    overlap_integral: np.ndarray | None = None

    def final(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x[-1], self.v[-1]


def _overlap_fraction(x: np.ndarray, curve: MeasureCurve, field: FieldSpec,
                      t: float) -> np.ndarray:
    """Regularized overlap fraction ``mass / (mass + epsilon)`` at positions ``x``.

    In plain mode ``epsilon`` is 0 and the mass positive, so it is exactly one.
    """
    if isinstance(field.mode, Plain):
        return np.ones(x.shape[0])
    k = curve.index_at(t)
    den, _ = alignment_sums(field.spec, curve.domain, x, np.zeros_like(x),
                            curve.x[k], curve.v[k])
    mass = den / curve.x[k].shape[0]
    return mass / (mass + field.mode.epsilon)


def _as_batch(w0) -> tuple:
    if isinstance(w0, PointCloud):
        return w0.x, w0.v
    if isinstance(w0, tuple):
        x, v = w0
        return x, v
    arr = np.atleast_2d(np.asarray(w0, dtype=float))
    half = arr.shape[-1] // 2
    return arr[:, :half], arr[:, half:]


def flow_characteristics(w0, curve: MeasureCurve, field: FieldSpec,
                         t_final: float, dt: float, t_start: float | None = None,
                         record_times: Sequence[float] | None = None,
                         want_overlap: bool = False) -> FlowPath:
    """Integrate characteristics driven by a frozen measure curve.

    ``w0`` may be a ``(x, v)`` pair, a cloud, or a ``(m, 2d)`` batch.  The
    driving measure is frozen per step at the left grid cloud; backward flow
    (``t_final < t_start``) inverts the dynamics.  With ``want_overlap`` the
    per-point path integral of the regularized overlap fraction
    ``h = m/(m + epsilon)`` (trapezoid rule) is returned, which the
    volume-contraction diagnostics consume.  Positions are never wrapped;
    interaction evaluations use minimum images throughout.  The span from
    ``t_start`` to ``t_final`` must lie within the curve's time span, and it
    and every record time (within that span) must lie on the ``dt`` step
    grid; otherwise ``InputError`` is raised before any step is taken.
    """
    _validate_field(field, curve.domain)
    # finite starts of any speed: a start outside the unit ball is still a flow
    x, v = _phase_points(curve.domain.d, *_as_batch(w0), "characteristic starts", None)
    t0 = float(curve.times[0]) if t_start is None else float(t_start)
    t_final = float(t_final)
    backward = t_final < t0
    h = -dt if backward else dt
    n_steps = _grid_steps(abs(t_final - t0), dt, "|t_final - t_start|")
    # the step-grid rule in time: a billionth of a step or of the span
    tol = _GRID_RTOL * max(dt, abs(t_final - t0))
    span_lo, span_hi = float(curve.times[0]), float(curve.times[-1])
    for name, t in (("t_start", t0), ("t_final", t_final)):
        if not (span_lo - tol <= t <= span_hi + tol):
            raise InputError(f"{name} {t} outside curve span [{span_lo}, {span_hi}]")

    extra = [] if record_times is None else [float(s) for s in record_times]
    record = sorted(set([t0, t_final] + extra), reverse=backward)
    record_steps = _grid_indices(record, t0, h, n_steps, "record time")
    wanted = set(record_steps)
    overlap = np.zeros(x.shape[0])
    frames = {0: (x, v, overlap)}
    # the grid cloud driving the next step: in force at its start going forward,
    # at its end going backward; looked up once per step
    k = curve.index_at(t0 + h if backward else t0)

    def accel(xx: np.ndarray, vv: np.ndarray) -> np.ndarray:
        return _field_rhs(xx, vv, curve.x[k], curve.v[k], field, curve.domain)

    h_prev = _overlap_fraction(x, curve, field, t0) if want_overlap else None
    for step, t, _, x, v in _rk4_steps(accel, x, v, h, n_steps, "characteristics", t0):
        k = curve.index_at(t + h if backward else t)
        if want_overlap:
            h_now = _overlap_fraction(x, curve, field, t)
            overlap = overlap + 0.5 * abs(h) * (h_prev + h_now)
            h_prev = h_now
        if step in wanted:
            frames[step] = (x, v, overlap)

    xs, vs, overlaps = zip(*(frames[step] for step in record_steps))
    return FlowPath(times=np.asarray(record), x=np.stack(xs), v=np.stack(vs),
                    overlap_integral=np.stack(overlaps) if want_overlap else None)


# ---------------------------------------------------------------------------
# Transport distance


# pairs per block of the cost matrix: a block's difference tables stay cache-sized
_BLOCK_PAIRS = 32768


def _phase_cost(a: PointCloud, b: PointCloud) -> np.ndarray:
    # one (n, m) result filled in row blocks; per block, (sum_c dx_c^2) + (sum_c dv_c^2)
    # from coordinate-major difference tables, so every entry is the full-table value
    cost = np.empty((a.n, b.n))
    rows = max(1, _BLOCK_PAIRS // b.n)
    av = np.ascontiguousarray(a.v.T)
    bv = np.ascontiguousarray(b.v.T)[:, None, :]
    for lo in range(0, a.n, rows):
        hi = lo + rows
        block = _squared_norm(displacement_table(a.domain, a.x[lo:hi], b.x))
        block += _squared_norm((av[:, lo:hi, None] - bv).transpose(1, 2, 0))
        np.sqrt(block, out=cost[lo:hi])
    return cost


def _subsample(cloud: PointCloud, m: int, rng: np.random.Generator) -> PointCloud:
    idx = np.sort(rng.choice(cloud.n, size=m, replace=False))
    return PointCloud(cloud.domain, cloud.x[idx].copy(), cloud.v[idx].copy())


def transport_distance(a: PointCloud, b: PointCloud, max_points: int = 2000,
                       seed: int = 0) -> float:
    """Optimal-assignment phase-space distance between clouds, clipped at one.

    Exact Hungarian matching under ``sqrt(|dx|^2 + |dv|^2)`` with minimum
    images in position on a torus; both clouds must lie on one domain.
    Unequal clouds are reduced by seeded uniform subsampling of the larger
    one; clouds beyond ``max_points`` (an integer of at least one) are
    subsampled to that cap.
    """
    if a.domain != b.domain:
        raise InputError("transport distance requires clouds on the same domain; "
                         f"got {a.domain} and {b.domain}")
    if isinstance(max_points, bool) or not isinstance(max_points, (int, np.integer)) \
            or max_points < 1:
        raise InputError(f"max_points must be an integer >= 1, got {max_points!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, a.n, b.n]))
    m = min(a.n, b.n, max_points)
    if a.n != m:
        a = _subsample(a, m, rng)
    if b.n != m:
        b = _subsample(b, m, rng)
    try:  # imported here so that importing flockkit does not load scipy.optimize
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        raise ConfigError("the transport distance needs scipy, which is not installed") from None
    cost = _phase_cost(a, b)
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError as exc:  # an infinite or nan cost, from positions beyond float reach
        reach = max(np.abs(a.x).max(), np.abs(b.x).max())
        raise NumericalError(f"transport cost between clouds of {m} points with positions "
                             f"up to {reach:.3g} is not finite ({exc})") from None
    w1 = float(cost[rows, cols].mean())
    return min(w1, 1.0)


def curve_distance(a: MeasureCurve, b: MeasureCurve, alpha: float = 0.0) -> float:
    """Exponentially weighted sup over the grid of cloud transport distances."""
    if len(a.times) != len(b.times) or not np.allclose(a.times, b.times):
        raise InputError("curve distance requires matching time grids")
    best = 0.0
    for k, t in enumerate(a.times):
        w = transport_distance(PointCloud(a.domain, a.x[k], a.v[k]),
                               PointCloud(b.domain, b.x[k], b.v[k]))
        best = max(best, float(np.exp(-alpha * t)) * w)
    return best


# ---------------------------------------------------------------------------
# Cloud evolution (coupled empirical dynamics)


def evolve_cloud(cloud: PointCloud, field: FieldSpec, T: float, dt: float,
                 save_times: Sequence[float] | None = None) -> MeasureCurve:
    """Evolve a cloud under its own empirical mean-field increment.

    The resulting curve is an exact measure solution of the kinetic
    equation; in plain mode it coincides with the particle system.  ``T``
    and every save time must be whole multiples of ``dt`` (to a relative
    1e-9) within ``[0, T]``; anything else raises ``InputError`` instead of
    being dropped or recorded late.
    """
    _validate_field(field, cloud.domain)
    n_steps = _grid_steps(float(T), dt, "T")
    extra = [] if save_times is None else [float(s) for s in save_times]
    save = sorted(set([0.0, float(T)] + extra))
    save_steps = _grid_indices(save, 0.0, dt, n_steps, "save time")
    wanted = set(save_steps)

    def accel(xx: np.ndarray, vv: np.ndarray) -> np.ndarray:
        return _field_rhs(xx, vv, xx, vv, field, cloud.domain)

    frames = {0: (cloud.x, cloud.v)}
    frames.update((step, (x, v)) for step, _, _, x, v in
                  _rk4_steps(accel, cloud.x, cloud.v, dt, n_steps, "cloud state")
                  if step in wanted)
    xs, vs = zip(*(frames[step] for step in save_steps))
    return MeasureCurve(domain=cloud.domain, times=np.asarray(save),
                        x=np.stack(xs), v=np.stack(vs))


# ---------------------------------------------------------------------------
# Experiments


def mean_field_convergence(sampler: Callable[[int, np.random.Generator], PointCloud],
                           n_list: Sequence[int], n_ref: int, t_eval: float,
                           field: FieldSpec, seeds: Sequence[int], dt: float,
                           ) -> list[dict]:
    """Transport distance of finite-size evolutions to a large reference.

    For every seed, i.i.d. initial clouds of each requested size plus the
    reference size are drawn, evolved to ``t_eval``, and compared to the
    reference cloud; rows of ``(N, seed, t, W_hat)`` are returned.
    """
    rows: list[dict] = []
    for seed in seeds:
        evolved: dict[int, PointCloud] = {}
        for n in list(n_list) + [n_ref]:
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(n)]))
            cloud = sampler(int(n), rng)
            curve = evolve_cloud(cloud, field, t_eval, dt)
            evolved[n] = PointCloud(cloud.domain, curve.x[-1], curve.v[-1])
        for n in n_list:
            w = transport_distance(evolved[n], evolved[n_ref], seed=int(seed))
            rows.append({"N": int(n), "seed": int(seed), "t": float(t_eval),
                         "W_hat": float(w)})
    return rows


@dataclass
class StabilityReport:
    """Growth of the transport distance between two evolutions versus the bound."""

    c: float
    initial_distance: float
    rows: list[dict]
    ok: bool


def stability_bound_check(cloud_a: PointCloud, cloud_b: PointCloud, field: FieldSpec,
                          T: float, dt: float, n_checks: int = 8) -> StabilityReport:
    """Certify the exponential stability bound on paired cloud evolutions.

    Both clouds evolve under their own empirical dynamics; the ratio of the
    transport distance to its initial value must stay below ``exp(c t)``
    (times 1.01), with ``c`` assembled from the Lipschitz constant of
    the field and the interaction-mass lower bound.  Comparison happens in
    log space so huge bounds do not overflow.  The checks sit at the step
    grid times nearest to ``n_checks`` evenly spaced times in ``(0, T]``;
    more checks than steps would put one at ``t = 0`` and raise ``InputError``.
    """
    consts = field_constants(field, cloud_a.domain)
    n_steps = _grid_steps(float(T), dt, "T")
    if not 1 <= n_checks <= n_steps:
        raise InputError(f"n_checks = {n_checks} must lie in [1, {n_steps}], "
                         "the number of dt steps in T")
    w0 = transport_distance(cloud_a, cloud_b)
    if w0 == 0.0:
        raise DegenerateInputError("initial clouds coincide; stability ratio undefined")
    even = np.linspace(0.0, T, n_checks + 1)[1:]
    steps = np.rint(even / dt)
    on_grid = np.abs(even / dt - steps) <= _GRID_RTOL * np.maximum(1.0, steps)
    check_times = np.unique(np.where(on_grid, even, steps * dt))
    curve_a = evolve_cloud(cloud_a, field, T, dt, save_times=check_times)
    curve_b = evolve_cloud(cloud_b, field, T, dt, save_times=check_times)
    rows = []
    ok = True
    # the curves are saved at 0 and exactly at the check times, in order
    for k, t in enumerate(check_times, start=1):
        w = transport_distance(PointCloud(curve_a.domain, curve_a.x[k], curve_a.v[k]),
                               PointCloud(curve_b.domain, curve_b.x[k], curve_b.v[k]))
        ratio = w / w0
        log_bound = consts.c * float(t)
        row_ok = np.log(max(ratio, 1e-300)) <= log_bound + np.log(1.01)
        ok = ok and bool(row_ok)
        rows.append({"t": float(t), "W_hat": float(w), "ratio": float(ratio),
                     "log_bound": float(log_bound), "ok": bool(row_ok)})
    return StabilityReport(c=consts.c, initial_distance=w0, rows=rows, ok=ok)


@dataclass
class FieldConstants:
    """Constants entering the stability and contraction bounds."""

    lemma: str
    L: float
    c0: float
    a: float

    @property
    def c(self) -> float:
        return self.L + self.c0 / self.a


def field_constants(field: FieldSpec, domain: Domain) -> FieldConstants:
    """Lipschitz constant, field-drift constant and mass lower bound for a field."""
    spec, eps = field.spec, field.mode.epsilon
    if not eps:
        _validate_field(field, domain)
    lemma = spec.lipschitz_lemma(eps, domain)
    if lemma is None:
        raise ConfigError(
            "regularized Lipschitz constant requires compact support with gradient "
            "supremum at most one" if eps else
            "no Lipschitz constant known for this plain-mode field")
    a = eps or potential_inf_lower(spec, domain)
    c0 = 2.0 * domain.d * (spec.grad_sup + spec.sup_upper)
    return FieldConstants(*lemma, c0=c0, a=a)


@dataclass
class PicardResult:
    """Iterates of the measure fixed-point map and their contraction ratios."""

    curves: list[MeasureCurve]
    distances: list[float]
    ratios: list[float]
    bound: float
    alpha: float
    converged: bool


def picard_iterate(cloud0: PointCloud, field: FieldSpec, T: float, grid_K: int,
                   iters: int, alpha: float | None = None, dt: float | None = None,
                   stop_tol: float = 1e-10) -> PicardResult:
    """Fixed-point iteration for the kinetic equation on a measure curve.

    Iterate zero is the constant-in-time initial cloud; each next iterate
    pushes the initial cloud along characteristics driven by the previous
    curve, sampled on the grid.  Contraction is measured in the
    exponentially weighted sup distance with weight ``alpha`` (default twice
    the field Lipschitz constant, which must exceed it).  Ratios eventually
    sitting above one yield ``converged=False`` rather than an exception.
    """
    consts = field_constants(field, cloud0.domain)
    if alpha is None:
        alpha = 2.0 * consts.L
    if alpha <= consts.L:
        raise ConfigError(f"alpha must exceed the Lipschitz constant {consts.L:.6g}")
    if dt is None:
        dt = T / grid_K
    times = np.linspace(0.0, T, grid_K + 1)
    bound = consts.c0 / (consts.a * (alpha - consts.L))

    const_curve = MeasureCurve(
        domain=cloud0.domain, times=times,
        x=np.repeat(cloud0.x[None, :, :], grid_K + 1, axis=0),
        v=np.repeat(cloud0.v[None, :, :], grid_K + 1, axis=0),
    )
    curves = [const_curve]
    distances: list[float] = []
    ratios: list[float] = []
    for _ in range(iters):
        prev = curves[-1]
        path = flow_characteristics(cloud0, prev, field, t_final=T, dt=dt,
                                    record_times=list(times))
        nxt = MeasureCurve(domain=cloud0.domain, times=path.times,
                           x=path.x, v=path.v)
        curves.append(nxt)
        dist = curve_distance(prev, nxt, alpha=alpha)
        distances.append(dist)
        if len(distances) >= 2 and distances[-2] > 0.0:
            ratios.append(distances[-1] / distances[-2])
        if dist <= stop_tol:
            break
    converged = bool(distances and (distances[-1] <= stop_tol
                                    or distances[-1] < distances[0]))
    return PicardResult(curves=curves, distances=distances, ratios=ratios,
                        bound=bound, alpha=alpha, converged=converged)
