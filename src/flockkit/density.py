"""Volume transport along characteristics, entropy decay and moment checks.

The characteristics flow contracts phase-space volume at a known exact
rate: the flow-map determinant is ``exp(-d t)`` for the plain field and
``exp(-d * integral of the overlap fraction)`` for the regularized one.
:func:`flow_jacobian` verifies this against a finite-difference Jacobian.
:func:`entropy_decay_check` compares the induced exact entropy transport
law against an independent nearest-neighbour entropy estimate on the
pushed-forward samples, and :func:`moment_diagnostics` certifies the
mean-position identity and the monotone velocity second moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import Trajectory
from .errors import ConfigError, InputError, NumericalError
from .geometry import Torus, _derived, unit_ball_volume
from .kinetic import FieldSpec, MeasureCurve, _overlap_fraction, flow_characteristics

__all__ = [
    "JacobianReport",
    "flow_jacobian",
    "knn_entropy",
    "EntropyRow",
    "entropy_decay_check",
    "torus_gaussian_sampler",
    "MomentReport",
    "moment_diagnostics",
]

# the least acceptance mass of the reference density's rejection sampler: below it
# the sampler would draw more than a thousand candidates per kept velocity
_MIN_MASS = 1e-3


@dataclass
class JacobianReport:
    """Finite-difference flow-map determinant against the exact contraction rate."""

    t: float
    det_fd: float
    det_theory: float
    rel_err: float


def flow_jacobian(point, curve: MeasureCurve, field: FieldSpec, t: float,
                  h: float = 1e-4, dt: float = 1e-3) -> JacobianReport:
    """Determinant of the forward flow map at one phase point.

    The ``2d x 2d`` Jacobian is assembled from central differences over
    basis perturbations of size ``h``; the reference value is the exact
    volume-contraction law, with the overlap-fraction path integral taken
    along the unperturbed characteristic (trapezoid rule on the step grid).
    """
    x0, v0 = np.asarray(point[0], dtype=float), np.asarray(point[1], dtype=float)
    d = x0.shape[0]
    m = 2 * d
    w0 = np.concatenate([x0, v0])

    batch = [w0]
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        batch.append(w0 + e)
        batch.append(w0 - e)
    batch = np.asarray(batch)

    path = flow_characteristics(batch, curve, field, t_final=t, dt=dt,
                                want_overlap=True)
    xf, vf = path.final()
    finals = np.hstack([xf, vf])

    jac = np.empty((m, m))
    for i in range(m):
        jac[:, i] = (finals[1 + 2 * i] - finals[2 + 2 * i]) / (2.0 * h)
    det_fd = float(np.linalg.det(jac))
    if not np.isfinite(det_fd) or det_fd <= 0.0:
        raise NumericalError(
            f"degenerate finite-difference Jacobian (det {det_fd!r}); "
            "use a smaller perturbation h or a smaller step dt"
        )

    overlap = float(path.overlap_integral[-1][0])
    det_theory = math.exp(-d * overlap)
    rel_err = abs(det_fd - det_theory) / det_theory
    return JacobianReport(t=float(t), det_fd=det_fd, det_theory=det_theory,
                          rel_err=rel_err)


def knn_entropy(points: np.ndarray, k: int = 4,
                box: np.ndarray | None = None) -> float:
    """Nearest-neighbour differential entropy estimate (nats).

    Classic k-th nearest neighbour construction (Kozachenko-Leonenko) with
    Euclidean distances, found with a k-d tree; dimensions with a positive
    entry in ``box`` are periodic with that period.  Periodic coordinates
    may lie outside ``[0, box)``: they are wrapped before the tree is built.
    Independent of any transport identity, so it can serve as the second
    route of an entropy cross-check.
    """
    pts = np.array(points, dtype=float)
    n, m = pts.shape
    if not 1 <= k < n:
        raise InputError(f"need k >= 1 and more samples ({n}) than neighbours (k={k})")
    boxsize = None
    if box is not None:
        size = np.asarray(box, dtype=float)
        boxsize = np.where(size > 0.0, size, 0.0)
        periodic = np.flatnonzero(boxsize)
        wrapped = np.mod(pts[:, periodic], boxsize[periodic])
        # np.mod rounds a tiny negative coordinate up to exactly the period
        wrapped[wrapped == boxsize[periodic]] = 0.0
        pts[:, periodic] = wrapped

    try:  # imported here so that importing flockkit does not load scipy.spatial or scipy.special
        from scipy.spatial import cKDTree
        from scipy.special import digamma
    except ImportError:
        raise ConfigError("the k-nearest-neighbour entropy needs scipy, which is not "
                          "installed") from None
    # the point itself is its own nearest neighbour, at distance zero
    radii, _ = cKDTree(pts, boxsize=boxsize).query(pts, k=[k + 1])
    radii = np.clip(radii[:, 0], 1e-300, None)
    return float(digamma(n) - digamma(k) + math.log(unit_ball_volume(m))
                 + m * np.mean(np.log(radii)))


@dataclass
class EntropyRow:
    t: float
    H_transport: float
    H_knn: float
    gap: float
    mean_overlap: float


def entropy_decay_check(sampler: Callable, curve: MeasureCurve, field: FieldSpec,
                        t_list, M: int, dt: float, k: int = 4,
                        rng: np.random.Generator | None = None) -> list[EntropyRow]:
    """Two independent entropy estimates along the pushed-forward density.

    The transport estimate is exact: initial entropy minus the dimension
    times the mean overlap path integral (which reduces to ``d * t`` for the
    plain field).  The nearest-neighbour estimate is recomputed on the
    pushed samples at every requested time; their gap measures estimator
    bias, not transport error.
    """
    if M < 100:
        raise ConfigError(f"nonparametric entropy estimate needs M >= 100, got {M}")
    rng = rng or np.random.default_rng(0)
    w0, logf0 = sampler(M, rng)
    w0 = np.asarray(w0, dtype=float)
    d = w0.shape[1] // 2
    h0 = -float(np.mean(logf0))

    t_list = sorted(float(t) for t in t_list)
    path = flow_characteristics(w0, curve, field, t_final=max(t_list) if t_list else 0.0,
                                dt=dt, record_times=t_list, want_overlap=True)

    box = None
    if isinstance(curve.domain, Torus):
        box = np.concatenate([np.full(d, curve.domain.size), np.zeros(d)])

    rows: list[EntropyRow] = []
    for idx, t in enumerate(path.times):
        if t not in t_list:
            continue
        mean_int = float(np.mean(path.overlap_integral[idx]))
        h_transport = h0 - d * mean_int
        pts = np.hstack([path.x[idx], path.v[idx]])
        h_knn = knn_entropy(pts, k=k, box=box)
        rows.append(EntropyRow(
            t=float(t), H_transport=h_transport, H_knn=h_knn,
            gap=h_knn - h_transport,
            mean_overlap=float(np.mean(_overlap_fraction(path.x[idx], curve, field,
                                                         float(t)))),
        ))
    return rows


def _chi_mass(d: int, x: float) -> float:
    """The regularized incomplete gamma ``P(a, x)`` at ``a = d/2``, from sums of positive
    terms (Abramowitz & Stegun, Handbook of Mathematical Functions, 6.5).  Below ``x = a + 1``
    the series ``x^a e^-x / Gamma(a+1) * sum_k x^k / ((a+1)...(a+k))``; above it ``1 - Q``
    with ``Q = e^-x sum_{k < a} x^k / k!`` at even ``d``, and at odd ``d``
    ``Q = erfc(sqrt x) + sum_{j < a - 1/2} x^(j+1/2) e^-x / Gamma(j+3/2)``."""
    a, n = d / 2.0, d // 2
    if not x > 0.0:  # an x that underflowed, for the caller to refuse; log(0) would raise
        return 0.0
    if x == math.inf:  # a sigma whose square is subnormal: all the mass is inside the cap
        return 1.0
    if x < a + 1.0:
        terms, k = [math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))], 0
        while terms[-1] > terms[0] * 2.0**-60:
            k += 1
            terms.append(terms[-1] * x / (a + k))
        return math.fsum(terms)
    b = a - n  # 0 or 1/2
    q = [math.exp((b + k) * math.log(x) - x - math.lgamma(b + k + 1.0)) for k in range(n)]
    if b:
        q.append(math.erfc(math.sqrt(x)))
    return 1.0 - math.fsum(q)


def torus_gaussian_sampler(domain: Torus, sigma: float, v_cap: float = 0.95):
    """Sampler for the reference density: uniform positions on the torus and
    a radially truncated Gaussian in velocity, kept away from the speed limit.

    Returns a callable ``(M, rng) -> (w0, logf0)`` with ``w0`` of shape
    ``(M, 2d)`` and the exact log-density at the samples.  The normalizer's
    acceptance mass is the chi-square law ``P(d/2, v_cap^2 / 2 sigma^2)`` in closed
    form (:func:`_chi_mass`), so building and drawing load no scipy.
    """
    if not isinstance(domain, Torus):
        raise ConfigError("reference sampler is defined on a torus domain")
    if not 0.0 < v_cap < 1.0:
        raise ConfigError(f"velocity cap must sit inside the unit ball, got {v_cap}")
    d = domain.d
    two_pi_var = _derived("sigma", sigma, lambda: 2.0 * math.pi * sigma**2, "Gaussian normalizer")
    # mass of N(0, sigma^2 I_d) inside the cap ball, via the chi-square law
    mass = _derived("v_cap", v_cap, lambda: _chi_mass(d, v_cap**2 / (2.0 * sigma**2)),
                    "acceptance mass")
    if mass < _MIN_MASS:
        raise InputError(f"sigma = {sigma!r} and v_cap = {v_cap!r} leave an acceptance mass of "
                         f"{mass:.3g}, below {_MIN_MASS!r}: rejection sampling would not end")
    log_z = (d / 2.0) * math.log(two_pi_var) + math.log(mass)
    log_x = -d * math.log(domain.size)

    def sampler(M: int, rng: np.random.Generator):
        x = rng.uniform(0.0, domain.size, size=(M, d))
        v = np.empty((M, d))
        filled = 0
        while filled < M:
            cand = rng.normal(0.0, sigma, size=(2 * (M - filled) + 16, d))
            good = cand[np.sum(np.square(cand), axis=1) <= v_cap**2]
            take = min(M - filled, good.shape[0])
            v[filled:filled + take] = good[:take]
            filled += take
        logf = log_x - np.sum(np.square(v), axis=1) / (2.0 * sigma**2) - log_z
        return np.hstack([x, v]), logf

    return sampler


@dataclass
class MomentReport:
    """Frame moments plus the identity and monotonicity residuals."""

    times: np.ndarray
    mean_position: np.ndarray
    mean_velocity: np.ndarray
    second_moment: np.ndarray
    ma1_max_err: float
    max_second_moment_increase: float


def _cumulative_simpson(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """scipy's ``cumulative_simpson(y, x=t, axis=0, initial=0.0)`` bit for bit, summed from
    a leading 0 (scipy's ``+ initial``); two frames take the trapezoid."""
    h = np.diff(t).reshape((-1,) + (1,) * (y.ndim - 1))
    if len(t) < 3:
        parts = h * (y[1:] + y[:-1]) / 2.0
    else:
        def left(y, h):  # over each [t_k, t_k+1], the parabola through frames k..k+2
            x21, x32 = h[:-1], h[1:]
            x21_x31, x21_x32 = x21 / (x21 + x32), x21 / x32
            c = x21_x31 * x21_x32
            return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + c + x21_x31) * y[1:-1] + (-c) * y[2:])
        # h1 from the left on even intervals, h2 from the right on odd ones and the last
        h1, h2 = left(y, h), left(y[::-1], h[::-1])[::-1]
        parts = np.empty((len(t) - 1,) + y.shape[1:])
        parts[:-1:2], parts[1::2], parts[-1] = h1[::2], h2[::2], h2[-1]
    return np.cumsum(np.concatenate([np.zeros_like(parts[:1]), parts]), axis=0)


def moment_diagnostics(traj: Trajectory) -> MomentReport:
    """Check the mean-position identity and the monotone second moment.

    The mean position (unwrapped on a torus) must equal its initial value
    plus the time integral of the mean velocity; the integral is taken with
    a fourth-order composite rule over the saved frames.  The velocity
    second moment may never increase beyond 1e-9 between frames.
    """
    times = traj.times
    mean_x = traj.q_raw.mean(axis=1)
    mean_v = traj.p.mean(axis=1)
    second = np.sum(np.square(traj.p), axis=(1, 2)) / traj.p.shape[1]

    if len(times) >= 2:
        integral = _cumulative_simpson(mean_v, times)
        ma1_err = float(np.max(np.abs(mean_x - mean_x[0] - integral)))
        increases = np.diff(second)
        max_inc = float(np.max(increases)) if increases.size else 0.0
    else:
        ma1_err = 0.0
        max_inc = 0.0
    return MomentReport(times=times, mean_position=mean_x, mean_velocity=mean_v,
                        second_moment=second, ma1_max_err=ma1_err,
                        max_second_moment_increase=max_inc)
