"""Spatial domains and pairwise interaction potentials.

Two domains are supported: free space ``R^d`` and the flat torus of side
``D`` (displacements via the minimum-image convention).  Three interaction
families are provided, all spherically symmetric, positive at the origin
and normalized so the free-space integral equals one:

* :class:`CompactBump` -- triangular bump supported on the ball of radius
  ``R`` (Lipschitz but not ``C^1`` at the origin and at the support edge).
* :class:`LogGradBounded` -- smooth interaction ``c * exp(-sqrt(1+|x|^2)/l)``
  whose logarithmic gradient is bounded by ``1/l`` everywhere; optionally
  periodized over a torus lattice.
* :class:`GaussianPeriodized` -- Gaussian of width ``R`` summed over the
  torus lattice, truncated once the omitted tail is below ``1e-14``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import InputError

__all__ = [
    "FreeSpace",
    "Torus",
    "Domain",
    "CompactBump",
    "LogGradBounded",
    "GaussianPeriodized",
    "PotentialSpec",
    "displacement",
    "displacement_table",
    "wrap_positions",
    "potential_eval",
    "potential_grad",
    "unit_ball_volume",
    "unit_sphere_area",
]

_TAIL_TOL = 1e-14
_N_MAX_CAP = 8


def unit_sphere_area(d: int) -> float:
    """Surface area of the unit sphere in ``R^d`` (length 2 for d=1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in ``R^d``."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class FreeSpace:
    """Unbounded domain ``R^d``."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InputError(f"dimension must be >= 1, got {self.d}")


@dataclass(frozen=True)
class Torus:
    """Flat torus of linear size ``size`` in every one of ``d`` directions."""

    d: int
    size: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InputError(f"dimension must be >= 1, got {self.d}")
        if not self.size > 0.0:
            raise InputError(f"torus size must be positive, got {self.size}")


Domain = Union[FreeSpace, Torus]


def _check_vector(domain: Domain, x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (domain.d,):
        raise InputError(
            f"{name} has shape {x.shape}, expected ({domain.d},) for this domain"
        )
    return x


def displacement(domain: Domain, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Displacement ``x - y`` respecting the domain topology.

    On the torus every component is reduced to the minimum image, which
    lies in ``[-size/2, size/2]``.
    """
    x = _check_vector(domain, x, "x")
    y = _check_vector(domain, y, "y")
    delta = x - y
    if isinstance(domain, Torus):
        delta -= domain.size * np.rint(delta / domain.size)
    return delta


def displacement_table(domain: Domain, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All pairwise displacements, shape ``(n, m, d)`` for ``(n,d)`` and ``(m,d)`` inputs.

    Stored coordinate-major (a view of a contiguous ``(d, n, m)`` array), so
    the elementwise loops run over the ``n m`` pairs of each plane, not over ``d``.
    """
    xt = np.ascontiguousarray(np.asarray(x, dtype=float).T)
    yt = xt if y is x else np.ascontiguousarray(np.asarray(y, dtype=float).T)
    delta = xt[:, :, None] - yt[:, None, :]
    if isinstance(domain, Torus):
        delta -= domain.size * np.rint(delta / domain.size)
    return delta.transpose(1, 2, 0)


def _squared_norm(delta: np.ndarray) -> np.ndarray:
    """``np.sum(np.square(delta), axis=-1)`` added one coordinate plane at a time, the
    order numpy takes on a short axis; each plane of a coordinate-major table is contiguous."""
    delta = np.asarray(delta)
    out = np.square(delta[..., 0])
    for c in range(1, delta.shape[-1]):
        out += np.square(delta[..., c])
    return out


def wrap_positions(domain: Domain, q: np.ndarray) -> np.ndarray:
    """Map positions into the closed cell ``[0, size]`` on a torus; identity otherwise."""
    if isinstance(domain, Torus):
        return np.mod(q, domain.size)
    return q


# ---------------------------------------------------------------------------
# Interaction families


def _lattice_offsets(d: int, n_max: int) -> np.ndarray:
    """Integer lattice points with sup-norm at most ``n_max``, shape ``(K, d)``."""
    axes = [np.arange(-n_max, n_max + 1)] * d
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1).astype(float)


def _radial_max(profile, r_lo: float, r_hi: float, n: int = 20001) -> float:
    """Maximum of a scalar radial profile over ``[r_lo, r_hi]`` on a dense grid."""
    r = np.linspace(r_lo, r_hi, n)
    return float(np.max(profile(r)))


def _unit_mass(name: str, value: float, constant) -> float:
    """``constant()``, or an InputError naming the parameter that leaves it zero or not finite."""
    with contextlib.suppress(ArithmeticError):  # float arithmetic out of range
        if 0.0 < (c := constant()) < math.inf:
            return c
    raise InputError(f"{name} = {value!r} makes the unit-mass normalizer zero or not finite")


def _is_canonical_offset(off: np.ndarray) -> bool:
    """True for exactly one of every ``{off, -off}`` pair of nonzero offsets."""
    for component in off:
        if component > 0.0:
            return True
        if component < 0.0:
            return False
    return False


@dataclass(frozen=True)
class CompactBump:
    """Triangular bump ``C * (1 - |x|/R)`` on the ball of radius ``R``.

    The normalizer ``C`` is fixed so the integral over ``R^d`` equals one.
    The gradient is the one-sided classical derivative inside the support
    and zero at the origin and outside the support.
    """

    d: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        if self.d < 1 or not self.radius > 0.0:
            raise InputError("CompactBump requires d >= 1 and radius > 0")
        self.normalizer  # a radius that leaves no finite normalizer fails here

    @cached_property
    def normalizer(self) -> float:
        # integral of (1 - r/R) over B_R is area(S^{d-1}) * R^d / (d(d+1))
        return _unit_mass("radius", self.radius, lambda: self.d * (self.d + 1) / (
            unit_sphere_area(self.d) * self.radius**self.d))

    @property
    def u0(self) -> float:
        return self.normalizer

    @property
    def sup_upper(self) -> float:
        return self.normalizer

    @property
    def grad_sup(self) -> float:
        return self.normalizer / self.radius

    @property
    def monotone_radial(self) -> bool:
        return True

    @property
    def period(self) -> float | None:
        return None

    def values(self, delta: np.ndarray) -> np.ndarray:
        """Evaluate on displacement vectors with shape ``(..., d)``."""
        r = np.sqrt(_squared_norm(delta))
        return self.normalizer * np.maximum(1.0 - r / self.radius, 0.0)

    def grad(self, delta: np.ndarray) -> np.ndarray:
        delta = np.asarray(delta, dtype=float)
        r = float(np.sqrt(np.sum(np.square(delta))))
        if r == 0.0 or r > self.radius:
            return np.zeros_like(delta)
        return -(self.normalizer / self.radius) * delta / r


@dataclass(frozen=True)
class LogGradBounded:
    """Smooth interaction ``c * exp(-sqrt(1 + |x|^2) / decay)``.

    Its logarithmic gradient is bounded by ``1/decay`` everywhere, and the
    tails decay like ``exp(-|x|/decay)``.  With ``period`` set the family is
    summed over the torus lattice (truncated at ``n_max`` images per axis).
    """

    d: int
    decay: float = 1.0
    period: float | None = None
    n_max: int | None = None

    def __post_init__(self) -> None:
        if self.d < 1 or not self.decay > 0.0:
            raise InputError("LogGradBounded requires d >= 1 and decay > 0")
        if self.period is not None and not self.period > 0.0:
            raise InputError("period must be positive when given")
        self.normalizer  # a decay that leaves no finite normalizer fails here

    @property
    def log_grad_bound(self) -> float:
        return 1.0 / self.decay

    @cached_property
    def normalizer(self) -> float:
        # imported here so that importing flockkit does not load scipy.special
        from scipy.special import kv
        # s = sqrt(1 + r^2), DLMF 10.32.8 and 10.29.4: the integral over r > 0 of
        # exp(-sqrt(1 + r^2)/l) r^(d-1) is Gamma(d/2) (2l)^((d-1)/2) K_{(d+1)/2}(1/l) / sqrt(pi)
        return _unit_mass("decay", self.decay, lambda: 1.0 / (unit_sphere_area(self.d) * (
            math.gamma(self.d / 2.0) * (2.0 * self.decay) ** ((self.d - 1) / 2.0)
            * float(kv((self.d + 1) / 2.0, 1.0 / self.decay)) / math.sqrt(math.pi))))

    @cached_property
    def _n_images(self) -> int:
        if self.period is None:
            return 0
        if self.n_max is not None:
            return self.n_max
        for n in range(1, _N_MAX_CAP + 1):
            tail = self.normalizer * math.exp(-(n + 0.5) * self.period / self.decay)
            if tail < _TAIL_TOL:
                return n
        return _N_MAX_CAP

    @cached_property
    def _offsets(self) -> np.ndarray:
        return _lattice_offsets(self.d, self._n_images) * float(self.period or 0.0)

    @property
    def u0(self) -> float:
        return float(self.values(np.zeros(self.d)))

    @property
    def monotone_radial(self) -> bool:
        return self.period is None

    def _profile(self, r: np.ndarray) -> np.ndarray:
        return self.normalizer * np.exp(-np.sqrt(1.0 + np.square(r)) / self.decay)

    def _grad_profile(self, r: np.ndarray) -> np.ndarray:
        return self._profile(r) * r / (self.decay * np.sqrt(1.0 + np.square(r)))

    @cached_property
    def _grad_argmax(self) -> float:
        # with s = sqrt(1 + r^2) the log-derivative of r exp(-s/l) / s vanishes where
        # s^3 - s = l; its one root above one by the trigonometric (three real roots)
        # or hyperbolic cubic formula, and then r^2 = s^2 - 1 = l / s
        a = 1.5 * math.sqrt(3.0) * self.decay
        s = 2.0 / math.sqrt(3.0) * (math.cos(math.acos(a) / 3.0) if a <= 1.0
                                    else math.cosh(math.acosh(a) / 3.0))
        return math.sqrt(self.decay / s)

    def _image_distances(self) -> np.ndarray:
        # image n is at distance >= (|n|_inf - 1/2) * D from the fundamental cell
        D = float(self.period)
        norms = np.max(np.abs(self._offsets / D), axis=-1)
        return np.clip((norms - 0.5) * D, 0.0, None)

    @cached_property
    def sup_upper(self) -> float:
        if self.period is None:
            return float(self._profile(np.zeros(1))[0])
        return float(np.sum(self._profile(self._image_distances())))

    @cached_property
    def grad_sup(self) -> float:
        # the gradient profile rises to its argmax, then decays, so its maximum over
        # [r_n, inf) is its value at max(r_n, argmax); free space has r_0 = 0 only
        rn = self._image_distances() if self.period is not None else np.zeros(1)
        return float(np.sum(self._grad_profile(np.maximum(rn, self._grad_argmax))))

    def inf_lower(self, domain: Domain) -> float:
        """Certified lower bound on the infimum of the potential over the domain."""
        if isinstance(domain, FreeSpace):
            return 0.0
        r_far = math.sqrt(domain.d) * domain.size / 2.0
        return float(self._profile(np.array([r_far]))[0])

    def values(self, delta: np.ndarray) -> np.ndarray:
        delta = np.asarray(delta, dtype=float)
        total = self._profile(np.sqrt(_squared_norm(delta)))
        # accumulate opposite images as pairs so the sum is exactly even in delta
        # (free space has the zero offset only, which is skipped)
        for off in self._offsets:
            if not _is_canonical_offset(off):
                continue
            r_plus = np.sqrt(_squared_norm(delta + off))
            r_minus = np.sqrt(_squared_norm(delta - off))
            total += self._profile(r_plus) + self._profile(r_minus)
        return total

    def grad(self, delta: np.ndarray) -> np.ndarray:
        delta = np.asarray(delta, dtype=float)
        offsets = self._offsets if self.period is not None else np.zeros((1, self.d))
        out = np.zeros_like(delta)
        for off in offsets:
            shifted = delta + off
            s = math.sqrt(1.0 + float(np.sum(np.square(shifted))))
            u = self.normalizer * math.exp(-s / self.decay)
            out += -u / (self.decay * s) * shifted
        return out


@dataclass(frozen=True)
class GaussianPeriodized:
    """Gaussian of width ``width`` periodized over the torus of side ``period``.

    The lattice sum factorizes across coordinates, so evaluation reduces to
    a product of one-dimensional wrapped Gaussians; truncation order is
    chosen automatically so the omitted tail is below ``1e-14``.
    """

    d: int
    width: float
    period: float
    n_max: int | None = None

    def __post_init__(self) -> None:
        if self.d < 1 or not self.width > 0.0 or not self.period > 0.0:
            raise InputError("GaussianPeriodized requires d >= 1, width > 0, period > 0")

    @property
    def _norm1(self) -> float:
        return 1.0 / math.sqrt(2.0 * math.pi * self.width**2)

    def _image_tail(self, n: int) -> float:
        """Largest omitted term of the lattice sum truncated to ``|image| <= n``."""
        x = (n + 0.5) * self.period
        return self._norm1 * math.exp(-x * x / (2.0 * self.width**2))

    @cached_property
    def _auto_images(self) -> int:
        for n in range(1, _N_MAX_CAP + 1):
            if self._image_tail(n) < _TAIL_TOL:
                return n
        return _N_MAX_CAP

    @property
    def _n_images(self) -> int:
        return self._auto_images if self.n_max is None else self.n_max

    @cached_property
    def _fourier_modes(self) -> np.ndarray | None:
        """Theta-series coefficients ``c_k``, ``k = 0..K``, of the 1D factor.

        By Poisson summation ``theta(s) = c_0 + sum_k 2 c_k cos(2 pi k s / D)``
        with ``c_k = exp(-2 pi^2 k^2 w^2 / D^2) / D``; ``K`` is the smallest
        mode with ``exp(-2 pi^2 K^2 w^2 / D^2) < 1e-14``, the tail rule of the
        image count.  ``None`` when the truncated image sum that
        :meth:`values` evaluates is not within that tail of the infinite
        lattice sum (an explicit ``n_max`` below the automatic count, or a
        width beyond the image cap), since the series then describes a
        different kernel.
        """
        if (self._n_images < self._auto_images
                or self._image_tail(self._auto_images) >= _TAIL_TOL):
            return None
        a = 2.0 * math.pi**2 * self.width**2 / self.period**2
        k_max = 1
        while math.exp(-a * k_max * k_max) >= _TAIL_TOL:
            k_max += 1
        return np.exp(-a * np.arange(k_max + 1.0) ** 2) / self.period

    @cached_property
    def _shifts(self) -> np.ndarray:
        n = self._n_images
        return np.arange(-n, n + 1, dtype=float) * self.period

    @cached_property
    def _theta_shifts(self) -> np.ndarray:
        """``_shifts`` less the positive images of weight ``exp(-shift^2 / 2 w^2) < 2^-60``: at
        ``s >= 0`` such an image is below that weight times the ``shift = 0`` term, which the
        ascending sum already holds, so it is under half an ulp and cannot change a bit."""
        keep = [shift for shift in self._shifts
                if shift <= 0.0 or math.exp(-shift * shift / (2.0 * self.width**2)) >= 2.0**-60]
        return np.array(keep)

    def _theta(self, s: np.ndarray) -> np.ndarray:
        """One-dimensional wrapped Gaussian evaluated componentwise: the only image sum.

        ``x / (-2 w^2)`` has the bits of ``-x / (2 w^2)``: rounding is symmetric in sign.
        The first image starts the sum, since ``0 + x`` is ``x`` (as is ``s + 0``).
        """
        s = np.asarray(s, dtype=float)
        s = np.abs(s, out=np.empty_like(s))  # exactly even in s; an array even for one value
        minus_two_w2 = -2.0 * self.width**2
        shifts, acc = self._theta_shifts, None
        for k, shift in enumerate(shifts):
            term = s if k == len(shifts) - 1 else np.empty_like(s)  # the last reuses |s|
            np.square(np.add(s, shift, out=term) if shift else s, out=term)  # s + 0 is s
            term /= minus_two_w2
            np.exp(term, out=term)
            acc = term if acc is None else np.add(acc, term, out=acc)
        acc *= self._norm1
        return acc

    def _theta_prime(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        acc = np.zeros_like(s)
        for shift in self._shifts:
            t = s + shift
            acc += -t / self.width**2 * np.exp(-np.square(t) / (2.0 * self.width**2))
        return self._norm1 * acc

    @cached_property
    def u0(self) -> float:
        return float(self._theta(np.zeros(1))[0]) ** self.d

    @property
    def sup_upper(self) -> float:
        # the wrapped Gaussian is unimodal with mode at zero
        return self.u0

    @cached_property
    def grad_sup(self) -> float:
        # |partial_c U| <= max|theta'| * theta(0)^(d-1) exactly, by the product
        # structure; the sqrt(d) factor turns that into a bound on |grad U|
        tmax = _radial_max(lambda r: np.abs(self._theta_prime(r)), 0.0, self.period / 2.0)
        t0 = float(self._theta(np.zeros(1))[0])
        return math.sqrt(self.d) * tmax * t0 ** (self.d - 1)

    @property
    def monotone_radial(self) -> bool:
        return False

    def inf_lower(self, domain: Domain) -> float:
        """Exact infimum over the torus (attained at the far corner of the cell)."""
        if isinstance(domain, FreeSpace):
            return 0.0
        return float(self._theta(np.array([domain.size / 2.0]))[0]) ** self.d

    def values(self, delta: np.ndarray) -> np.ndarray:
        delta = np.asarray(delta, dtype=float)
        # one pass over all coordinate planes, then their product in coordinate order
        thetas = self._theta(delta.transpose(-1, *range(delta.ndim - 1)))
        out = thetas[0]
        for c in range(1, self.d):
            out = out * thetas[c]
        return out[()]  # a scalar for one displacement, like the other families

    def grad(self, delta: np.ndarray) -> np.ndarray:
        delta = np.asarray(delta, dtype=float)
        thetas = [float(self._theta(np.array([delta[c]]))[0]) for c in range(self.d)]
        out = np.empty(self.d)
        for c in range(self.d):
            rest = 1.0
            for c2 in range(self.d):
                if c2 != c:
                    rest *= thetas[c2]
            out[c] = float(self._theta_prime(np.array([delta[c]]))[0]) * rest
        return out


PotentialSpec = Union[CompactBump, LogGradBounded, GaussianPeriodized]


def potential_eval(spec: PotentialSpec, r: np.ndarray) -> float:
    """Evaluate the interaction at displacement ``r`` (nonnegative scalar)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (spec.d,):
        raise InputError(f"displacement has shape {r.shape}, expected ({spec.d},)")
    return float(spec.values(r[None, :])[0])


def potential_grad(spec: PotentialSpec, r: np.ndarray) -> np.ndarray:
    """Gradient of :func:`potential_eval` at displacement ``r``."""
    r = np.asarray(r, dtype=float)
    if r.shape != (spec.d,):
        raise InputError(f"displacement has shape {r.shape}, expected ({spec.d},)")
    return spec.grad(r)


def potential_inf_lower(spec: PotentialSpec, domain: Domain) -> float:
    """Lower bound on ``inf U`` over the domain (zero in free space or for compact support)."""
    if isinstance(spec, CompactBump):
        return 0.0
    return spec.inf_lower(domain)
