"""Chunked pairwise interaction sums shared by the dynamics and kinetic layers.

All alignment right-hand sides reduce to two sums over source points: the
interaction mass ``den_i = sum_j U(x_i - y_j)`` and the velocity-difference
sum ``s_i = sum_j U(x_i - y_j) (u_j - v_i)``.  :func:`alignment_sums` takes
one of two paths:

* **direct**: matrix-product accumulation over row chunks of the kernel
  matrix, centred on the first source velocity ``c = u_0``:
  ``s_i = sum_j U_ij (u_j - c) - (v_i - c) den_i``, with the product split
  into row blocks small enough for one BLAS thread.  Centring (the
  shifted-data device of Chan, Golub & LeVeque for the sample variance)
  makes every velocity difference exactly zero in an aligned state, so that
  state is an exact fixed point in floating point at every size (the
  invariance tests rely on it);
* **Fourier** (periodized Gaussian on a torus of side ``period``): by
  Poisson summation each coordinate factor is the theta series
  ``c_0 + sum_{k=1..K} 2 c_k cos(2 pi k s / D)`` with
  ``c_k = exp(-2 pi^2 k^2 w^2 / D^2) / D``, and ``K`` is the smallest mode
  with ``exp(-2 pi^2 K^2 w^2 / D^2) < 1e-14``, the tail rule of the image
  count.  Splitting ``cos(a - b)`` turns the kernel into a product over
  coordinates of ``F = 2K + 1``-term factors ``[1, cos(w k x), sin(w k x)]``,
  computed once per point as one ``(d, rows, F)`` array from a single
  ``cos``/``sin`` pair per coordinate by the angle-addition recurrence.  Its
  absolute error on mode ``k`` grows like ``k eps``; weighted by ``c_k``, it
  adds an error of order ``eps sum_k k c_k`` per pair, which the Gaussian
  decay of ``c_k`` keeps within the error constant below.  The sources are
  reduced into ``R`` of shape ``(F, F^(d-1) C)`` for the ``C = 1 + 2d``
  columns ``[1, u - c, |u - c|]`` (coefficients folded in, centred on
  ``c = u_0`` as on the direct path, so an aligned state gives ``s == 0``
  exactly here too); each target block is contracted as ``fx_1 @ R`` and
  then one row-wise (batched) product per remaining coordinate.  The cost is
  ``O((n + m) F^d C)`` instead of ``O(n m)``, and the ``F^d``-term tensor
  product is never formed.  Its products are split into row blocks small
  enough for one BLAS thread.

The Fourier path is taken at any size where the spec's image truncation
equals the lattice sum to that tail and the cost model
(:func:`_fourier_modes_for`, in ``n``, ``m``, ``d``, ``K`` and the image
count, with a fixed cost per Fourier call) puts it below the direct path:
small clouds (N <= 150 at w = 1, D = 10 in two dimensions) and narrow
kernels in three dimensions stay direct.  Its rounding error is absolute,
about ``eps u0 sum_j |col_j|`` for a column ``col`` of
``[1, u - c, |u - c|]``, while the direct sum of positive terms is
relatively exact.  A row is kept only if its weighted sums of ``1`` and of
each ``|u_c - c_c|`` reach ``_FLOOR u0 sum_j |col_j|``, which bounds its
relative error (den, and s against ``sum_j U_ij (|u_j - c| + |v_i - c|)``)
by 1e-12; the other rows are recomputed on the direct path.
``path_counts`` counts the calls per path and the rows sent back.  Every
path is chunked over rows to bound memory.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .geometry import (_PRODUCT_MACS, Domain, GaussianPeriodized, PotentialSpec, Torus,
                       displacement_table)

# target number of pair-table elements held at once (per chunk)
_CHUNK_ELEMS = 4_000_000
# bound on |error| / (eps u0 sum_j |col_j|) of a Fourier-weighted column sum
# (checked by the kernel tests), and the relative accuracy rows must keep
_FOURIER_ERR = 64.0
_TARGET_RTOL = 1e-12
_FLOOR = _FOURIER_ERR * np.finfo(float).eps / _TARGET_RTOL
# cost model, in nanoseconds on one x86-64 core, fitted on calls from 20 to
# 4000 points per side in d = 1..3: per pair, coordinate and lattice image
# one term of the direct sum (shift, square, scale, exp, accumulate), plus
# per pair and coordinate the minimum image and product; on the Fourier path
# a fixed cost per call over the direct path's, per point and coordinate
# mode one factor pair, and per point one multiply-add for each of the
# (2K + 1)^d products of the factors with each of the 1 + 2d columns.  The
# factor price is the fitted price of a cos/sin pair; the angle-addition
# recurrence pays that once per point and coordinate and then about 7 ns per
# further mode.  The price overstates the Fourier path and is kept, so every
# (n, m, d, K) takes the path it was tested on
_NS_IMAGE = 5.0
_NS_COORD = 8.0
_NS_CALL = 250_000.0
_NS_TRIG = 50.0
_NS_MAC = 0.4

# calls per path, plus the rows the Fourier path handed to the direct path
path_counts = {"direct": 0, "fourier": 0, "fourier_fallback_rows": 0}


def _row_chunks(n: int, m: int, d: int) -> int:
    rows = max(1, _CHUNK_ELEMS // max(1, m * d))
    return min(n, rows)


def kernel_table(spec: PotentialSpec, domain: Domain, x: np.ndarray,
                 y: np.ndarray | None = None) -> np.ndarray:
    """Dense interaction matrix ``U(x_i - y_j)`` for desk-scale inputs."""
    if y is None:
        y = x
    return spec.values(displacement_table(domain, x, y))


def _direct_sums(spec: PotentialSpec, domain: Domain, x: np.ndarray, v: np.ndarray,
                 y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sums from the kernel matrix, centred on the first source velocity.  Targets
    beyond one row chunk are split into chunks that this same call sums, so a call of
    one chunk and one product block builds its results directly."""
    n, d = x.shape
    m = y.shape[0]
    step = _row_chunks(n, m, d)
    if step < n:
        parts = [_direct_sums(spec, domain, x[lo:lo + step], v[lo:lo + step], y, u)
                 for lo in range(0, n, step)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    c = u[0]
    uc = u - c
    w = spec.values(displacement_table(domain, x, y))  # x itself: one transpose if y is x
    den = np.add.reduce(w, axis=1)
    block = max(1, _PRODUCT_MACS // (m * d))
    s = w @ uc if block >= n else np.concatenate([w[b:b + block] @ uc for b in range(0, n, block)])
    s -= (uc if v is u else v - c) * den[:, None]
    return den, s


def _fourier_modes_for(spec: PotentialSpec, domain: Domain, n: int, m: int
                       ) -> np.ndarray | None:
    """The theta-series coefficients if the Fourier path applies to this call.

    It applies to the periodized Gaussian on a torus of side ``period`` whose
    image truncation equals the lattice sum, when the cost model puts it
    below the direct path.  It is ruled out when even a uniform cloud's
    rows, whose weighted mass sits at ``m / D^d``, fail to clear twice the
    precision floor: most rows would then be recomputed directly on top.
    It is also ruled out when one target row's product with ``R``, ``F^d C``
    multiply-adds, exceeds ``_PRODUCT_MACS`` (d >= 4 with K >= 7): that
    product could not stay on one BLAS thread.
    """
    if not (isinstance(spec, GaussianPeriodized) and isinstance(domain, Torus)
            and domain.size == spec.period):
        return None
    modes = spec._fourier_modes
    d = spec.d
    if modes is None or 1.0 / (spec.period**d * spec.u0) < 2.0 * _FLOOR:
        return None
    k_max = len(modes) - 1
    macs = (2 * k_max + 1) ** d * (1 + 2 * d)
    if macs > _PRODUCT_MACS:
        return None
    direct = n * m * d * ((2 * spec._n_images + 1) * _NS_IMAGE + _NS_COORD)
    fourier = _NS_CALL + (n + m) * (macs * _NS_MAC + d * k_max * _NS_TRIG)
    return modes if fourier < direct else None


def _factors(x: np.ndarray, period: float, k_max: int) -> np.ndarray:
    """Per-coordinate ``[1, cos(w k x), sin(w k x)]``, shape ``(d, rows, 2K + 1)``.

    One ``cos``/``sin`` pair per point and coordinate, at the base angle
    ``t = w x`` of the smallest phase; every further mode comes from the
    angle-addition recurrence ``cos((k+1)t) = cos(kt) cos(t) - sin(kt) sin(t)``,
    ``sin((k+1)t) = sin(kt) cos(t) + cos(kt) sin(t)``, whose absolute error
    grows like ``k eps`` (Van Loan, *Computational Frameworks for the Fast
    Fourier Transform*, 1992, section 1.4).  The modes are written into
    contiguous mode-major ``(2K + 1, d, rows)`` planes, and the transposed
    view is returned.
    """
    xt = x.T - period * np.rint(x.T / period)  # smallest phase
    planes = np.empty((2 * k_max + 1, *xt.shape))
    planes[0] = 1.0
    cos1, sin1 = planes[1], planes[k_max + 1]
    base = 2.0 * math.pi / period * xt
    np.cos(base, out=cos1)
    np.sin(base, out=sin1)
    # planes[k::K] is the pair [cos(kt), sin(kt)], so one step is three calls
    # on both planes, [c c1, s c1] + [s (-s1), c s1]; negation is exact, so
    # this is the recurrence to the bit
    turn = np.stack([-sin1, sin1])
    scratch = np.empty_like(turn)
    for k in range(1, k_max):
        pair, following = planes[k::k_max], planes[k + 1::k_max]
        np.multiply(pair, cos1, out=following)
        np.multiply(pair[::-1], turn, out=scratch)
        following += scratch
    return planes.transpose(1, 2, 0)


def _fourier_sums(spec: GaussianPeriodized, modes: np.ndarray, x: np.ndarray,
                  v: np.ndarray, y: np.ndarray, u: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fourier-path ``(den, s)`` and the mask of rows that meet the precision floor."""
    n, d = x.shape
    m = y.shape[0]
    k_max = len(modes) - 1
    f = 2 * k_max + 1
    coef = np.concatenate([modes[:1], 2.0 * modes[1:], 2.0 * modes[1:]])
    c = u[0]
    uc = u - c
    cols = np.hstack([np.ones((m, 1)), uc, np.abs(uc)])
    width = f ** (d - 1) * cols.shape[1]
    block = max(1, _PRODUCT_MACS // (f * width))
    step = block * max(1, _CHUNK_ELEMS // (block * d * f))

    # R[f_1, (f_2, ..., f_d, col)] = sum_j prod_c coef_{f_c} phi_{f_c}(y_jc) col_j
    reduced = np.zeros((f, width))
    for lo in range(0, m, step):
        fy = _factors(y[lo:lo + step], spec.period, k_max)
        fy *= coef
        for b in range(0, fy.shape[1], block):
            g = cols[lo + b:lo + b + block]
            for k in range(d - 1, 0, -1):
                g = (fy[k, b:b + block, :, None] * g[:, None, :]).reshape(g.shape[0], -1)
            reduced += fy[0, b:b + block].T @ g

    out = np.empty((n, cols.shape[1]))
    for lo in range(0, n, step):
        fx = _factors(x[lo:lo + step], spec.period, k_max)
        for b in range(0, fx.shape[1], block):
            t = fx[0, b:b + block] @ reduced
            for k in range(1, d):
                t = (fx[k, b:b + block, None, :] @ t.reshape(t.shape[0], f, -1))[:, 0]
            out[lo + b:lo + b + t.shape[0]] = t

    den = out[:, 0].copy()
    s = out[:, 1:1 + d] - (v - c) * den[:, None]
    positive = np.concatenate([out[:, :1], out[:, 1 + d:]], axis=1)
    floor = _FLOOR * spec.u0 * np.concatenate([[float(m)], np.abs(uc).sum(axis=0)])
    return den, s, np.all(positive >= floor, axis=1)


def alignment_sums(spec: PotentialSpec, domain: Domain,
                   x: np.ndarray, v: np.ndarray,
                   y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw alignment sums of targets ``(x, v)`` against sources ``(y, u)``.

    Returns ``(den, s)`` with ``den_i = sum_j U(x_i - y_j)`` and
    ``s_i = sum_j U(x_i - y_j) (u_j - v_i)``.  Raises ``InputError`` when
    either point set is empty.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    n = x.shape[0]
    m = y.shape[0]
    if n == 0 or m == 0:
        raise InputError(f"alignment sums need at least one target and one source point; "
                         f"got {n} targets and {m} sources")
    modes = _fourier_modes_for(spec, domain, n, m)
    if modes is None:
        path_counts["direct"] += 1
        return _direct_sums(spec, domain, x, v, y, u)
    path_counts["fourier"] += 1
    den, s, ok = _fourier_sums(spec, modes, x, v, y, u)
    bad = np.flatnonzero(~ok)
    if bad.size:
        path_counts["fourier_fallback_rows"] += int(bad.size)
        den[bad], s[bad] = _direct_sums(spec, domain, x[bad], v[bad], y, u)
    return den, s
