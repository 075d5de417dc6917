"""Chunked pairwise interaction sums shared by the dynamics and kinetic layers.

All alignment right-hand sides reduce to two sums over source points: the
interaction mass ``den_i = sum_j U(x_i - y_j)`` and the velocity-difference
sum ``s_i = sum_j U(x_i - y_j) (u_j - v_i)``.  :func:`alignment_sums` takes
one of three paths:

* **small** (``n m < _LARGE_PAIRS``): the difference form
  ``sum_j U_ij (u_j - v_i)``, which makes the aligned state an exact fixed
  point in floating point (the invariance tests rely on it);
* **direct** (large band): matrix-product accumulation ``U u - v den`` over
  row chunks of the kernel matrix, with ``U u`` split into row blocks small
  enough for one BLAS thread; the factorized wrapped Gaussian is evaluated
  in preallocated buffers without displacement vectors;
* **Fourier** (large band, periodized Gaussian on a torus of side
  ``period``): by Poisson summation each coordinate factor is the theta
  series ``c_0 + sum_{k=1..K} 2 c_k cos(2 pi k s / D)`` with
  ``c_k = exp(-2 pi^2 k^2 w^2 / D^2) / D``, and ``K`` is the smallest mode
  with ``exp(-2 pi^2 K^2 w^2 / D^2) < 1e-14``, the tail rule of the image
  count.  Splitting ``cos(a - b)`` turns the kernel into a product of
  ``2K + 1``-term feature maps, so all sums come from one source reduction
  ``Phi_y^T [1, u, |u|]`` and one target product, at cost
  ``O((n + m)(2K + 1)^d)`` instead of ``O(n m)``.

The Fourier path is taken only where the spec's image truncation equals the
lattice sum to that tail and the cost model (:func:`_fourier_modes_for`, in
``n``, ``m``, ``d``, ``K`` and the image count) puts it below the direct
path; a narrow kernel in three dimensions stays direct.  Its rounding error
is absolute, about ``eps u0 sum_j |col_j|`` for a column ``col`` of
``[1, u, |u|]``, while the direct sum of positive terms is relatively exact.
A row is kept only if its weighted sums of ``1`` and of each ``|u_c|`` reach
``_FLOOR u0 sum_j |col_j|``, which bounds its relative error (den, and s
against ``sum_j U_ij (|u_j| + |v_i|)``) by 1e-12; the other rows are
recomputed on the direct path.  ``path_counts`` counts the calls per path
and the rows sent back.  Every path is chunked over rows to bound memory.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Domain, GaussianPeriodized, PotentialSpec, Torus, displacement_table

# target number of pair-table elements held at once (per chunk)
_CHUNK_ELEMS = 4_000_000
# beyond this many pair entries the last-ulp-exact difference form gives way
# to matrix products
_LARGE_PAIRS = 1_000_000
# multiply-adds per matrix product on the direct large and Fourier paths;
# products this small stay on one OpenBLAS thread (its threshold is
# M N K > 4 * 65536), which keeps the sums independent of the BLAS thread
# count, and on the Fourier path it bounds a feature chunk far below
# _CHUNK_ELEMS (no new memory peak)
_PRODUCT_MACS = 262_144
# bound on |error| / (eps u0 sum_j |col_j|) of a Fourier-weighted column sum
# (checked by the kernel tests), and the relative accuracy rows must keep
_FOURIER_ERR = 64.0
_TARGET_RTOL = 1e-12
_FLOOR = _FOURIER_ERR * np.finfo(float).eps / _TARGET_RTOL
# cost model, in nanoseconds on one x86-64 core: per pair, coordinate and
# lattice image one term of the direct sum (shift, square, scale, exp,
# accumulate), plus per pair and coordinate the minimum image and product;
# per point one tensor-product feature with its share of the two matrix
# products, plus per point, coordinate and mode one cos/sin pair
_NS_IMAGE = 7.0
_NS_COORD = 4.0
_NS_FEATURE = 6.0
_NS_TRIG = 30.0

# calls per path, plus the rows the Fourier path handed to the direct path
path_counts = {"small": 0, "direct": 0, "fourier": 0, "fourier_fallback_rows": 0}


def _row_chunks(n: int, m: int, d: int) -> int:
    rows = max(1, _CHUNK_ELEMS // max(1, m * d))
    return min(n, rows)


class _GaussianScratch:
    """Preallocated buffers for the factorized wrapped-Gaussian kernel.

    The chunk loop is allocation-heavy otherwise; reusing four flat buffers
    keeps the hot path memory-bound on reads and writes only.
    """

    def __init__(self, rows: int, cols: int):
        shape = (rows, cols)
        self.dc = np.empty(shape)
        self.tmp = np.empty(shape)
        self.term = np.empty(shape)
        self.theta = np.empty(shape)
        self.w = np.empty(shape)

    def pair_values(self, spec: GaussianPeriodized, size: float | None,
                    x_chunk: np.ndarray, y: np.ndarray) -> np.ndarray:
        rows = x_chunk.shape[0]
        dc = self.dc[:rows]
        tmp = self.tmp[:rows]
        term = self.term[:rows]
        theta = self.theta[:rows]
        w = self.w[:rows]
        inv_two_w2 = 1.0 / (2.0 * spec.width**2)
        for c in range(spec.d):
            xc = np.ascontiguousarray(x_chunk[:, c])
            yc = np.ascontiguousarray(y[:, c])
            np.subtract(xc[:, None], yc[None, :], out=dc)
            if size is not None:
                np.multiply(dc, 1.0 / size, out=tmp)
                np.rint(tmp, out=tmp)
                tmp *= size
                dc -= tmp
            np.abs(dc, out=dc)  # keep the kernel exactly even, as in values()
            theta.fill(0.0)
            for shift in spec._shifts:
                np.add(dc, shift, out=term)
                np.square(term, out=term)
                term *= -inv_two_w2
                np.exp(term, out=term)
                theta += term
            theta *= spec._norm1
            if c == 0:
                w[...] = theta
            else:
                w *= theta
        return w


def kernel_table(spec: PotentialSpec, domain: Domain, x: np.ndarray,
                 y: np.ndarray | None = None) -> np.ndarray:
    """Dense interaction matrix ``U(x_i - y_j)`` for desk-scale inputs."""
    if y is None:
        y = x
    return spec.values(displacement_table(domain, x, y))


def _direct_sums(spec: PotentialSpec, domain: Domain, x: np.ndarray, v: np.ndarray,
                 y: np.ndarray, u: np.ndarray, large: bool
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The sums from the kernel matrix, in difference form unless ``large``."""
    n, d = x.shape
    m = y.shape[0]
    den = np.empty(n)
    s = np.empty((n, d))
    step = _row_chunks(n, m, d)
    block = max(1, _PRODUCT_MACS // (m * d))
    scratch = None
    if large and isinstance(spec, GaussianPeriodized):
        scratch = _GaussianScratch(min(step, n), m)
        size = domain.size if isinstance(domain, Torus) else None
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        if scratch is None:
            w = spec.values(displacement_table(domain, x[lo:hi], y))
        else:
            w = scratch.pair_values(spec, size, x[lo:hi], y)
        den[lo:hi] = w.sum(axis=1)
        if large:
            for b in range(lo, hi, block):
                e = min(hi, b + block)
                s[b:e] = w[b - lo:e - lo] @ u
            s[lo:hi] -= v[lo:hi] * den[lo:hi, None]
        else:
            # coordinate-major like the displacement table: contiguous planes
            ut, vt = (np.ascontiguousarray(a.T) for a in (u, v[lo:hi]))
            s[lo:hi] = np.einsum("ij,cij->ic", w, ut[:, None, :] - vt[:, :, None])
    return den, s


def _fourier_modes_for(spec: PotentialSpec, domain: Domain, n: int, m: int
                       ) -> np.ndarray | None:
    """The theta-series coefficients if the Fourier path applies to this call.

    It applies to the periodized Gaussian on a torus of side ``period`` whose
    image truncation equals the lattice sum, when the cost model puts it
    below the direct path.  It is ruled out when even a uniform cloud's
    rows, whose weighted mass sits at ``m / D^d``, fail to clear twice the
    precision floor: most rows would then be recomputed directly on top.
    """
    if not (isinstance(spec, GaussianPeriodized) and isinstance(domain, Torus)
            and domain.size == spec.period):
        return None
    modes = spec._fourier_modes
    d = spec.d
    if modes is None or 1.0 / (spec.period**d * spec.u0) < 2.0 * _FLOOR:
        return None
    k_max = len(modes) - 1
    direct = n * m * d * ((2 * spec._n_images + 1) * _NS_IMAGE + _NS_COORD)
    fourier = (n + m) * ((2 * k_max + 1) ** d * _NS_FEATURE + d * k_max * _NS_TRIG)
    return modes if fourier < direct else None


def _features(x: np.ndarray, period: float, k_max: int) -> np.ndarray:
    """Row-wise tensor product over coordinates of ``[1, cos(w k x), sin(w k x)]``."""
    omega = 2.0 * math.pi / period * np.arange(1, k_max + 1)
    rows = x.shape[0]
    phi = None
    for c in range(x.shape[1]):
        xc = x[:, c] - period * np.rint(x[:, c] / period)  # smallest phase
        arg = xc[:, None] * omega[None, :]
        f = np.hstack([np.ones((rows, 1)), np.cos(arg), np.sin(arg)])
        phi = f if phi is None else (phi[:, :, None] * f[:, None, :]).reshape(rows, -1)
    return phi


def _fourier_sums(spec: GaussianPeriodized, modes: np.ndarray, x: np.ndarray,
                  v: np.ndarray, y: np.ndarray, u: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fourier-path ``(den, s)`` and the mask of rows that meet the precision floor."""
    n, d = x.shape
    m = y.shape[0]
    k_max = len(modes) - 1
    coef = np.concatenate([modes[:1], 2.0 * modes[1:], 2.0 * modes[1:]])
    weights = np.ones(1)
    for _ in range(d):
        weights = np.outer(weights, coef).ravel()
    cols = np.hstack([np.ones((m, 1)), u, np.abs(u)])
    step = max(1, _PRODUCT_MACS // (weights.size * cols.shape[1]))
    reduced = np.zeros((weights.size, cols.shape[1]))
    for lo in range(0, m, step):
        reduced += _features(y[lo:lo + step], spec.period, k_max).T @ cols[lo:lo + step]
    reduced *= weights[:, None]
    out = np.empty((n, cols.shape[1]))
    for lo in range(0, n, step):
        out[lo:lo + step] = _features(x[lo:lo + step], spec.period, k_max) @ reduced

    den = out[:, 0].copy()
    s = out[:, 1:1 + d] - v * den[:, None]
    positive = np.concatenate([out[:, :1], out[:, 1 + d:]], axis=1)
    floor = _FLOOR * spec.u0 * np.concatenate([[float(m)], np.abs(u).sum(axis=0)])
    return den, s, np.all(positive >= floor, axis=1)


def alignment_sums(spec: PotentialSpec, domain: Domain,
                   x: np.ndarray, v: np.ndarray,
                   y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw alignment sums of targets ``(x, v)`` against sources ``(y, u)``.

    Returns ``(den, s)`` with ``den_i = sum_j U(x_i - y_j)`` and
    ``s_i = sum_j U(x_i - y_j) (u_j - v_i)``.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    n = x.shape[0]
    m = y.shape[0]
    if n * m < _LARGE_PAIRS:
        path_counts["small"] += 1
        return _direct_sums(spec, domain, x, v, y, u, large=False)
    modes = _fourier_modes_for(spec, domain, n, m)
    if modes is None:
        path_counts["direct"] += 1
        return _direct_sums(spec, domain, x, v, y, u, large=True)
    path_counts["fourier"] += 1
    den, s, ok = _fourier_sums(spec, modes, x, v, y, u)
    bad = np.flatnonzero(~ok)
    if bad.size:
        path_counts["fourier_fallback_rows"] += int(bad.size)
        den[bad], s[bad] = _direct_sums(spec, domain, x[bad], v[bad], y, u, large=True)
    return den, s
