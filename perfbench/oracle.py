"""Output checks: a counter of named checks and the direct-sum kernel oracle."""

from __future__ import annotations

import math

import numpy as np

# relative agreement demanded of the kernel sums against the direct sum
ORACLE_RTOL = 1e-12
ORACLE_ROWS = 8


class Checks:
    """Named pass/fail output checks of one iteration."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}

    def add(self, name: str, ok) -> None:
        if name in self.results:
            raise ValueError(f"check {name!r} recorded twice")
        self.results[name] = bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results.items() if not ok]


def direct_sums(spec, size: float | None, x_i: np.ndarray, v_i: np.ndarray,
                y: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Plain sums for one target row, written independently of ``flockkit._kernels``.

    Returns ``den = sum_j U(x_i - y_j)``, ``s = sum_j U(x_i - y_j)(u_j - v_i)``
    and the per-component scale ``sum_j U(x_i - y_j)(|u_j| + |v_i|)`` that
    bounds the terms of ``s``.  Displacements use the minimum image when
    ``size`` is given; the kernel is the family's own ``values`` method.
    """
    delta = x_i[None, :] - y
    if size is not None:
        delta = delta - size * np.rint(delta / size)
    w = spec.values(delta)
    den = math.fsum(w)
    terms = w[:, None] * (u - v_i[None, :])
    s = np.array([math.fsum(terms[:, c]) for c in range(y.shape[1])])
    scale = np.array([math.fsum(w * (np.abs(u[:, c]) + abs(v_i[c])))
                      for c in range(y.shape[1])])
    return den, s, scale


def kernel_oracle(alignment_sums, spec, domain, x, v, y, u,
                  rng: np.random.Generator) -> float:
    """Worst relative error of ``alignment_sums`` on a seeded sample of target rows.

    The whole call is made (so the band the program picks for this input
    size is the one checked); a sample of its rows is compared with
    :func:`direct_sums`.
    """
    den, s = alignment_sums(spec, domain, x, v, y, u)
    size = getattr(domain, "size", None)
    rows = np.sort(rng.choice(x.shape[0], size=min(ORACLE_ROWS, x.shape[0]),
                              replace=False))
    worst = 0.0
    for i in rows:
        den_ref, s_ref, scale = direct_sums(spec, size, x[i], v[i], y, u)
        worst = max(worst, abs(den[i] - den_ref) / max(den_ref, 1e-300),
                    float(np.max(np.abs(s[i] - s_ref) / np.maximum(scale, 1e-300))))
    return worst
