"""Row-stochastic interaction matrix, its real spectrum and gap diagnostics.

The alignment weights form a row-stochastic matrix that is reversible with
respect to the normalized row masses, so conjugating with the square root
of that distribution yields a symmetric matrix with the same (real)
spectrum.  Eigenvalues come from LAPACK's symmetric solver through
``numpy.linalg.eigvalsh`` (tridiagonal reduction, then ``dsterf``), so the
particle path loads no scipy.  The gap ``1 - lambda_2`` equals the spectral
gap of the full phase-space generator, whose nonzero eigenvalues are the
weight eigenvalues shifted by minus one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import kernel_table
from .dynamics import DynamicsMode, ParticleEnsemble, Plain, _weighted_average
from .errors import InputError, NumericalError, PreconditionError
from .geometry import FreeSpace, PotentialSpec, displacement_table

__all__ = [
    "InteractionMatrix",
    "SpectrumReport",
    "interaction_matrix",
    "spectrum",
    "BNormReport",
    "b_norm_check",
    "operator_norm",
]

_SIMPLE_TOL = 1e-10


@dataclass
class InteractionMatrix:
    """Alignment weight matrix with its reversibility distribution.

    ``stationary`` is proportional to the row interaction masses (plus the
    regularization, when active), normalized to total mass one; detailed
    balance ``stationary_i a_ij = stationary_j a_ji`` holds in both modes.
    In the regularized mode rows sum to strictly less than one and
    ``substochastic`` flags it.
    """

    a: np.ndarray
    stationary: np.ndarray
    substochastic: bool

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass
class SpectrumReport:
    """Real sorted spectrum of the symmetrized weight matrix."""

    eigenvalues: np.ndarray
    gap: float
    perron_simple: bool
    max_imag_residual: float


def interaction_matrix(state: ParticleEnsemble, spec: PotentialSpec,
                       mode: DynamicsMode = Plain()) -> InteractionMatrix:
    """Build the weight matrix ``a_ij = U(q_i - q_j) / (row mass + epsilon)``."""
    u = kernel_table(spec, state.domain, state.q)
    den = u.sum(axis=1)
    eps = mode.epsilon
    if eps == 0.0 and float(den.min()) <= 0.0:
        raise NumericalError("zero interaction row mass in plain mode")
    a = _weighted_average(den, u, eps)
    stationary = den / den.sum()
    return InteractionMatrix(a=a, stationary=stationary, substochastic=eps > 0.0)


def spectrum(m: InteractionMatrix) -> SpectrumReport:
    """Real spectrum of the weight matrix via the reversibility symmetrization."""
    if not np.all(m.stationary > 0.0):
        raise PreconditionError("stationary distribution must be strictly positive")
    root = np.sqrt(m.stationary)
    sym = root[:, None] * m.a / root[None, :]
    residual = float(np.max(np.abs(sym - sym.T)))
    sym = 0.5 * (sym + sym.T)
    eig = np.linalg.eigvalsh(sym)[::-1]
    gap = float(1.0 - eig[1]) if m.n > 1 else 1.0
    perron_simple = m.n > 1 and (eig[0] - eig[1]) > _SIMPLE_TOL
    return SpectrumReport(eigenvalues=eig, gap=gap, perron_simple=perron_simple,
                          max_imag_residual=residual)


def operator_norm(b: np.ndarray) -> float:
    """Largest singular value (spectral norm)."""
    return float(np.linalg.norm(np.asarray(b, dtype=float), 2))


@dataclass
class BNormReport:
    """Both sides of the weight-drift norm bound along a trajectory."""

    lhs: float
    rhs: float
    eta: float
    eta_grid: float
    max_pair_shift: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + 1e-12


def b_norm_check(q_t: np.ndarray, q_0: np.ndarray, spec: PotentialSpec,
                 n_s: int = 128) -> BNormReport:
    """Check the operator-norm bound on the drift of the weight matrix.

    ``lhs`` is the largest singular value of the difference of the weight
    matrices at the two configurations; ``rhs`` is the certified bound built
    from the interaction's gradient supremum, its value at the origin, the
    pairwise displacement drift, and a lower bound ``eta`` on the
    interaction along all pair segments.  ``eta`` is certified only for
    monotone radial families (segment minima sit at endpoints); otherwise
    zero is used.  ``eta_grid`` reports the ``n_s``-point grid evaluation.
    """
    q_t = np.atleast_2d(np.asarray(q_t, dtype=float))
    q_0 = np.atleast_2d(np.asarray(q_0, dtype=float))
    if q_t.shape != q_0.shape:
        raise InputError(f"configuration shapes differ: {q_t.shape} vs {q_0.shape}")
    n, d = q_t.shape
    free = FreeSpace(d)
    # one pair table per configuration feeds the weights, the shift and eta
    d0 = displacement_table(free, q_0, q_0)
    d1 = displacement_table(free, q_t, q_t)
    u_0 = spec.values(d0)
    u_t = spec.values(d1)
    den_t = u_t.sum(axis=1)
    den_0 = u_0.sum(axis=1)
    if min(float(den_t.min()), float(den_0.min())) <= 0.0:
        raise NumericalError("zero interaction row mass while forming weight matrices")
    b = u_t / den_t[:, None] - u_0 / den_0[:, None]
    lhs = operator_norm(b)
    max_shift = float(np.max(np.sqrt(np.sum(np.square(d1 - d0), axis=-1))))

    # minimum interaction along the straight segments between pair displacements
    eta_grid = np.inf
    for s in np.linspace(0.0, 1.0, n_s):
        eta_grid = min(eta_grid, float(spec.values((1.0 - s) * d0 + s * d1).min()))
    if spec.monotone_radial:
        eta = min(float(u_0.min()), float(u_t.min()))
    else:
        eta = 0.0

    rhs = 2.0 * n * spec.grad_sup / (spec.u0 + (n - 1) * eta) * max_shift
    return BNormReport(lhs=lhs, rhs=rhs, eta=eta, eta_grid=eta_grid,
                       max_pair_shift=max_shift)
