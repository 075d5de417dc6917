"""The benchmark's workloads: seeded inputs, the timed body and its output checks.

Each workload is built once from ``(seed, scale)`` by :func:`setup` (input
generation, untimed) and then run any number of times with
``run(out_dir, checks)``.  ``run`` starts with its first call into flockkit
and ends with its last output check; it returns an :class:`Outcome` whose
digest must repeat exactly for one seed.  Calls into flockkit go through
module attributes at call time, so a tracer installed on the modules sees
them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from flockkit import _kernels, cli, density, dynamics, geometry, kinetic
from oracle import ORACLE_RTOL, Checks, kernel_oracle

# sizes per workload; "full" is what the benchmark measures, "quick" keeps
# every code path (both pair bands included) for the benchmark's own tests
SIZES = {
    "particles": {
        "full": {"n": 50, "t": 0.3, "dt": 1e-3, "save_every": 50, "spectral_every": 10,
                 "graph_every": 1, "epsilon": 0.1, "flock_n": 20, "flock_t": 4.0,
                 "flock_dt": 2e-3},
        "quick": {"n": 50, "t": 0.05, "dt": 1e-3, "save_every": 10, "spectral_every": 5,
                  "graph_every": 1, "epsilon": 0.1, "flock_n": 20, "flock_t": 1.0,
                  "flock_dt": 2e-3},
    },
    "mean_field": {
        "full": {"n_list": (100, 400, 1600), "n_ref": 3200, "t_eval": 0.1, "dt": 0.1},
        "quick": {"n_list": (100, 400), "n_ref": 1100, "t_eval": 0.1, "dt": 0.1},
    },
    "entropy": {
        "full": {"curve_n": 256, "curve_t": 0.05, "curve_dt": 0.005, "m": 4000,
                 "t_list": (0.025, 0.05), "dt": 0.0125},
        "quick": {"curve_n": 400, "curve_t": 0.025, "curve_dt": 0.005, "m": 2600,
                  "t_list": (0.0125, 0.025), "dt": 0.0125},
    },
}

# the three interaction families of the particle runs, as the CLI builds them
_FAMILIES = (
    ("bump", "free", lambda: (geometry.FreeSpace(2), geometry.CompactBump(d=2, radius=1.0))),
    ("loggrad", "free", lambda: (geometry.FreeSpace(2), geometry.LogGradBounded(d=2, decay=1.0))),
    ("gaussian", "torus", lambda: (geometry.Torus(2, 10.0),
                                   geometry.GaussianPeriodized(d=2, width=1.0, period=10.0))),
)

_SIMULATE_CFG = """\
[run]
scenario = simulate
seed = {seed}
save_every = {save_every}
spectral_every = {spectral_every}
graph_every = {graph_every}

[domain]
kind = {domain}
d = 2
size = 10.0

[potential]
kind = {family}
range = 1.0

[dynamics]
mode = {mode}
epsilon = {epsilon!r}
n = {n}
t = {t!r}
dt = {dt!r}

[init]
kind = uniform
extent = 1.5
"""

# configs/flock.cfg with the horizon and size taken from SIZES
_FLOCK_CFG = """\
[run]
scenario = flock-detect
seed = {seed}
save_every = 250

[domain]
kind = free
d = 2

[potential]
kind = bump
range = 1.0

[dynamics]
mode = plain
n = {flock_n}
t = {flock_t!r}
dt = {flock_dt!r}
speed = 0.5

[init]
kind = perturbed_flock
spacing = 0.55
perturbation = 0.01

[flock]
radius = 0.01
"""

_SIGMA = 0.3  # velocity spread of the reference density (as in the CLI defaults)


@dataclass
class Outcome:
    """What one run produced: a digest of its outputs and exact benchmark-side counts."""

    digest: str
    counts: dict = field(default_factory=dict)


def _oracle_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 7919, tag]))


class Particles:
    """Six ``simulate`` runs (three families, plain and regularized) and one ``flock-detect``."""

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.runs = []  # (label, config text, domain, spec)
        k = 0
        for family, domain_kind, build in _FAMILIES:
            for mode in ("plain", "regularized"):
                text = _SIMULATE_CFG.format(seed=8 * seed + k, domain=domain_kind,
                                            family=family, mode=mode, **sizes)
                self.runs.append((f"{family}-{mode}", text, *build()))
                k += 1
        text = _FLOCK_CFG.format(seed=8 * seed + k, **sizes)
        self.runs.append(("flock", text, geometry.FreeSpace(2),
                          geometry.CompactBump(d=2, radius=1.0)))

    def run(self, out: Path, checks: Checks) -> Outcome:
        digest = hashlib.sha256()
        artifact_bytes = 0
        for k, (label, text, domain, spec) in enumerate(self.runs):
            cfg = cli.parse_config_text(text)
            run_dir = out / label
            summary = cli.run_scenario(cfg, run_dir)
            for name, ok in summary["checks"].items():
                checks.add(f"{label}.{name}", ok)
            for path in sorted(run_dir.iterdir()):
                data = path.read_bytes()
                artifact_bytes += len(data)
                digest.update(f"{label}/{path.name}:{len(data)}:".encode())
                digest.update(data)
            if summary["scenario"] == "simulate":  # the last saved frame
                last = (run_dir / "trajectory.jsonl").read_text().splitlines()[-1]
                frame = json.loads(last)
                q = np.asarray(frame["q"], dtype=float)
                p = np.asarray(frame["p"], dtype=float)
            else:  # flock-detect saves no states: its initial one
                w0 = cli.build_initial_state(cfg, domain, spec)
                q, p = w0.q, w0.p
            err = kernel_oracle(_kernels.alignment_sums, spec, domain, q, p, q, p,
                                _oracle_rng(self.seed, k))
            checks.add(f"{label}.kernel_oracle", err <= ORACLE_RTOL)
        return Outcome(digest=digest.hexdigest(), counts={"artifact_bytes": artifact_bytes})


def _torus_setup():
    domain = geometry.Torus(2, 10.0)
    spec = geometry.GaussianPeriodized(d=2, width=1.0, period=10.0)
    field_spec = kinetic.FieldSpec(spec=spec, mode=dynamics.Plain())
    return domain, spec, field_spec


class MeanField:
    """``mean_field_convergence`` on the 10-torus with the periodized Gaussian."""

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes
        self.domain, self.spec, self.field = _torus_setup()
        base = density.torus_gaussian_sampler(self.domain, _SIGMA)
        domain = self.domain

        def sampler(n: int, rng: np.random.Generator):
            w0, _ = base(n, rng)
            return kinetic.PointCloud(domain, w0[:, :2], w0[:, 2:])

        self.sampler = sampler

    def run(self, out: Path, checks: Checks) -> Outcome:
        sz = self.sizes
        rows = kinetic.mean_field_convergence(
            self.sampler, list(sz["n_list"]), sz["n_ref"], sz["t_eval"], self.field,
            seeds=[self.seed], dt=sz["dt"])
        for row in rows:
            checks.add(f"W_hat.N{row['N']}.in_(0,1]", 0.0 < row["W_hat"] <= 1.0)
        checks.add("rows", [row["N"] for row in rows] == list(sz["n_list"]))
        # the largest call (the reference cloud's first self-interaction) and
        # the smallest (the first cloud's), as mean_field_convergence draws them
        for tag, n in enumerate((sz["n_ref"], sz["n_list"][0])):
            cloud = self.sampler(n, np.random.default_rng(np.random.SeedSequence([self.seed, n])))
            err = kernel_oracle(_kernels.alignment_sums, self.spec, self.domain,
                                cloud.x, cloud.v, cloud.x, cloud.v,
                                _oracle_rng(self.seed, tag))
            checks.add(f"kernel_oracle.N{n}", err <= ORACLE_RTOL)
        payload = json.dumps(rows, sort_keys=True).encode()
        return Outcome(digest=hashlib.sha256(payload).hexdigest())


class Entropy:
    """A Gaussian curve evolved, then ``entropy_decay_check`` against it."""

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes
        self.domain, self.spec, self.field = _torus_setup()
        self.sampler = density.torus_gaussian_sampler(self.domain, _SIGMA)
        w0, _ = self.sampler(sizes["curve_n"],
                             np.random.default_rng(np.random.SeedSequence([seed, 1])))
        self.curve_cloud = kinetic.PointCloud(self.domain, w0[:, :2], w0[:, 2:])

    def _probe_rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, 2]))

    def run(self, out: Path, checks: Checks) -> Outcome:
        sz = self.sizes
        t_list = list(sz["t_list"])
        save = list(np.arange(0.0, sz["curve_t"] + 1e-12, 10.0 * sz["curve_dt"]))
        curve = kinetic.evolve_cloud(self.curve_cloud, self.field, sz["curve_t"],
                                     sz["curve_dt"], save_times=save)
        rows = density.entropy_decay_check(self.sampler, curve, self.field, t_list=t_list,
                                           M=sz["m"], dt=sz["dt"], rng=self._probe_rng())
        checks.add("rows", [r.t for r in rows] == t_list)
        # exact transport law: H(t) = H(0) - d t for the plain field
        w0, logf0 = self.sampler(sz["m"], self._probe_rng())
        h0 = -float(np.mean(logf0))
        d = self.domain.d
        for r in rows:
            checks.add(f"transport_law.t{r.t!r}", abs(r.H_transport - (h0 - d * r.t)) <= 1e-12)
        # the largest call (first characteristic stage: all samples against the
        # curve's first cloud) and the curve's own first self-interaction
        for tag, (x, v) in enumerate(((w0[:, :d], w0[:, d:]), (curve.x[0], curve.v[0]))):
            err = kernel_oracle(_kernels.alignment_sums, self.spec, self.domain,
                                x, v, curve.x[0], curve.v[0], _oracle_rng(self.seed, tag))
            checks.add(f"kernel_oracle.{x.shape[0]}x{curve.n}", err <= ORACLE_RTOL)
        digest = hashlib.sha256()
        for r in rows:
            digest.update(repr((r.t, r.H_transport, r.H_knn, r.gap, r.mean_overlap)).encode())
        digest.update(np.ascontiguousarray(curve.x[-1]).tobytes())
        digest.update(np.ascontiguousarray(curve.v[-1]).tobytes())
        return Outcome(digest=digest.hexdigest())


WORKLOADS = {"particles": Particles, "mean_field": MeanField, "entropy": Entropy}


def setup(name: str, seed: int, scale: str = "full"):
    """Build workload ``name`` with inputs drawn from ``seed``."""
    return WORKLOADS[name](seed, SIZES[name][scale])
