"""Reproducible scenario runner.

Configs are flat, typed key = value files with named ``[sections]``;
unknown sections or keys are rejected with their line number, defaults are
applied and echoed into the run summary.  A single global seed expands
into per-component streams through a fixed splitting rule (component codes:
0 initial state, 1 cloud sampling, 2 probes/diagnostics, 3 perturbations),
so enabling an extra diagnostic never perturbs the trajectory stream.
Identical config plus seed yields byte-identical artifacts.

Subcommands: ``simulate``, ``spectrum``, ``flock-detect``, ``converge``,
``stability``, ``picard``, ``entropy``, ``jacobian``, ``emit-plotdata``.
Runners build their inputs from the config, call the library and return
their ``checks`` and ``report``; :func:`run_scenario` alone adds ``scenario``,
``ok`` (every check passed) and ``config`` to the summary.  The
``converge`` runner maps :func:`flockkit.kinetic.mean_field_convergence`
over its seeds, one process job per seed.  The environment variable
``FLOCKKIT_THREADS`` (an integer >= 1) caps those workers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import density, dynamics, graph, kinetic, spectral
from .dynamics import ParticleEnsemble, Plain, Regularized, integrate
from .errors import ConfigError, FlockkitError
from .geometry import (
    CompactBump,
    FreeSpace,
    GaussianPeriodized,
    LogGradBounded,
    Torus,
)

SCENARIOS = ("simulate", "spectrum", "flock-detect", "converge", "stability",
             "picard", "entropy", "jacobian")

SEED_INIT = 0
SEED_SAMPLE = 1
SEED_PROBE = 2
SEED_PERTURB = 3


# ---------------------------------------------------------------------------
# Config schema and parsing


@dataclass(frozen=True)
class _Key:
    typ: str
    default: object = None
    choices: tuple = ()
    positive: bool = False
    nonneg: bool = False


# keys shared by sections: the kinetic scenarios' reference density (see
# _reference_density) and the evolved reference cloud of entropy and jacobian
_DENSITY = {"sigma": _Key("float", 0.3, positive=True),
            "v_cap": _Key("float", 0.95, positive=True)}
_CURVE = {"curve_n": _Key("int", 200, positive=True),
          "curve_dt": _Key("float", 0.005, positive=True)}

SCHEMA: dict[str, dict[str, _Key]] = {
    "run": {
        "scenario": _Key("str", "simulate", choices=SCENARIOS),
        "seed": _Key("int", 0, nonneg=True),
        "out": _Key("str", "out"),
        "save_every": _Key("int", 10, positive=True),
        "spectral_every": _Key("int", 0, nonneg=True),
        "graph_every": _Key("int", 0, nonneg=True),
        "moments": _Key("bool", True),
    },
    "domain": {
        "kind": _Key("str", "torus", choices=("free", "torus")),
        "d": _Key("int", 2, positive=True),
        "size": _Key("float", 10.0, positive=True),
    },
    "potential": {
        "kind": _Key("str", "gaussian", choices=("bump", "loggrad", "gaussian")),
        "range": _Key("float", 1.0, positive=True),
        "n_max": _Key("int", 0, nonneg=True),
    },
    "dynamics": {
        "mode": _Key("str", "plain", choices=("plain", "regularized")),
        "epsilon": _Key("float", 0.1, positive=True),
        "n": _Key("int", 50, positive=True),
        "t": _Key("float", 10.0, nonneg=True),
        "dt": _Key("float", None, positive=True),
        "speed": _Key("float", 1.0, positive=True),
    },
    "init": {
        "kind": _Key("str", "uniform", choices=("uniform", "flock", "perturbed_flock")),
        "spacing": _Key("float", 0.8, positive=True),
        "perturbation": _Key("float", 0.01, nonneg=True),
        "extent": _Key("float", 3.0, positive=True),
    },
    "graph": {
        "threshold": _Key("float", 0.0, nonneg=True),
    },
    "flock": {
        "radius": _Key("float", 0.01, positive=True),
        "window": _Key("float", None, positive=True),
    },
    "spectrum": {
        "configs": _Key("int", 100, positive=True),
        "n": _Key("int", 20, positive=True),
        "extent": _Key("float", 3.0, positive=True),
    },
    "converge": {
        "n_list": _Key("int_list", (100, 400, 1600)),
        "n_ref": _Key("int", 6400, positive=True),
        "t_eval": _Key("float", 1.0, positive=True),
        "seeds": _Key("int", 5, positive=True),
        **_DENSITY,
        "dt": _Key("float", 0.1, positive=True),
    },
    "stability": {
        "n": _Key("int", 200, positive=True),
        "t": _Key("float", 1.0, positive=True),
        "dt": _Key("float", 0.005, positive=True),
        "perturbation": _Key("float", 0.05, positive=True),
        "n_checks": _Key("int", 8, positive=True),
        **_DENSITY,
    },
    "picard": {
        "n": _Key("int", 200, positive=True),
        "t": _Key("float", 0.5, positive=True),
        "grid_k": _Key("int", 250, positive=True),
        "iters": _Key("int", 10, positive=True),
        "alpha_factor": _Key("float", 2.0, positive=True),
        **_DENSITY,
    },
    "entropy": {
        "m": _Key("int", 10000, positive=True),
        "t_list": _Key("float_list", (0.25, 0.5, 0.75, 1.0)),
        **_DENSITY,
        "dt": _Key("float", 0.0125, positive=True),
        **_CURVE,
    },
    "jacobian": {
        "points": _Key("int", 20, positive=True),
        "t": _Key("float", 1.0, positive=True),
        "h": _Key("float", 1e-4, positive=True),
        "dt": _Key("float", 0.001, positive=True),
        **_CURVE, **_DENSITY,
    },
}


@dataclass
class RunConfig:
    """Validated configuration: section -> key -> typed value."""

    sections: dict = dataclass_field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.sections[section][key]


def _convert(section: str, key: str, raw: str, spec: _Key):
    label = f"{section}.{key}"
    try:
        if spec.typ == "int":
            value = int(raw)
        elif spec.typ == "float":
            value = float(raw)
        elif spec.typ == "bool":
            if raw.lower() not in ("true", "false"):
                raise ValueError(raw)
            value = raw.lower() == "true"
        elif spec.typ == "int_list":
            value = tuple(int(p.strip()) for p in raw.split(",") if p.strip())
        elif spec.typ == "float_list":
            value = tuple(float(p.strip()) for p in raw.split(",") if p.strip())
        else:
            value = raw
    except ValueError as exc:
        raise ConfigError(f"{label}: cannot parse {raw!r} as {spec.typ}") from exc
    if spec.choices and value not in spec.choices:
        raise ConfigError(f"{label}: {value!r} not one of {spec.choices}")
    if spec.positive and isinstance(value, (int, float)) and not value > 0:
        raise ConfigError(f"{label} must be positive")
    if spec.nonneg and isinstance(value, (int, float)) and value < 0:
        raise ConfigError(f"{label} must be nonnegative")
    return value


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate config text; unknown sections/keys are rejected."""
    raw: dict[str, dict[str, str]] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}] (line {lineno})")
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value' (line {lineno}): {stripped!r}")
        if section is None:
            raise ConfigError(f"key outside of any [section] (line {lineno})")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}] (line {lineno})")
        if key in raw[section]:
            raise ConfigError(f"duplicate key '{key}' in section [{section}] (line {lineno})")
        raw[section][key] = value.strip()

    sections: dict[str, dict] = {}
    for section, keys in SCHEMA.items():
        sections[section] = {}
        for key, spec in keys.items():
            if section in raw and key in raw[section]:
                value = _convert(section, key, raw[section][key], spec)
            else:
                value = spec.default
            sections[section][key] = value
    return RunConfig(sections=sections)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


# ---------------------------------------------------------------------------
# Construction helpers


def _build_domain(cfg: RunConfig):
    d = cfg.get("domain", "d")
    if cfg.get("domain", "kind") == "torus":
        return Torus(d=d, size=cfg.get("domain", "size"))
    return FreeSpace(d=d)


def _build_potential(cfg: RunConfig, domain):
    kind = cfg.get("potential", "kind")
    rng_param = cfg.get("potential", "range")
    n_max = cfg.get("potential", "n_max") or None
    d = domain.d
    if kind == "bump":
        return CompactBump(d=d, radius=rng_param)
    if kind == "loggrad":
        period = domain.size if isinstance(domain, Torus) else None
        return LogGradBounded(d=d, decay=rng_param, period=period, n_max=n_max)
    if not isinstance(domain, Torus):
        raise ConfigError("potential.kind gaussian requires a torus domain")
    return GaussianPeriodized(d=d, width=rng_param, period=domain.size, n_max=n_max)


def _build_field(cfg: RunConfig):
    """The configured domain, and the interaction and mode on it."""
    domain = _build_domain(cfg)
    mode = Plain()
    if cfg.get("dynamics", "mode") == "regularized":
        mode = Regularized(epsilon=cfg.get("dynamics", "epsilon"))
    return domain, kinetic.FieldSpec(spec=_build_potential(cfg, domain), mode=mode)


def _rng(cfg: RunConfig, component: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([cfg.get("run", "seed"), component])
    )


def _uniform_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    direction = rng.normal(size=(n, d))
    direction /= np.maximum(np.sqrt(np.sum(np.square(direction), axis=1))[:, None], 1e-12)
    radii = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / d)
    return direction * radii[:, None]


def build_initial_state(cfg: RunConfig, domain, spec) -> ParticleEnsemble:
    """Seeded initial condition per the [init] section."""
    rng = _rng(cfg, SEED_INIT)
    n = cfg.get("dynamics", "n")
    d = domain.d
    speed = cfg.get("dynamics", "speed")
    kind = cfg.get("init", "kind")
    scale = dynamics.interaction_range(spec)

    if kind == "uniform":
        if isinstance(domain, Torus):
            q = rng.uniform(0.0, domain.size, size=(n, d))
        else:
            half = cfg.get("init", "extent") * scale
            q = rng.uniform(-half, half, size=(n, d))
        p = _uniform_ball(rng, n, d, speed)
        return ParticleEnsemble(domain, q, p)

    # compact connected grid with small seeded jitter (a chain would have a
    # near-degenerate spectral gap at this size)
    spacing = cfg.get("init", "spacing") * scale
    side = int(math.ceil(n ** (1.0 / d)))
    lattice = np.stack(np.meshgrid(*([np.arange(side)] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)[:n]
    q = spacing * lattice.astype(float)
    q += 0.01 * scale * rng.standard_normal((n, d))
    direction = rng.normal(size=d)
    direction /= np.sqrt(np.sum(np.square(direction)))
    p = np.tile(speed * direction, (n, 1))
    if kind == "perturbed_flock":
        eps = cfg.get("init", "perturbation")
        delta = rng.standard_normal((n, d))
        delta -= delta.mean(axis=0)
        norm = float(np.sqrt(np.sum(np.square(delta))))
        if norm > 0 and eps > 0:
            p = p + delta * (eps / norm)
    return ParticleEnsemble(domain, q, p)


def _resolve_dt(cfg: RunConfig, spec, w0: ParticleEnsemble) -> float:
    """Configured step, else the largest step on the grid of ``t`` not above the rule."""
    dt = cfg.get("dynamics", "dt")
    if dt is None:
        dt = dynamics.default_dt(spec, w0)
        t = cfg.get("dynamics", "t")
        if t > 0.0:
            dt = t / math.ceil(t / dt)
    return dt


def _workers(n_jobs: int) -> int:
    env = os.environ.get("FLOCKKIT_THREADS", "")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"FLOCKKIT_THREADS must be an integer >= 1, got {env!r}")
    return max(1, min(n_jobs, cap))


# ---------------------------------------------------------------------------
# Artifact helpers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _numpy_json(obj):
    """``json.dumps`` hook for numpy arrays and scalars; anything else is an error."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_numpy_json)
                    + "\n")


def _write_trajectory_jsonl(path: Path, traj: dynamics.Trajectory) -> None:
    with path.open("w") as fh:
        for k, rec in enumerate(traj.metrics):
            record = {"t": float(traj.times[k]), "q": traj.q[k].tolist(),
                      "p": traj.p[k].tolist(),
                      "metrics": {n: v for n, v in vars(rec).items() if n != "t"}}
            fh.write(json.dumps(record, sort_keys=True, default=_numpy_json) + "\n")


def _particle_run(cfg: RunConfig, out: Path):
    """Build and integrate the configured particle system, attach the graph and
    spectral diagnostics at their frame strides, and write ``metrics.csv``.

    Returns the initial state, the interaction, the step and the trajectory.
    """
    domain, field = _build_field(cfg)
    spec, mode = field.spec, field.mode
    w0 = build_initial_state(cfg, domain, spec)
    dt = _resolve_dt(cfg, spec, w0)
    traj = integrate(w0, spec, mode, T=cfg.get("dynamics", "t"), dt=dt,
                     save_every=cfg.get("run", "save_every"))
    graph_every = cfg.get("run", "graph_every")
    spectral_every = cfg.get("run", "spectral_every")
    for k, rec in enumerate(traj.metrics):
        state = traj.state_at(k)
        if graph_every and k % graph_every == 0:
            g = graph.build_graph(state, spec, cfg.get("graph", "threshold"))
            rec.connected = graph.is_connected(g)
        if spectral_every and k % spectral_every == 0:
            rec.spectral_gap = spectral.spectrum(
                spectral.interaction_matrix(state, spec, mode)).gap

    header = ["t", "dist_to_manifold", "second_moment", "max_speed",
              "connected", "spectral_gap"] + [f"mean_v_{c}" for c in range(domain.d)]
    rows = [[traj.times[k], rec.dist_to_manifold, rec.second_moment, rec.max_speed,
             "" if rec.connected is None else rec.connected,
             "" if rec.spectral_gap is None else rec.spectral_gap, *rec.mean_velocity]
            for k, rec in enumerate(traj.metrics)]
    write_csv(out / "metrics.csv", header, rows)
    return w0, spec, dt, traj


# ---------------------------------------------------------------------------
# Scenario runners (each returns its "checks" and "report")


def _run_simulate(cfg: RunConfig, out: Path) -> dict:
    w0, _, dt, traj = _particle_run(cfg, out)
    r0 = w0.max_speed()
    ball = dynamics.check_velocity_ball(traj, r0)
    checks = {"velocity_ball": ball.ok}
    flags = {}
    report = {"dt": dt, "max_speed": ball.max_speed, "initial_max_speed": r0}
    if cfg.get("run", "moments"):
        mom = density.moment_diagnostics(traj)
        frame_h = dt * cfg.get("run", "save_every")
        tol_ma1 = 100.0 * traj.times[-1] * frame_h**4 + 1e-12 if traj.times[-1] > 0 else 1e-12
        checks["ma1_identity"] = mom.ma1_max_err <= tol_ma1
        # reported, not gating: the velocity second moment genuinely rises
        # transiently for inhomogeneous states (the weights are row- but not
        # column-stochastic), so a breach is a property, not a failure
        flags["second_moment_monotone"] = bool(mom.max_second_moment_increase <= 1e-9)
        report["ma1_max_err"] = mom.ma1_max_err
        report["max_second_moment_increase"] = mom.max_second_moment_increase
    if cfg.get("init", "kind") == "flock":
        max_dist = max(rec.dist_to_manifold for rec in traj.metrics)
        checks["manifold_invariance"] = max_dist <= 1e-12
        report["max_dist_to_manifold"] = max_dist

    _write_trajectory_jsonl(out / "trajectory.jsonl", traj)
    return {"checks": checks, "flags": flags, "report": report}


def _run_flock_detect(cfg: RunConfig, out: Path) -> dict:
    _, spec, _, traj = _particle_run(cfg, out)
    window = cfg.get("flock", "window")
    if window is None:
        window = 0.2 * float(traj.times[-1] - traj.times[0])
    report = graph.detect_flocking(traj, spec, radius=cfg.get("flock", "radius"),
                                   window=window,
                                   threshold=cfg.get("graph", "threshold"))
    decay_rows = [[traj.times[k], rec.dist_to_manifold,
                   math.log(max(rec.dist_to_manifold, 1e-300))]
                  for k, rec in enumerate(traj.metrics)]
    write_csv(out / "decay.csv", ["t", "dist", "log_dist"], decay_rows)
    flock_payload = {
        "flocking": report.flocking,
        "v": None if report.v is None else report.v.tolist(),
        "t_detect": report.t_detect,
        "window": report.window,
        "radius": report.radius,
    }
    write_json(out / "flock.json", flock_payload)
    return {"checks": {"flocking": report.flocking}, "report": flock_payload}


def _run_spectrum(cfg: RunConfig, out: Path) -> dict:
    domain, field = _build_field(cfg)
    spec, mode = field.spec, field.mode
    rng = _rng(cfg, SEED_PROBE)
    n_cfg = cfg.get("spectrum", "configs")
    n = cfg.get("spectrum", "n")
    extent = cfg.get("spectrum", "extent") * dynamics.interaction_range(spec)

    rows = []
    checks = {"row_sums": True, "detailed_balance": True, "real_spectrum": True,
              "galilean_invariance": True, "gap_connectivity": True}
    for idx in range(n_cfg):
        if isinstance(domain, Torus):
            q = rng.uniform(0.0, domain.size, size=(n, domain.d))
        else:
            q = rng.uniform(-extent, extent, size=(n, domain.d))
        state = ParticleEnsemble(domain, q, np.zeros_like(q))
        m = spectral.interaction_matrix(state, spec, mode)
        report = spectral.spectrum(m)

        row_err = float(np.max(np.abs(m.a.sum(axis=1) - 1.0))) \
            if not m.substochastic else 0.0
        db = m.stationary[:, None] * m.a
        db_err = float(np.max(np.abs(db - db.T)))
        shift = rng.normal(size=domain.d)
        shifted = ParticleEnsemble(domain, q + shift[None, :], np.zeros_like(q))
        report2 = spectral.spectrum(spectral.interaction_matrix(shifted, spec, mode))
        gal_dev = float(np.max(np.abs(report.eigenvalues - report2.eigenvalues)))
        connected = graph.is_connected(graph.build_graph(state, spec,
                                                         cfg.get("graph", "threshold")))

        checks["row_sums"] &= m.substochastic or row_err <= 1e-12
        checks["detailed_balance"] &= db_err <= 1e-12
        checks["real_spectrum"] &= report.max_imag_residual <= 1e-10
        checks["galilean_invariance"] &= gal_dev <= 1e-10
        if not m.substochastic:
            checks["gap_connectivity"] &= (report.gap > 1e-10) == connected
        rows.append([idx, report.eigenvalues[0], report.eigenvalues[1], report.gap,
                     report.perron_simple, report.max_imag_residual, row_err,
                     db_err, gal_dev, connected])

    write_csv(out / "spectrum.csv",
              ["config", "lambda1", "lambda2", "gap", "perron_simple",
               "asym_residual", "row_sum_err", "detailed_balance_err",
               "galilean_dev", "connected"], rows)
    checks = {k: bool(v) for k, v in checks.items()}
    return {"checks": checks, "report": {"configs": n_cfg}}


def _run_converge(cfg: RunConfig, out: Path) -> dict:
    domain = _build_domain(cfg)
    if not isinstance(domain, Torus) or cfg.get("potential", "kind") != "gaussian":
        raise ConfigError("converge scenario requires a torus domain with the "
                          "gaussian potential family")
    field = kinetic.FieldSpec(spec=_build_potential(cfg, domain), mode=Plain())
    n_list = list(cfg.get("converge", "n_list"))
    seeds = [cfg.get("run", "seed") + k for k in range(cfg.get("converge", "seeds"))]
    # top-level callables bound by partial, so one seed's experiment pickles
    # into a worker process
    sampler = functools.partial(_sampled_cloud, domain, *_reference_density(cfg, "converge"))
    experiment = functools.partial(
        kinetic.mean_field_convergence, sampler, n_list, cfg.get("converge", "n_ref"),
        cfg.get("converge", "t_eval"), field, dt=cfg.get("converge", "dt"))
    jobs = [[seed] for seed in seeds]
    workers = _workers(len(jobs))
    per_seed = None
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                per_seed = list(pool.map(experiment, jobs))
        except OSError as exc:
            warnings.warn(f"converge: the process pool of {workers} workers failed "
                          f"({exc!r}); running the jobs serially", RuntimeWarning,
                          stacklevel=2)
    if per_seed is None:
        per_seed = [experiment(job) for job in jobs]
    rows = [[r["N"], r["seed"], r["t"], r["W_hat"]] for part in per_seed for r in part]
    write_csv(out / "convergence.csv", ["N", "seed", "t", "W_hat"], rows)

    medians = {n: float(np.median([r[3] for r in rows if r[0] == n])) for n in n_list}
    decreasing = all(medians[a] > medians[b]
                     for a, b in zip(n_list[:-1], n_list[1:]))
    return {"checks": {"median_decreasing": decreasing},
            "report": {"medians": {str(k): v for k, v in medians.items()}}}


def _reference_density(cfg: RunConfig, section: str) -> tuple[float, float]:
    """``(sigma, v_cap)`` of the section's reference density: uniform positions,
    velocities from N(0, sigma^2 I) truncated to the ball of radius ``v_cap``."""
    return cfg.get(section, "sigma"), cfg.get(section, "v_cap")


def _sampled_cloud(domain, sigma: float, v_cap: float, n: int,
                   rng: np.random.Generator) -> kinetic.PointCloud:
    sampler = density.torus_gaussian_sampler(domain, sigma, v_cap)
    w0, _ = sampler(n, rng)
    return kinetic.PointCloud(domain, w0[:, :domain.d], w0[:, domain.d:])


def _run_stability(cfg: RunConfig, out: Path) -> dict:
    domain, field = _build_field(cfg)
    n = cfg.get("stability", "n")
    sigma, v_cap = _reference_density(cfg, "stability")
    rng = _rng(cfg, SEED_SAMPLE)
    if isinstance(domain, Torus):
        cloud_a = _sampled_cloud(domain, sigma, v_cap, n, rng)
    else:
        half = cfg.get("init", "extent") * dynamics.interaction_range(field.spec)
        x = rng.uniform(-half, half, size=(n, domain.d))
        v = _uniform_ball(rng, n, domain.d, v_cap)
        cloud_a = kinetic.PointCloud(domain, x, v)

    prng = _rng(cfg, SEED_PERTURB)
    delta = cfg.get("stability", "perturbation")
    x_b = cloud_a.x + delta * prng.standard_normal(cloud_a.x.shape)
    v_b = cloud_a.v + delta * prng.standard_normal(cloud_a.v.shape)
    speeds = np.sqrt(np.sum(np.square(v_b), axis=1))
    v_b[speeds > 0.99] *= (0.99 / speeds[speeds > 0.99])[:, None]
    cloud_b = kinetic.PointCloud(domain, x_b, v_b)

    report = kinetic.stability_bound_check(
        cloud_a, cloud_b, field, T=cfg.get("stability", "t"),
        dt=cfg.get("stability", "dt"), n_checks=cfg.get("stability", "n_checks"))
    write_csv(out / "stability.csv", ["t", "W_hat", "ratio", "log_bound", "ok"],
              [[r["t"], r["W_hat"], r["ratio"], r["log_bound"], r["ok"]]
               for r in report.rows])
    return {"checks": {"growth_bound": report.ok},
            "report": {"c": report.c, "initial_distance": report.initial_distance}}


def _run_picard(cfg: RunConfig, out: Path) -> dict:
    domain, field = _build_field(cfg)
    rng = _rng(cfg, SEED_SAMPLE)
    cloud0 = _sampled_cloud(domain, *_reference_density(cfg, "picard"),
                            cfg.get("picard", "n"), rng)
    T = cfg.get("picard", "t")
    grid_k = cfg.get("picard", "grid_k")
    consts = kinetic.field_constants(field, domain)
    result = kinetic.picard_iterate(cloud0, field, T=T, grid_K=grid_k,
                                    iters=cfg.get("picard", "iters"),
                                    alpha=cfg.get("picard", "alpha_factor") * consts.L)

    direct = kinetic.evolve_cloud(cloud0, field, T, dt=T / grid_k,
                                  save_times=list(result.curves[-1].times))
    max_gap = kinetic.curve_distance(result.curves[-1], direct)

    payload = {
        "alpha": result.alpha,
        "bound": result.bound,
        "iterations": [
            {"iteration": i + 1, "d_alpha": d,
             "ratio": result.ratios[i - 1] if i >= 1 and i - 1 < len(result.ratios) else None}
            for i, d in enumerate(result.distances)
        ],
        "converged": result.converged,
        "max_gap_to_direct": max_gap,
    }
    write_json(out / "picard.json", payload)
    ratio_ok = (not result.ratios) or result.ratios[-1] <= result.bound + 0.05
    checks = {"converged": result.converged, "ratio_bound": bool(ratio_ok),
              "fixed_point_matches_direct": max_gap <= 1e-3}
    return {"checks": checks, "report": payload}


def _entropy_curve(cfg: RunConfig, section: str, domain, field, horizon: float):
    """A cloud from the section's reference density, evolved up to ``horizon``."""
    curve_cloud = _sampled_cloud(domain, *_reference_density(cfg, section),
                                 cfg.get(section, "curve_n"), _rng(cfg, SEED_SAMPLE))
    curve_dt = cfg.get(section, "curve_dt")
    # every tenth step; evolve_cloud rejects a horizon off the curve_dt grid
    save = [k * (10.0 * curve_dt) for k in range(round(horizon / curve_dt) // 10 + 1)]
    return kinetic.evolve_cloud(curve_cloud, field, horizon, curve_dt,
                                save_times=save)


def _run_entropy(cfg: RunConfig, out: Path) -> dict:
    domain, field = _build_field(cfg)
    t_list = list(cfg.get("entropy", "t_list"))
    curve = _entropy_curve(cfg, "entropy", domain, field, max(t_list))
    sampler = density.torus_gaussian_sampler(domain, *_reference_density(cfg, "entropy"))
    rows = density.entropy_decay_check(
        sampler, curve, field, t_list=t_list,
        M=cfg.get("entropy", "m"), dt=cfg.get("entropy", "dt"),
        rng=_rng(cfg, SEED_PROBE))
    write_csv(out / "entropy.csv",
              ["t", "H_transport", "H_knn", "gap", "mean_overlap"],
              [[r.t, r.H_transport, r.H_knn, r.gap, r.mean_overlap] for r in rows])

    target = -domain.d * float(np.mean([r.mean_overlap for r in rows]))
    checks = {}
    slope = float("nan")
    if len(rows) >= 2:  # one time fits no slope: it is reported only
        slope = float(np.polyfit([r.t for r in rows], [r.H_knn for r in rows], 1)[0])
        checks["knn_slope_matches_transport_rate"] = bool(
            abs(slope - target) <= 0.05 * abs(target))
    return {"checks": checks, "report": {"knn_slope": slope, "transport_rate": target}}


def _run_jacobian(cfg: RunConfig, out: Path) -> dict:
    domain, field = _build_field(cfg)
    t = cfg.get("jacobian", "t")
    curve = _entropy_curve(cfg, "jacobian", domain, field, t)
    sampler = density.torus_gaussian_sampler(domain, *_reference_density(cfg, "jacobian"))
    w0, _ = sampler(cfg.get("jacobian", "points"), _rng(cfg, SEED_PROBE))
    rows = []
    worst = 0.0
    for i in range(w0.shape[0]):
        rep = density.flow_jacobian((w0[i, :domain.d], w0[i, domain.d:]), curve, field,
                                    t=t, h=cfg.get("jacobian", "h"),
                                    dt=cfg.get("jacobian", "dt"))
        worst = max(worst, rep.rel_err)
        rows.append([i, rep.t, rep.det_fd, rep.det_theory, rep.rel_err])
    write_csv(out / "jacobian.csv", ["point", "t", "det_fd", "det_theory", "rel_err"],
              rows)
    return {"checks": {"determinant_matches": bool(worst <= 1e-3)},
            "report": {"max_rel_err": worst}}


_RUNNERS = {
    "simulate": _run_simulate,
    "spectrum": _run_spectrum,
    "flock-detect": _run_flock_detect,
    "converge": _run_converge,
    "stability": _run_stability,
    "picard": _run_picard,
    "entropy": _run_entropy,
    "jacobian": _run_jacobian,
}


def run_scenario(cfg: RunConfig, out_dir: str | Path | None = None) -> dict:
    """Execute the configured scenario, writing artifacts and a summary: the
    runner's keys plus ``scenario``, ``ok`` (every check passed) and ``config``."""
    scenario = cfg.get("run", "scenario")
    out = Path(out_dir if out_dir is not None else cfg.get("run", "out"))
    out.mkdir(parents=True, exist_ok=True)
    summary = _RUNNERS[scenario](cfg, out)
    summary.update(scenario=scenario, ok=all(summary["checks"].values()),
                   config=cfg.sections)
    write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Plot-data collation


def _read_columns(path: Path, *names: str) -> list[list[float]]:
    """The named columns of a CSV artifact, row by row, as floats."""
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = [header.index(name) for name in names]
    rows = (line.split(",") for line in lines[1:])
    return [[float(parts[i]) for i in idx] for parts in rows]


def emit_plotdata(artifact_dir: str | Path) -> list[Path]:
    """Collate plot-ready CSVs from prior run artifacts into ``plot/``."""
    base = Path(artifact_dir)
    tables: dict[str, tuple[list[str], list[list]]] = {}
    if (base / "metrics.csv").exists():
        rows = _read_columns(base / "metrics.csv", "t", "dist_to_manifold")
        tables["decay.csv"] = (["t", "log_dist"],
                               [[t, math.log(max(dist, 1e-300))] for t, dist in rows])
    if (base / "convergence.csv").exists():
        per_n: dict[int, list[float]] = {}
        for n, w in _read_columns(base / "convergence.csv", "N", "W_hat"):
            per_n.setdefault(int(n), []).append(w)
        tables["convergence.csv"] = (["N", "median_W_hat"],
                                     [[n, float(np.median(ws))]
                                      for n, ws in sorted(per_n.items())])
    if (base / "entropy.csv").exists():
        header = ["t", "H_transport", "H_knn"]
        tables["entropy.csv"] = (header, _read_columns(base / "entropy.csv", *header))
    if not tables:
        raise ConfigError(
            f"no plottable artifacts in {base}; expected one of metrics.csv, "
            "convergence.csv, entropy.csv"
        )
    plot = base / "plot"
    plot.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(plot / name, header, rows)
    return [plot / name for name in tables]


# ---------------------------------------------------------------------------
# Entry point


_FLAGS = ("seed", "out", "save_every", "spectral_every")


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace, scenario: str) -> None:
    """Flag values replace their ``[run]`` keys, parsed and checked like config text."""
    cfg.sections["run"]["scenario"] = scenario
    for key in _FLAGS:
        raw = getattr(args, key)
        if raw is not None:
            cfg.sections["run"][key] = _convert("run", key, raw, SCHEMA["run"][key])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="flockkit",
                                     description="alignment-dynamics laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", required=True, help="path to a run config file")
        for key in _FLAGS:
            p.add_argument("--" + key.replace("_", "-"))
    p = sub.add_parser("emit-plotdata", help="collate plot-ready CSVs from artifacts")
    p.add_argument("dir", help="artifact directory of a previous run")

    args = parser.parse_args(argv)
    try:
        if args.command == "emit-plotdata":
            for path in emit_plotdata(args.dir):
                print(path)
            return 0
        cfg = load_config(args.config)
        _apply_overrides(cfg, args, args.command)
        summary = run_scenario(cfg)
        status = "ok" if summary["ok"] else "FAILED"
        print(f"{args.command}: {status} (artifacts in {cfg.get('run', 'out')})")
        return 0 if summary["ok"] else 1
    except (FlockkitError, OSError) as exc:  # an I/O failure is an error too, not a failed check
        failure = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(failure, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
