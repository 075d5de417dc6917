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
The environment variable ``FLOCKKIT_THREADS`` caps fan-out workers.
"""

from __future__ import annotations

import argparse
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
# Config schema, parsing, serialization


@dataclass(frozen=True)
class _Key:
    typ: str
    default: object = None
    choices: tuple = ()
    positive: bool = False
    nonneg: bool = False
    optional: bool = False  # may stay None (auto)


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
        "dt": _Key("float", None, optional=True),
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
        "window": _Key("float", None, optional=True),
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
        "sigma": _Key("float", 0.3, positive=True),
        "v_cap": _Key("float", 0.95, positive=True),
        "dt": _Key("float", 0.1, positive=True),
    },
    "stability": {
        "n": _Key("int", 200, positive=True),
        "t": _Key("float", 1.0, positive=True),
        "dt": _Key("float", 0.005, positive=True),
        "perturbation": _Key("float", 0.05, positive=True),
        "n_checks": _Key("int", 8, positive=True),
        "sigma": _Key("float", 0.3, positive=True),
        "v_cap": _Key("float", 0.95, positive=True),
    },
    "picard": {
        "n": _Key("int", 200, positive=True),
        "t": _Key("float", 0.5, positive=True),
        "grid_k": _Key("int", 250, positive=True),
        "iters": _Key("int", 10, positive=True),
        "alpha_factor": _Key("float", 2.0, positive=True),
        "sigma": _Key("float", 0.3, positive=True),
        "v_cap": _Key("float", 0.95, positive=True),
    },
    "entropy": {
        "m": _Key("int", 10000, positive=True),
        "t_list": _Key("float_list", (0.25, 0.5, 0.75, 1.0)),
        "sigma": _Key("float", 0.3, positive=True),
        "v_cap": _Key("float", 0.95, positive=True),
        "dt": _Key("float", 0.0125, positive=True),
        "curve_n": _Key("int", 200, positive=True),
        "curve_dt": _Key("float", 0.005, positive=True),
    },
    "jacobian": {
        "points": _Key("int", 20, positive=True),
        "t": _Key("float", 1.0, positive=True),
        "h": _Key("float", 1e-4, positive=True),
        "dt": _Key("float", 0.001, positive=True),
        "curve_n": _Key("int", 200, positive=True),
        "curve_dt": _Key("float", 0.005, positive=True),
        "sigma": _Key("float", 0.3, positive=True),
        "v_cap": _Key("float", 0.95, positive=True),
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
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
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
                if spec.optional and isinstance(value, float) and not value > 0:
                    raise ConfigError(f"{section}.{key} must be positive")
            elif spec.optional:
                value = None
            else:
                value = spec.default
            sections[section][key] = value
    return RunConfig(sections=sections)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def serialize_config(cfg: RunConfig) -> str:
    """Config text that parses back to an equal configuration."""
    lines = []
    for section in SCHEMA:
        lines.append(f"[{section}]")
        for key, spec in SCHEMA[section].items():
            value = cfg.sections[section][key]
            if value is None:
                continue
            if spec.typ in ("int_list", "float_list"):
                text = ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
            elif isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


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


def _build_mode(cfg: RunConfig):
    if cfg.get("dynamics", "mode") == "regularized":
        return Regularized(epsilon=cfg.get("dynamics", "epsilon"))
    return Plain()


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


def _field_for(cfg: RunConfig, domain, spec) -> kinetic.FieldSpec:
    return kinetic.FieldSpec(spec=spec, mode=_build_mode(cfg))


def _workers(n_jobs: int) -> int:
    env = os.environ.get("FLOCKKIT_THREADS", "")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = 1
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


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


def _write_trajectory_jsonl(path: Path, traj: dynamics.Trajectory) -> None:
    with path.open("w") as fh:
        for k, rec in enumerate(traj.metrics):
            record = {
                "t": float(traj.times[k]),
                "q": traj.q[k].tolist(),
                "p": traj.p[k].tolist(),
                "metrics": {
                    "dist_to_manifold": rec.dist_to_manifold,
                    "mean_velocity": rec.mean_velocity.tolist(),
                    "second_moment": rec.second_moment,
                    "max_speed": rec.max_speed,
                    "connected": rec.connected,
                    "spectral_gap": rec.spectral_gap,
                    "flock": rec.flock,
                },
            }
            fh.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")


def _metrics_rows(traj: dynamics.Trajectory) -> tuple[list[str], list[list]]:
    header = ["t", "dist_to_manifold", "second_moment", "max_speed",
              "connected", "spectral_gap"]
    header += [f"mean_v_{c}" for c in range(traj.domain.d)]
    rows = []
    for k, rec in enumerate(traj.metrics):
        row = [traj.times[k], rec.dist_to_manifold, rec.second_moment, rec.max_speed,
               "" if rec.connected is None else rec.connected,
               "" if rec.spectral_gap is None else rec.spectral_gap]
        row += list(rec.mean_velocity)
        rows.append(row)
    return header, rows


def _attach_diagnostics(cfg: RunConfig, traj: dynamics.Trajectory, spec) -> None:
    graph_every = cfg.get("run", "graph_every")
    spectral_every = cfg.get("run", "spectral_every")
    threshold = cfg.get("graph", "threshold")
    mode = _build_mode(cfg)
    for k in range(traj.n_frames):
        state = traj.state_at(k)
        if graph_every and k % graph_every == 0:
            g = graph.build_graph(state, spec, threshold)
            traj.metrics[k].connected = graph.is_connected(g)
        if spectral_every and k % spectral_every == 0:
            report = spectral.spectrum(spectral.interaction_matrix(state, spec, mode))
            traj.metrics[k].spectral_gap = report.gap


# ---------------------------------------------------------------------------
# Scenario runners (each returns a summary dict with an "ok" flag)


def _run_simulate(cfg: RunConfig, out: Path) -> dict:
    domain = _build_domain(cfg)
    spec = _build_potential(cfg, domain)
    mode = _build_mode(cfg)
    w0 = build_initial_state(cfg, domain, spec)
    dt = _resolve_dt(cfg, spec, w0)
    traj = integrate(w0, spec, mode, T=cfg.get("dynamics", "t"), dt=dt,
                     save_every=cfg.get("run", "save_every"))
    _attach_diagnostics(cfg, traj, spec)

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

    header, rows = _metrics_rows(traj)
    write_csv(out / "metrics.csv", header, rows)
    _write_trajectory_jsonl(out / "trajectory.jsonl", traj)
    return {"scenario": "simulate", "checks": checks, "flags": flags,
            "report": report, "ok": all(checks.values())}


def _run_flock_detect(cfg: RunConfig, out: Path) -> dict:
    domain = _build_domain(cfg)
    spec = _build_potential(cfg, domain)
    mode = _build_mode(cfg)
    w0 = build_initial_state(cfg, domain, spec)
    dt = _resolve_dt(cfg, spec, w0)
    traj = integrate(w0, spec, mode, T=cfg.get("dynamics", "t"), dt=dt,
                     save_every=cfg.get("run", "save_every"))
    _attach_diagnostics(cfg, traj, spec)

    window = cfg.get("flock", "window")
    if window is None:
        window = 0.2 * float(traj.times[-1] - traj.times[0])
    report = graph.detect_flocking(traj, spec, radius=cfg.get("flock", "radius"),
                                   window=window,
                                   threshold=cfg.get("graph", "threshold"))

    header, rows = _metrics_rows(traj)
    write_csv(out / "metrics.csv", header, rows)
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
    return {"scenario": "flock-detect", "checks": {"flocking": report.flocking},
            "report": flock_payload, "ok": report.flocking}


def _run_spectrum(cfg: RunConfig, out: Path) -> dict:
    domain = _build_domain(cfg)
    spec = _build_potential(cfg, domain)
    mode = _build_mode(cfg)
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
    return {"scenario": "spectrum", "checks": checks, "report": {"configs": n_cfg},
            "ok": all(checks.values())}


def _converge_job(args: tuple) -> tuple[int, int, np.ndarray, np.ndarray]:
    (size, d, width, n_max, n, seed, t_eval, dt, sigma, v_cap) = args
    domain = Torus(d=d, size=size)
    spec = GaussianPeriodized(d=d, width=width, period=size, n_max=n_max)
    field = kinetic.FieldSpec(spec=spec, mode=Plain())
    sampler = density.torus_gaussian_sampler(domain, sigma, v_cap)
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    w0, _ = sampler(n, rng)
    cloud = kinetic.PointCloud(domain, w0[:, :d], w0[:, d:])
    curve = kinetic.evolve_cloud(cloud, field, t_eval, dt)
    return n, seed, curve.x[-1], curve.v[-1]


def _run_converge(cfg: RunConfig, out: Path) -> dict:
    domain = _build_domain(cfg)
    if not isinstance(domain, Torus) or cfg.get("potential", "kind") != "gaussian":
        raise ConfigError("converge scenario requires a torus domain with the "
                          "gaussian potential family")
    spec = _build_potential(cfg, domain)
    n_list = list(cfg.get("converge", "n_list"))
    n_ref = cfg.get("converge", "n_ref")
    t_eval = cfg.get("converge", "t_eval")
    dt = cfg.get("converge", "dt")
    sigma = cfg.get("converge", "sigma")
    v_cap = cfg.get("converge", "v_cap")
    seeds = [cfg.get("run", "seed") + k for k in range(cfg.get("converge", "seeds"))]

    jobs = [(domain.size, domain.d, spec.width, spec.n_max, n, seed, t_eval, dt,
             sigma, v_cap)
            for seed in seeds for n in n_list + [n_ref]]
    workers = _workers(len(jobs))
    results = {}
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for n, seed, x, v in pool.map(_converge_job, jobs):
                    results[(n, seed)] = (x, v)
        except OSError as exc:
            warnings.warn(f"converge: the process pool of {workers} workers failed "
                          f"({exc!r}); running the jobs serially", RuntimeWarning,
                          stacklevel=2)
            results = {}
    if not results:
        for job in jobs:
            n, seed, x, v = _converge_job(job)
            results[(n, seed)] = (x, v)

    rows = []
    for seed in seeds:
        ref = kinetic.PointCloud(domain, *results[(n_ref, seed)])
        for n in n_list:
            cloud = kinetic.PointCloud(domain, *results[(n, seed)])
            w = kinetic.transport_distance(cloud, ref, seed=seed)
            rows.append([n, seed, t_eval, w])
    write_csv(out / "convergence.csv", ["N", "seed", "t", "W_hat"], rows)

    medians = {n: float(np.median([r[3] for r in rows if r[0] == n])) for n in n_list}
    decreasing = all(medians[a] > medians[b]
                     for a, b in zip(n_list[:-1], n_list[1:]))
    return {"scenario": "converge",
            "checks": {"median_decreasing": decreasing},
            "report": {"medians": {str(k): v for k, v in medians.items()}},
            "ok": decreasing}


def _sampled_cloud(domain, sigma: float, v_cap: float, n: int,
                   rng: np.random.Generator) -> kinetic.PointCloud:
    sampler = density.torus_gaussian_sampler(domain, sigma, v_cap)
    w0, _ = sampler(n, rng)
    return kinetic.PointCloud(domain, w0[:, :domain.d], w0[:, domain.d:])


def _run_stability(cfg: RunConfig, out: Path) -> dict:
    domain = _build_domain(cfg)
    spec = _build_potential(cfg, domain)
    field = _field_for(cfg, domain, spec)
    n = cfg.get("stability", "n")
    rng = _rng(cfg, SEED_SAMPLE)
    if isinstance(domain, Torus):
        cloud_a = _sampled_cloud(domain, cfg.get("stability", "sigma"),
                                 cfg.get("stability", "v_cap"), n, rng)
    else:
        half = cfg.get("init", "extent") * dynamics.interaction_range(spec)
        x = rng.uniform(-half, half, size=(n, domain.d))
        v = _uniform_ball(rng, n, domain.d, cfg.get("stability", "v_cap"))
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
    return {"scenario": "stability",
            "checks": {"growth_bound": report.ok},
            "report": {"c": report.c, "initial_distance": report.initial_distance},
            "ok": report.ok}


def _run_picard(cfg: RunConfig, out: Path) -> dict:
    domain = _build_domain(cfg)
    spec = _build_potential(cfg, domain)
    field = _field_for(cfg, domain, spec)
    rng = _rng(cfg, SEED_SAMPLE)
    cloud0 = _sampled_cloud(domain, cfg.get("picard", "sigma"),
                            cfg.get("picard", "v_cap"), cfg.get("picard", "n"), rng)
    T = cfg.get("picard", "t")
    grid_k = cfg.get("picard", "grid_k")
    consts = kinetic.field_constants(field, domain)
    result = kinetic.picard_iterate(cloud0, field, T=T, grid_K=grid_k,
                                    iters=cfg.get("picard", "iters"),
                                    alpha=cfg.get("picard", "alpha_factor") * consts.L)

    direct = kinetic.evolve_cloud(cloud0, field, T, dt=T / grid_k,
                                  save_times=list(result.curves[-1].times))
    final = result.curves[-1]
    gaps = [kinetic.transport_distance(
        kinetic.PointCloud(domain, final.x[k], final.v[k]),
        kinetic.PointCloud(domain, direct.x[k], direct.v[k]))
        for k in range(len(final.times))]

    payload = {
        "alpha": result.alpha,
        "bound": result.bound,
        "iterations": [
            {"iteration": i + 1, "d_alpha": d,
             "ratio": result.ratios[i - 1] if i >= 1 and i - 1 < len(result.ratios) else None}
            for i, d in enumerate(result.distances)
        ],
        "converged": result.converged,
        "max_gap_to_direct": max(gaps),
    }
    write_json(out / "picard.json", payload)
    ratio_ok = (not result.ratios) or result.ratios[-1] <= result.bound + 0.05
    checks = {"converged": result.converged, "ratio_bound": bool(ratio_ok),
              "fixed_point_matches_direct": max(gaps) <= 1e-3}
    return {"scenario": "picard", "checks": checks, "report": payload,
            "ok": all(checks.values())}


def _entropy_curve(cfg: RunConfig, section: str, domain, field):
    rng = _rng(cfg, SEED_SAMPLE)
    curve_cloud = _sampled_cloud(domain, cfg.get(section, "sigma"),
                                 cfg.get(section, "v_cap"),
                                 cfg.get(section, "curve_n"), rng)
    horizon = cfg.get(section, "t") if section == "jacobian" \
        else max(cfg.get(section, "t_list"))
    curve_dt = cfg.get(section, "curve_dt")
    save = list(np.arange(0.0, horizon + 1e-12, 10.0 * curve_dt))
    return kinetic.evolve_cloud(curve_cloud, field, horizon, curve_dt,
                                save_times=save)


def _run_entropy(cfg: RunConfig, out: Path) -> dict:
    domain = _build_domain(cfg)
    spec = _build_potential(cfg, domain)
    field = _field_for(cfg, domain, spec)
    curve = _entropy_curve(cfg, "entropy", domain, field)
    sampler = density.torus_gaussian_sampler(domain, cfg.get("entropy", "sigma"),
                                             cfg.get("entropy", "v_cap"))
    rows = density.entropy_decay_check(
        sampler, curve, field, t_list=list(cfg.get("entropy", "t_list")),
        M=cfg.get("entropy", "m"), dt=cfg.get("entropy", "dt"),
        rng=_rng(cfg, SEED_PROBE))
    write_csv(out / "entropy.csv",
              ["t", "H_transport", "H_knn", "gap", "mean_overlap"],
              [[r.t, r.H_transport, r.H_knn, r.gap, r.mean_overlap] for r in rows])

    ts = np.array([r.t for r in rows])
    hk = np.array([r.H_knn for r in rows])
    slope = float(np.polyfit(ts, hk, 1)[0]) if len(rows) >= 2 else float("nan")
    target = -domain.d * float(np.mean([r.mean_overlap for r in rows]))
    ok = len(rows) >= 2 and abs(slope - target) <= 0.05 * abs(target)
    return {"scenario": "entropy",
            "checks": {"knn_slope_matches_transport_rate": bool(ok)},
            "report": {"knn_slope": slope, "transport_rate": target},
            "ok": bool(ok)}


def _run_jacobian(cfg: RunConfig, out: Path) -> dict:
    domain = _build_domain(cfg)
    spec = _build_potential(cfg, domain)
    field = _field_for(cfg, domain, spec)
    curve = _entropy_curve(cfg, "jacobian", domain, field)
    sampler = density.torus_gaussian_sampler(domain, cfg.get("jacobian", "sigma"),
                                             cfg.get("jacobian", "v_cap"))
    w0, _ = sampler(cfg.get("jacobian", "points"), _rng(cfg, SEED_PROBE))
    t = cfg.get("jacobian", "t")
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
    ok = worst <= 1e-3
    return {"scenario": "jacobian", "checks": {"determinant_matches": bool(ok)},
            "report": {"max_rel_err": worst}, "ok": bool(ok)}


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
    """Execute the configured scenario, writing artifacts and a summary."""
    scenario = cfg.get("run", "scenario")
    out = Path(out_dir if out_dir is not None else cfg.get("run", "out"))
    out.mkdir(parents=True, exist_ok=True)
    summary = _RUNNERS[scenario](cfg, out)
    summary["config"] = cfg.sections
    write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Plot-data collation


def emit_plotdata(artifact_dir: str | Path) -> list[Path]:
    """Collate plot-ready CSVs from prior run artifacts into ``plot/``."""
    base = Path(artifact_dir)
    plot = base / "plot"
    produced: list[Path] = []

    metrics = base / "metrics.csv"
    if metrics.exists():
        lines = metrics.read_text().strip().splitlines()
        header = lines[0].split(",")
        t_i, d_i = header.index("t"), header.index("dist_to_manifold")
        rows = []
        for line in lines[1:]:
            parts = line.split(",")
            dist = float(parts[d_i])
            rows.append([float(parts[t_i]), math.log(max(dist, 1e-300))])
        plot.mkdir(parents=True, exist_ok=True)
        write_csv(plot / "decay.csv", ["t", "log_dist"], rows)
        produced.append(plot / "decay.csv")

    convergence = base / "convergence.csv"
    if convergence.exists():
        lines = convergence.read_text().strip().splitlines()
        header = lines[0].split(",")
        n_i, w_i = header.index("N"), header.index("W_hat")
        per_n: dict[int, list[float]] = {}
        for line in lines[1:]:
            parts = line.split(",")
            per_n.setdefault(int(parts[n_i]), []).append(float(parts[w_i]))
        rows = [[n, float(np.median(vals))] for n, vals in sorted(per_n.items())]
        plot.mkdir(parents=True, exist_ok=True)
        write_csv(plot / "convergence.csv", ["N", "median_W_hat"], rows)
        produced.append(plot / "convergence.csv")

    entropy_csv = base / "entropy.csv"
    if entropy_csv.exists():
        lines = entropy_csv.read_text().strip().splitlines()
        header = lines[0].split(",")
        idx = [header.index(c) for c in ("t", "H_transport", "H_knn")]
        rows = [[float(line.split(",")[i]) for i in idx] for line in lines[1:]]
        plot.mkdir(parents=True, exist_ok=True)
        write_csv(plot / "entropy.csv", ["t", "H_transport", "H_knn"], rows)
        produced.append(plot / "entropy.csv")

    if not produced:
        raise ConfigError(
            f"no plottable artifacts in {base}; expected one of metrics.csv, "
            "convergence.csv, entropy.csv"
        )
    return produced


# ---------------------------------------------------------------------------
# Entry point


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace, scenario: str) -> None:
    cfg.sections["run"]["scenario"] = scenario
    if args.seed is not None:
        cfg.sections["run"]["seed"] = args.seed
    if args.out is not None:
        cfg.sections["run"]["out"] = args.out
    if args.save_every is not None:
        cfg.sections["run"]["save_every"] = args.save_every
    if args.spectral_every is not None:
        cfg.sections["run"]["spectral_every"] = args.spectral_every


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="flockkit",
                                     description="alignment-dynamics laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", required=True, help="path to a run config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--save-every", type=int, default=None, dest="save_every")
        p.add_argument("--spectral-every", type=int, default=None, dest="spectral_every")
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
    except FlockkitError as exc:
        failure = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(failure, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
