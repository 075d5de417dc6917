import json

import numpy as np
import pytest

from flockkit import ConfigError
from flockkit.cli import (
    build_initial_state,
    emit_plotdata,
    load_config,
    main,
    parse_config_text,
    run_scenario,
    serialize_config,
)

MINIMAL = """
[run]
scenario = simulate
seed = 3
save_every = 5

[domain]
kind = free
d = 2

[potential]
kind = bump
range = 1.0

[dynamics]
mode = plain
n = 8
t = 0.5
dt = 0.01

[init]
kind = uniform
extent = 1.5
"""

FLOCKY = MINIMAL.replace(
    "kind = uniform\nextent = 1.5",
    "kind = perturbed_flock\nspacing = 0.55\nperturbation = 0.01",
)


class TestConfigParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.get("run", "scenario") == "simulate"
        assert cfg.get("run", "seed") == 3
        assert cfg.get("run", "out") == "out"  # default echoed
        assert cfg.get("dynamics", "n") == 8
        assert cfg.get("flock", "radius") == 0.01  # untouched section defaults
        assert cfg.get("converge", "n_list") == (100, 400, 1600)

    def test_negative_dt_rejected(self):
        bad = MINIMAL.replace("dt = 0.01", "dt = -0.1")
        with pytest.raises(ConfigError, match="dt must be positive"):
            parse_config_text(bad)

    def test_unknown_key_rejected_by_name(self):
        bad = MINIMAL.replace("dt = 0.01", "dtt = 0.01")
        with pytest.raises(ConfigError, match="dtt"):
            parse_config_text(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="nonsense"):
            parse_config_text("[nonsense]\nx = 1\n")

    def test_parse_error_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[run]\nbroken line without equals\n")

    def test_type_errors_named(self):
        bad = MINIMAL.replace("n = 8", "n = eight")
        with pytest.raises(ConfigError, match="dynamics.n"):
            parse_config_text(bad)

    def test_round_trip(self):
        cfg = parse_config_text(MINIMAL)
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")


class TestInitialStates:
    def test_perturbation_norm_is_exact(self):
        cfg = parse_config_text(FLOCKY)
        from flockkit.cli import _build_domain, _build_potential
        domain = _build_domain(cfg)
        spec = _build_potential(cfg, domain)
        w0 = build_initial_state(cfg, domain, spec)
        centered = w0.p - w0.p.mean(axis=0)
        assert float(np.sqrt(np.sum(centered**2))) == pytest.approx(0.01, rel=1e-12)

    def test_seeded_determinism(self):
        cfg = parse_config_text(MINIMAL)
        from flockkit.cli import _build_domain, _build_potential
        domain = _build_domain(cfg)
        spec = _build_potential(cfg, domain)
        a = build_initial_state(cfg, domain, spec)
        b = build_initial_state(cfg, domain, spec)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.p, b.p)


class TestRunScenario:
    def test_simulate_writes_artifacts_and_passes(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        summary = run_scenario(cfg, tmp_path)
        assert summary["ok"]
        assert (tmp_path / "trajectory.jsonl").exists()
        assert (tmp_path / "metrics.csv").exists()
        loaded = json.loads((tmp_path / "summary.json").read_text())
        assert loaded["checks"]["velocity_ball"] is True

    def test_byte_identical_rerun(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for name in ("trajectory.jsonl", "metrics.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_different_seed_changes_artifacts(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        run_scenario(cfg, tmp_path / "a")
        cfg2 = parse_config_text(MINIMAL.replace("seed = 3", "seed = 4"))
        run_scenario(cfg2, tmp_path / "b")
        assert (tmp_path / "a" / "trajectory.jsonl").read_bytes() != \
            (tmp_path / "b" / "trajectory.jsonl").read_bytes()

    def test_trajectory_jsonl_schema(self, tmp_path):
        cfg = parse_config_text(MINIMAL)
        run_scenario(cfg, tmp_path)
        first = json.loads((tmp_path / "trajectory.jsonl").read_text().splitlines()[0])
        assert set(first) == {"t", "q", "p", "metrics"}
        assert len(first["q"]) == 8 and len(first["q"][0]) == 2
        assert "dist_to_manifold" in first["metrics"]

    def test_on_manifold_simulation_invariance_check(self, tmp_path):
        text = FLOCKY.replace("kind = perturbed_flock", "kind = flock")
        cfg = parse_config_text(text)
        summary = run_scenario(cfg, tmp_path)
        assert summary["checks"]["manifold_invariance"]
        assert summary["report"]["max_dist_to_manifold"] <= 1e-12

    def test_near_manifold_transient_flags_moment_monotonicity(self, tmp_path):
        # slightly perturbed flocks transiently raise the velocity second
        # moment (the weight matrix is row- but not column-stochastic); the
        # runner must flag it without treating the run as failed
        cfg = parse_config_text(FLOCKY)
        summary = run_scenario(cfg, tmp_path)
        assert summary["flags"]["second_moment_monotone"] is False
        assert summary["report"]["max_second_moment_increase"] > 1e-9
        assert summary["ok"]

    def test_default_step_lands_on_the_horizon(self, tmp_path):
        from flockkit.cli import _build_domain, _build_potential
        from flockkit.dynamics import default_dt
        text = MINIMAL.replace("t = 0.5\ndt = 0.01\n", "t = 0.5\n")
        cfg = parse_config_text(text)
        assert cfg.get("dynamics", "dt") is None
        domain = _build_domain(cfg)
        spec = _build_potential(cfg, domain)
        rule = default_dt(spec, build_initial_state(cfg, domain, spec))
        assert 0.5 / rule != round(0.5 / rule)  # the rule's own grid misses t
        summary = run_scenario(cfg, tmp_path)
        last = (tmp_path / "metrics.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 0.5
        assert summary["report"]["dt"] <= rule


class TestEmitPlotdata:
    def test_after_flock_run(self, tmp_path):
        text = FLOCKY.replace("scenario = simulate", "scenario = flock-detect")
        text = text.replace("t = 0.5", "t = 2.0")
        cfg = parse_config_text(text)
        run_scenario(cfg, tmp_path)
        produced = emit_plotdata(tmp_path)
        assert (tmp_path / "plot" / "decay.csv").exists()
        header = (tmp_path / "plot" / "decay.csv").read_text().splitlines()[0]
        assert header == "t,log_dist"
        assert produced

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="expected"):
            emit_plotdata(tmp_path)


class TestMain:
    def test_simulate_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert (tmp_path / "run" / "summary.json").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL.replace("dt = 0.01", "dt = -1"))
        code = main(["simulate", "--config", str(cfg_path)])
        assert code == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        main(["simulate", "--config", str(cfg_path), "--seed", "9",
              "--out", str(tmp_path / "s9")])
        summary = json.loads((tmp_path / "s9" / "summary.json").read_text())
        assert summary["config"]["run"]["seed"] == 9

    def test_emit_plotdata_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        code = main(["emit-plotdata", str(tmp_path / "r")])
        assert code == 0
        assert (tmp_path / "r" / "plot" / "decay.csv").exists()


class TestDiagnosticToggles:
    def test_spectral_and_graph_every_attach_metrics(self, tmp_path):
        text = MINIMAL.replace("save_every = 5",
                               "save_every = 10\nspectral_every = 2\ngraph_every = 1")
        cfg = parse_config_text(text)
        run_scenario(cfg, tmp_path)
        lines = (tmp_path / "trajectory.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        third = json.loads(lines[1])
        assert first["metrics"]["spectral_gap"] is not None
        assert first["metrics"]["connected"] is not None
        assert third["metrics"]["spectral_gap"] is None  # stride 2 skips frame 1
        assert third["metrics"]["connected"] is not None

    def test_worker_cap_from_env(self, monkeypatch):
        from flockkit.cli import _workers
        monkeypatch.setenv("FLOCKKIT_THREADS", "1")
        assert _workers(8) == 1
        monkeypatch.setenv("FLOCKKIT_THREADS", "4")
        assert _workers(8) == 4
        assert _workers(2) == 2
        monkeypatch.delenv("FLOCKKIT_THREADS")
        assert _workers(1) == 1


SMALL_KINETIC = """
[run]
scenario = stability
seed = 9

[domain]
kind = torus
d = 2
size = 5.0

[potential]
kind = gaussian
range = 2.0

[stability]
n = 40
t = 0.2
dt = 0.01
n_checks = 3

[picard]
n = 30
t = 0.2
grid_k = 40
iters = 5

[entropy]
m = 300
t_list = 0.1
dt = 0.0125
curve_n = 40
curve_dt = 0.005

[jacobian]
points = 2
t = 0.2
dt = 0.002
curve_n = 40
curve_dt = 0.005
"""


class TestKineticRunners:
    @pytest.mark.parametrize("scenario,artifact", [
        ("stability", "stability.csv"),
        ("picard", "picard.json"),
        ("jacobian", "jacobian.csv"),
    ])
    def test_runner_produces_artifacts_and_passes(self, tmp_path, scenario, artifact):
        text = SMALL_KINETIC.replace("scenario = stability", f"scenario = {scenario}")
        summary = run_scenario(parse_config_text(text), tmp_path)
        assert summary["ok"], summary["checks"]
        assert (tmp_path / artifact).exists()

    def test_entropy_runner_csv_and_rate(self, tmp_path):
        text = SMALL_KINETIC.replace("scenario = stability", "scenario = entropy")
        summary = run_scenario(parse_config_text(text), tmp_path)
        lines = (tmp_path / "entropy.csv").read_text().splitlines()
        assert lines[0] == "t,H_transport,H_knn,gap,mean_overlap"
        # with a single probe time the slope check degrades to a report
        assert "knn_slope" in summary["report"]


class TestConvergenceCollation:
    def test_emit_plotdata_median_table(self, tmp_path):
        from flockkit.cli import write_csv
        rows = [[100, 1, 1.0, 0.5], [100, 2, 1.0, 0.7], [400, 1, 1.0, 0.3],
                [400, 2, 1.0, 0.2]]
        write_csv(tmp_path / "convergence.csv", ["N", "seed", "t", "W_hat"], rows)
        emit_plotdata(tmp_path)
        lines = (tmp_path / "plot" / "convergence.csv").read_text().splitlines()
        assert lines[0] == "N,median_W_hat"
        assert lines[1].startswith("100,") and "0.6" in lines[1]
        assert lines[2].startswith("400,") and "0.25" in lines[2]


SMALL_CONVERGE = """
[run]
scenario = converge
seed = 4

[domain]
kind = torus
d = 2
size = 10.0

[potential]
kind = gaussian
range = 1.0

[converge]
n_list = 20, 40
n_ref = 80
t_eval = 0.2
seeds = 2
dt = 0.1
"""


class TestConvergeRunner:
    def test_pool_failure_warns_and_serial_run_matches(self, tmp_path, monkeypatch):
        import flockkit.cli as cli_mod
        monkeypatch.setenv("FLOCKKIT_THREADS", "2")
        cfg = parse_config_text(SMALL_CONVERGE)
        run_scenario(cfg, tmp_path / "pooled")

        def no_pool(*args, **kwargs):
            raise OSError("no processes available")

        monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", no_pool)
        with pytest.warns(RuntimeWarning, match="2 workers.*no processes available"):
            run_scenario(cfg, tmp_path / "serial")
        pooled = (tmp_path / "pooled" / "convergence.csv").read_bytes()
        assert (tmp_path / "serial" / "convergence.csv").read_bytes() == pooled
