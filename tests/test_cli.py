import json
import math
from pathlib import Path

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

ENVELOPE = {"scenario", "checks", "flags", "report", "ok", "config"}


def assert_envelope(summary: dict, scenario: str) -> None:
    """The summary keys every runner shares, filled in by run_scenario."""
    assert set(summary) <= ENVELOPE
    assert summary["scenario"] == scenario
    assert summary["ok"] == all(summary["checks"].values())


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

    def test_zero_flock_window_rejected(self):
        with pytest.raises(ConfigError, match=r"^flock\.window must be positive$"):
            parse_config_text(MINIMAL + "\n[flock]\nwindow = 0\n")
        assert parse_config_text(MINIMAL).get("flock", "window") is None  # auto

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
        with pytest.raises(ConfigError, match=r"^run\.moments: cannot parse 'yes' as bool$"):
            parse_config_text(MINIMAL.replace("save_every = 5", "save_every = 5\nmoments = yes"))

    @pytest.mark.parametrize("raw, value", [("false", False), ("FALSE", False),
                                            ("true", True)])
    def test_bool_key_parses_to_a_bool(self, raw, value):
        cfg = parse_config_text(MINIMAL.replace("save_every = 5",
                                                f"save_every = 5\nmoments = {raw}"))
        assert cfg.get("run", "moments") is value

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config_text(block)
        assert cfg.get("domain", "kind") == "torus"
        assert cfg.get("potential", "kind") == "gaussian"
        assert cfg.get("dynamics", "mode") == "plain"
        assert cfg.get("dynamics", "dt") == 0.001
        assert cfg.get("init", "kind") == "uniform"

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
        assert_envelope(summary, "simulate")
        assert_envelope(loaded, "simulate")

    @pytest.mark.parametrize("mode", ["plain", "regularized"])
    def test_spectrum_runner_checks_and_envelope(self, tmp_path, mode):
        text = MINIMAL.replace("scenario = simulate", "scenario = spectrum") \
            .replace("mode = plain", f"mode = {mode}")
        summary = run_scenario(parse_config_text(text + "\n[spectrum]\nconfigs = 3\nn = 6\n"),
                               tmp_path)
        assert_envelope(summary, "spectrum")
        assert set(summary["checks"]) == {"row_sums", "detailed_balance", "real_spectrum",
                                          "galilean_invariance", "gap_connectivity"}
        assert summary["ok"], summary["checks"]
        from flockkit.cli import _read_columns
        row_err = [err for (err,) in _read_columns(tmp_path / "spectrum.csv", "row_sum_err")]
        assert len(row_err) == 3
        if mode == "regularized":  # substochastic rows: the row-sum check is exempt
            assert row_err == [0.0, 0.0, 0.0]
        else:
            assert max(row_err) <= 1e-12

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
        assert_envelope(run_scenario(cfg, tmp_path), "flock-detect")
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

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-1", "run.seed must be nonnegative"),
        ("--spectral-every", "-1", "run.spectral_every must be nonnegative"),
        ("--save-every", "0", "run.save_every must be positive"),
        ("--save-every", "ten", "run.save_every: cannot parse 'ten' as int"),
    ], ids=["negative-seed", "negative-spectral-every", "zero-save-every", "text-save-every"])
    def test_flag_values_pass_the_config_schema(self, tmp_path, capsys, flag, value,
                                                message):
        # flags used to skip the schema: --seed -1 ended in a numpy traceback,
        # and --spectral-every -1 ran the spectrum on every frame
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        code = main(["simulate", "--config", str(cfg_path), flag, value,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["1e-300", "1e300"])
    @pytest.mark.parametrize("kind,name", [("bump", "radius"), ("loggrad", "decay")])
    def test_degenerate_range_is_a_failure_record(self, tmp_path, capsys, kind, name, value):
        # the normalizer used to end in a ZeroDivisionError or OverflowError
        # traceback (exit 1), or in a run over a meaningless constant
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL.replace("kind = bump\nrange = 1.0",
                                            f"kind = {kind}\nrange = {value}"))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InputError"
        assert record["message"].startswith(f"{name} = {float(value)!r}")

    def test_overflowing_speed_is_a_failure_record(self, tmp_path, capsys):
        # speeds of 1e300 square past the float range: the run used to exit 1 with
        # inf rows in metrics.csv and velocity_ball passed
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL.replace("n = 8", "n = 8\nspeed = 1e300"))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "InputError",
                          "message": "speeds in particle state must be finite; max speed inf"}

    def test_unwritable_out_is_a_failure_record(self, tmp_path, capsys):
        # --out below a regular file used to end in a NotADirectoryError traceback
        # with exit 1, which reads as a failed check
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL)
        (tmp_path / "file").write_text("")
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "file" / "run")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NotADirectoryError"
        assert str(tmp_path / "file" / "run") in record["message"]

    @pytest.mark.parametrize("scenario,old,new,message", [
        ("simulate", "kind = bump", "kind = cone",
         "potential.kind: 'cone' not one of ('bump', 'loggrad', 'gaussian')"),
        ("simulate", "\n[run]", "seed = 1\n[run]", "key outside of any [section] (line 1)"),
        ("simulate", "seed = 3", "seed = 3\nseed = 4",
         "duplicate key 'seed' in section [run] (line 5)"),
        ("simulate", "kind = bump", "kind = gaussian",
         "potential.kind gaussian requires a torus domain"),
        ("converge", "kind = bump", "kind = gaussian",
         "converge scenario requires a torus domain with the gaussian potential family"),
    ], ids=["outside-choices", "outside-sections", "duplicate-key", "gaussian-on-free",
            "converge-on-free"])
    def test_config_errors_are_failure_records(self, tmp_path, capsys, scenario, old, new,
                                               message):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(MINIMAL.replace(old, new, 1))
        code = main([scenario, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigError", "message": message}

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
        for bad in ("abc", "0", "-3", "1.5"):
            monkeypatch.setenv("FLOCKKIT_THREADS", bad)
            with pytest.raises(ConfigError, match=f"FLOCKKIT_THREADS.*{bad!r}"):
                _workers(8)

    def test_json_hook_takes_numpy_values_only(self, tmp_path):
        from flockkit.cli import write_json
        write_json(tmp_path / "a.json", {"x": np.float32(0.5), "n": np.int64(3),
                                         "b": np.bool_(True), "v": np.arange(2)})
        assert json.loads((tmp_path / "a.json").read_text()) == \
            {"x": 0.5, "n": 3, "b": True, "v": [0, 1]}
        with pytest.raises(TypeError, match="set"):
            write_json(tmp_path / "b.json", {"x": {1, 2}})


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
        assert_envelope(summary, scenario)

    def test_free_space_stability_samples_a_box(self, tmp_path):
        text = (SMALL_KINETIC.replace("kind = torus\nd = 2\nsize = 5.0", "kind = free\nd = 2")
                .replace("kind = gaussian\nrange = 2.0",
                         "kind = bump\nrange = 1.0\n\n[dynamics]\nmode = regularized"))
        summary = run_scenario(parse_config_text(text), tmp_path)
        assert_envelope(summary, "stability")
        assert summary["checks"] == {"growth_bound": True}
        lines = (tmp_path / "stability.csv").read_text().splitlines()
        assert lines[0] == "t,W_hat,ratio,log_bound,ok"
        assert len(lines) == 1 + 3  # one row per check
        assert all(line.endswith(",true") for line in lines[1:])

    def test_entropy_runner_csv_and_rate(self, tmp_path):
        text = SMALL_KINETIC.replace("scenario = stability", "scenario = entropy")
        summary = run_scenario(parse_config_text(text), tmp_path)
        assert_envelope(summary, "entropy")
        lines = (tmp_path / "entropy.csv").read_text().splitlines()
        assert lines[0] == "t,H_transport,H_knn,gap,mean_overlap"
        # with a single probe time the slope check degrades to a report
        assert "knn_slope" in summary["report"]

    @pytest.mark.parametrize("t_list", ["0.1", "0.1, 0.2"])
    def test_entropy_exit_code_gated_by_the_slope_only_with_two_times(self, tmp_path, t_list):
        cfg_path = tmp_path / "entropy.cfg"
        cfg_path.write_text(SMALL_KINETIC.replace("scenario = stability", "scenario = entropy")
                            .replace("t_list = 0.1", f"t_list = {t_list}"))
        code = main(["entropy", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert_envelope(summary, "entropy")
        if t_list == "0.1":  # no slope to fit: reported, not checked
            assert code == 0 and summary["checks"] == {} and summary["ok"]
            assert math.isnan(summary["report"]["knn_slope"])
        else:  # two times give a slope, and the check gates the exit code
            assert "knn_slope_matches_transport_rate" in summary["checks"]
            assert code == (0 if summary["ok"] else 1)


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

    def test_emit_plotdata_entropy_table_and_all_three(self, tmp_path):
        from flockkit.cli import write_csv
        write_csv(tmp_path / "entropy.csv",
                  ["t", "H_transport", "H_knn", "gap", "mean_overlap"],
                  [[0.25, 1.5, 1.4, 0.1, 1.0], [0.5, 1.25, 1.2, 0.05, 1.0]])
        assert emit_plotdata(tmp_path) == [tmp_path / "plot" / "entropy.csv"]
        assert (tmp_path / "plot" / "entropy.csv").read_text() == \
            "t,H_transport,H_knn\n0.25,1.5,1.4\n0.5,1.25,1.2\n"

        write_csv(tmp_path / "metrics.csv", ["t", "dist_to_manifold", "max_speed"],
                  [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]])
        write_csv(tmp_path / "convergence.csv", ["N", "seed", "t", "W_hat"],
                  [[100, 1, 1.0, 0.5], [100, 2, 1.0, 0.7], [400, 1, 1.0, 0.25]])
        produced = emit_plotdata(tmp_path)
        assert [p.name for p in produced] == ["decay.csv", "convergence.csv",
                                              "entropy.csv"]
        assert (tmp_path / "plot" / "decay.csv").read_text() == \
            f"t,log_dist\n0.0,0.0\n1.0,{math.log(1e-300)!r}\n"
        assert (tmp_path / "plot" / "convergence.csv").read_text() == \
            "N,median_W_hat\n100,0.6\n400,0.25\n"


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
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_csv_is_the_library_experiment(self, tmp_path, monkeypatch, threads):
        from flockkit import FieldSpec, GaussianPeriodized, PointCloud, Plain, Torus
        from flockkit.density import torus_gaussian_sampler
        from flockkit.kinetic import mean_field_convergence
        domain = Torus(2, 10.0)
        draw = torus_gaussian_sampler(domain, 0.3, 0.95)

        def sampler(n, rng):
            w0, _ = draw(n, rng)
            return PointCloud(domain, w0[:, :2], w0[:, 2:])

        field = FieldSpec(spec=GaussianPeriodized(d=2, width=1.0, period=10.0),
                          mode=Plain())
        rows = mean_field_convergence(sampler, [20, 40], 80, 0.2, field, [4, 5],
                                      dt=0.1)
        expected = "N,seed,t,W_hat\n" + "".join(
            f"{r['N']},{r['seed']},{r['t']!r},{r['W_hat']!r}\n" for r in rows)

        monkeypatch.setenv("FLOCKKIT_THREADS", threads)
        summary = run_scenario(parse_config_text(SMALL_CONVERGE), tmp_path)
        assert (tmp_path / "convergence.csv").read_text() == expected
        assert_envelope(summary, "converge")

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
