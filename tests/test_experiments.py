import math
import re
from pathlib import Path

import numpy as np
import pytest

from pae import (PARALLEL_L_TABLE_PLUS, ConfigError, ConfigurationError,
                 ExperimentConfig, build_schedule, circuit, estimate_phase,
                 hl_reference, make_instance, parse_config, run, serialize_config,
                 setting_probability, step_probabilities, synthesize_shifter)
from pae.circuit import MeasurementSetting, ParallelCircuit
from pae.cli import main as cli_main
from pae.experiments import (BiasRow, ResultRow, run_bias_sweep,
                             run_rmse_sweep, run_single, run_tl_curve,
                             trial_seed)
from pae.plotting import render, rows_to_csv, write_csv


class TestConfig:
    def test_roundtrip_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_roundtrip_custom(self):
        cfg = ExperimentConfig(experiment="bias_sweep", amplitudes=(0.0, 0.25, 1.0),
                               k_min=2, k_max=5, strategy="full_parallel",
                               trials=3, backend="analytic", shots=500,
                               l_table="plus_i", seed=99, output_dir="runs 1/a=b")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nexperiment = tl_curve\n t_max = 8.0 # inline\n")
        assert cfg.experiment == "tl_curve" and cfg.t_max == 8.0

    def test_unknown_field_diagnostic(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("experiment = tl_curve\nbogus = 1\n")

    def test_bad_value_diagnostic(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config("trials = soon\n")

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("experiment = daydream\n")

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigError, match="shots"):
            parse_config("experiment = bias_sweep\nbackend = analytic\nshots = 0\n")

    def test_repeated_field_names_first_line(self):
        with pytest.raises(ConfigError, match=r"line 3: field 'seed' repeats line 1"):
            parse_config("seed = 1\ntrials = 4\nseed = 2\n")

    def test_negative_amplitude_grid_diagnostic(self):
        with pytest.raises(ConfigError, match=r"'amplitude_grid': must be >= 0, got -3"):
            parse_config("amplitude_grid = -3\n")

    def test_empty_output_dir_rejected(self):
        with pytest.raises(ConfigError, match=r"'output_dir': must not be empty"):
            parse_config("output_dir =\n")

    @pytest.mark.parametrize("value", ["runs#1", " x ", "x ", "\tx", "a\nb", "a\rb"])
    def test_serialize_refuses_what_parse_cannot_read_back(self, value):
        # '#' starts a comment and parse_config strips each value, so
        # 'runs#1' would read back as 'runs' and ' x ' as 'x'
        with pytest.raises(ConfigError, match="'output_dir'"):
            serialize_config(ExperimentConfig(output_dir=value))


class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seed(5, 0.25, 4, 7) == trial_seed(5, 0.25, 4, 7)

    def test_distinct_across_inputs(self):
        seeds = {trial_seed(5, a, K, t) for a in (0.1, 0.2) for K in (3, 4)
                 for t in range(5)}
        assert len(seeds) == 20


class TestRmseSweep:
    def make_cfg(self, **kw):
        base = dict(experiment="rmse_vs_queries", amplitudes=(0.5,), k_min=2,
                    k_max=4, strategy="full_sequential", trials=12,
                    backend="ideal", seed=7)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_error_shrinks_with_resolution(self):
        rows = run_rmse_sweep(self.make_cfg(trials=40))
        assert rows[0].a == 0.5
        assert rows[-1].rmse < rows[0].rmse
        assert all(r.rmse >= 0 for r in rows)

    def test_rows_deterministic_and_ordered(self):
        cfg = self.make_cfg()
        assert run_rmse_sweep(cfg) == run_rmse_sweep(cfg)
        ks = [r.K for r in run_rmse_sweep(cfg)]
        assert ks == sorted(ks)

    def test_query_column_matches_accounting(self):
        from pae import build_schedule, query_count
        for row in run_rmse_sweep(self.make_cfg()):
            sched = build_schedule(strategy=row.strategy, k_max=row.K)
            assert row.n_queries == query_count(sched)

    @pytest.mark.parametrize("trials", [2, 5])
    def test_probabilities_computed_once_per_distinct_step(self, trials, monkeypatch):
        calls = {"blocks": 0, "sample": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(circuit, "eigenphase_blocks",
                            counted("blocks", circuit.eigenphase_blocks))
        monkeypatch.setattr(np.random, "default_rng",
                            counted("sample", np.random.default_rng))
        cfg = self.make_cfg(amplitudes=(0.0, 0.3), k_min=1, k_max=3,
                            strategy="full_parallel", backend="analytic",
                            l_table="plus", trials=trials)
        run_rmse_sweep(cfg)
        # K = 1..3 share their steps, and the three distinct steps have
        # L = 10, 12, 12: one block build per distinct (t, l, s), covering
        # both amplitudes, settings and branch counts, independent of trials
        assert calls["blocks"] == 2
        assert calls["sample"] == 2 * 3                       # one generator per cell

    @pytest.mark.parametrize("backend,strategy", [("ideal", "full_sequential"),
                                                  ("analytic", "full_parallel")])
    def test_matches_one_run_per_trial(self, backend, strategy):
        # reference: one generator per cell, seeded with the cell's trial-0
        # seed, drawing each trial's (K, 2) counts in its own binomial call,
        # and each trial recovered on its own
        cfg = self.make_cfg(amplitudes=(0.0, 0.3), k_min=1, k_max=3,
                            strategy=strategy, backend=backend, l_table="plus",
                            trials=4)
        expected = []
        for a in cfg.amplitudes:
            inst = make_instance(a)
            for K in range(cfg.k_min, cfg.k_max + 1):
                sched = build_schedule(strategy=strategy, k_max=K,
                                       l_table=PARALLEL_L_TABLE_PLUS[:K])
                seed = trial_seed(cfg.seed, a, K, 0)
                probs = step_probabilities(inst, sched, backend)
                nu = np.array([[st.nu] for st in sched])
                rng = np.random.default_rng(seed)
                sq = []
                for t in range(cfg.trials):
                    counts = rng.binomial(nu, probs)
                    est = estimate_phase(counts / nu)
                    if t == 0:
                        single, _, single_counts = run(inst, sched, seed=seed,
                                                       backend=backend)
                        assert np.array_equal(counts, single_counts)
                        assert est.a_hat == single.a_hat
                    sq.append((est.a_hat - a) ** 2)
                expected.append((a, K, float(np.sqrt(np.mean(sq)))))
        assert [(r.a, r.K, r.rmse) for r in run_rmse_sweep(cfg)] == expected


class TestBiasSweep:
    def test_requires_synthesizing_backend(self):
        from pae.driver import ConfigurationError
        cfg = ExperimentConfig(experiment="bias_sweep", backend="ideal")
        with pytest.raises(ConfigurationError):
            run_bias_sweep(cfg)

    def test_small_sweep_below_threshold(self):
        cfg = ExperimentConfig(experiment="bias_sweep", backend="analytic",
                               k_min=1, k_max=3, amplitude_grid=11,
                               shots=4000, l_table="plus", seed=3)
        rows = run_bias_sweep(cfg)
        assert [r.l for r in rows] == [10, 12, 12]
        sigma3 = 3.0 / (2.0 * math.sqrt(4000))
        assert all(r.beta_plus <= 0.05 + sigma3 for r in rows)

    def test_rows_pinned(self):
        # pins the branch-unitary kernel and the seeded sampling stream
        # together; recorded when the stream became one binomial draw per
        # step over the (amplitudes, 2) probabilities
        cfg = ExperimentConfig(experiment="bias_sweep", backend="analytic",
                               k_min=1, k_max=3, amplitude_grid=5,
                               shots=10000, seed=2024)
        assert run_bias_sweep(cfg) == [
            BiasRow(k=1, l=10, beta_plus=0.005251152934069858,
                    beta_i=0.0029000000000000137),
            BiasRow(k=2, l=12, beta_plus=0.0023734182735711817,
                    beta_i=0.0018000000000000238),
            BiasRow(k=3, l=12, beta_plus=0.003150016904306774,
                    beta_i=0.0038000000000000256),
        ]

    def test_longer_sequences_reduce_exact_bias(self):
        # systematic bias (no sampling): growing L by 4 shrinks it
        def exact_bias(L):
            spec = synthesize_shifter(1.0, L)
            worst = 0.0
            for a in np.linspace(0.0, 1.0, 21):
                inst = make_instance(float(a))
                pc = ParallelCircuit(P=1, spec=spec, S=1, instance=inst)
                p = setting_probability(pc, MeasurementSetting.PLUS)
                worst = max(worst, abs(p - circuit.ideal_probabilities(1, inst.phi)[0]))
            return worst
        assert exact_bias(14) < exact_bias(10)


class TestRunSingle:
    @pytest.mark.parametrize("backend,strategy", [("ideal", "full_sequential"),
                                                  ("analytic", "full_parallel"),
                                                  ("analytic", "general")])
    def test_equals_per_amplitude_runs(self, backend, strategy):
        # one batched probability phase, then one sampling phase per amplitude
        parallelism = 2 if strategy == "general" else 0
        cfg = ExperimentConfig(experiment="single_run", amplitudes=(0.05, 0.3, 0.5, 0.77),
                               k_max=4, strategy=strategy, parallelism=parallelism,
                               backend=backend, seed=11)
        schedule = build_schedule(strategy=strategy, k_max=4,
                                  parallelism=parallelism or None)
        out = run_single(cfg)
        assert [a for a, *_ in out] == list(cfg.amplitudes)
        for a, estimate, report, counts in out:
            expected, expected_report, expected_counts = run(
                make_instance(a, cfg.n), schedule,
                seed=trial_seed(cfg.seed, a, 4, 0), backend=backend)
            assert (estimate, report) == (expected, expected_report)
            assert np.array_equal(counts, expected_counts)


class TestTlCurve:
    # l_min for T = 1, 2, ..., 100, recorded from the root-bracketing
    # solution of the bound equality
    L_MIN_1_TO_100 = [
        10, 14, 18, 22, 26, 28, 32, 34, 38, 40, 42, 46, 48, 52, 54, 56, 60, 62, 66, 68,
        70, 74, 76, 80, 82, 84, 88, 90, 92, 96, 98, 100, 104, 106, 110, 112, 114, 118,
        120, 122, 126, 128, 130, 134, 136, 140, 142, 144, 148, 150, 152, 156, 158, 160,
        164, 166, 168, 172, 174, 178, 180, 182, 186, 188, 190, 194, 196, 198, 202, 204,
        206, 210, 212, 216, 218, 220, 224, 226, 228, 232, 234, 236, 240, 242, 244, 248,
        250, 254, 256, 258, 262, 264, 266, 270, 272, 274, 278, 280, 282, 286]

    def test_reference_points(self):
        cfg = ExperimentConfig(experiment="tl_curve", t_min=1.0, t_max=8.0, t_step=1.0)
        rows = {r.t: r.l_min for r in run_tl_curve(cfg)}
        assert rows[1.0] == 10 and rows[2.0] == 14 and rows[4.0] == 22 and rows[8.0] == 34
        cfg = ExperimentConfig(experiment="tl_curve", t_min=1.0, t_max=100.0, t_step=1.0)
        rows = run_tl_curve(cfg)
        assert [r.t for r in rows] == [float(t) for t in range(1, 101)]
        assert [r.l_min for r in rows] == self.L_MIN_1_TO_100

    def test_small_strength(self):
        cfg = ExperimentConfig(experiment="tl_curve", t_min=0.1, t_max=0.1, t_step=1.0)
        assert run_tl_curve(cfg)[0].l_min <= 6

    def test_decimal_grid(self):
        cfg = ExperimentConfig(experiment="tl_curve", t_min=0.1, t_max=1.0, t_step=0.1)
        assert [r.t for r in run_tl_curve(cfg)] == [
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def test_rejects_non_positive_step(self):
        with pytest.raises(ConfigurationError, match="t_step"):
            run_tl_curve(ExperimentConfig(experiment="tl_curve", t_step=0.0))

    def test_linear_fit_regime(self):
        cfg = ExperimentConfig(experiment="tl_curve", t_min=10.0, t_max=100.0, t_step=1.0)
        rows = run_tl_curve(cfg)
        ts = np.array([r.t for r in rows])
        ls = np.array([float(r.l_min) for r in rows])
        slope, intercept = np.polyfit(ts, ls, 1)
        assert abs(slope - 2.72) <= 0.05 * 2.72
        assert abs(intercept - 13.64) <= 0.05 * 13.64


class TestRendering:
    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_csv_reproducible_bytes(self, tmp_path):
        cfg = ExperimentConfig(experiment="rmse_vs_queries", amplitudes=(0.5,),
                               k_min=2, k_max=3, trials=5, backend="ideal", seed=1)
        rows = run_rmse_sweep(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows_to_csv(p1, rows)
        rows_to_csv(p2, run_rmse_sweep(cfg))
        assert p1.read_bytes() == p2.read_bytes()

    def test_render_rmse_svg_structure(self, tmp_path):
        cfg = ExperimentConfig(experiment="rmse_vs_queries", amplitudes=(0.5,),
                               k_min=2, k_max=4, trials=5, backend="ideal", seed=1)
        rows = run_rmse_sweep(cfg)
        csv_path, svg_path = render(rows, "rmse_vs_queries", str(tmp_path))
        svg = Path(svg_path).read_text()
        assert svg.count("<polyline") == 2        # one series + reference line
        assert "reference" in svg
        assert Path(csv_path).read_text().startswith("a,K,strategy")

    @pytest.mark.parametrize("kind", ["rmse_vs_queries", "rmse_vs_depth"])
    def test_render_zero_rmse_cell(self, tmp_path, kind):
        # every trial exact: a log axis cannot show rmse 0, the CSV keeps it
        rows = [ResultRow(a=0.0, K=K, strategy="general", n_queries=100 * K,
                          oracle_depth=10 * K, width=4, rmse=0.0, trials=3, seed=1)
                for K in (1, 2)]
        rows.append(ResultRow(a=0.5, K=2, strategy="general", n_queries=200,
                              oracle_depth=20, width=4, rmse=0.01, trials=3, seed=1))
        csv_path, svg_path = render(rows, kind, str(tmp_path))
        assert Path(csv_path).read_text().count(",0.0,3,1\n") == 2
        svg = Path(svg_path).read_text()
        assert svg.count("<circle") == 1
        coords = re.findall(r'\b(?:cx|cy|x1|x2|y1|y2|x|y)="([^"]+)"', svg)
        assert coords and all(math.isfinite(float(v)) for v in coords)

    def test_reference_line_value(self):
        assert hl_reference(1001) == pytest.approx(math.pi / 2000)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = tl_curve\nt_min = 1\nt_max = 4\nt_step = 1\n"
                       f"output_dir = {tmp_path}/out\n")
        assert cli_main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "tl_curve.csv" in out
        assert (tmp_path / "out" / "tl_curve.svg").exists()

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PAE_OUTPUT_DIR", str(tmp_path / "env-out"))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = tl_curve\nt_min = 1\nt_max = 2\nt_step = 1\n")
        assert cli_main(["run", str(cfg)]) == 0
        assert (tmp_path / "env-out" / "tl_curve.csv").exists()

    def test_angles_subcommand(self, tmp_path, capsys):
        out = tmp_path / "a.txt"
        assert cli_main(["angles", "--T", "1", "--L", "10", "--out", str(out)]) == 0
        from pae import load_angles
        assert load_angles(out).L == 10

    def test_bad_config_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = nonsense\n")
        assert cli_main(["run", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_single_run_output(self, tmp_path, capsys):
        cfg = tmp_path / "single.cfg"
        cfg.write_text("experiment = single_run\namplitudes = 0.5\nk_max = 3\n"
                       "backend = ideal\n")
        assert cli_main(["run", str(cfg)]) == 0
        assert "a_hat=" in capsys.readouterr().out
