import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pae import (PARALLEL_L_TABLE_PLUS, ConfigError, DomainError,
                 ExperimentConfig, build_schedule, circuit, driver, estimate_phase,
                 hl_reference, make_instance, parse_config, qsp, rpe, run,
                 sample_and_recover, serialize_config, setting_probability,
                 step_probabilities, synthesize_shifter)
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

    def test_one_resource_report_per_schedule(self, monkeypatch):
        # three amplitudes and K = 2..4 are nine cells of three schedules:
        # one report per schedule, each read by the cells of its K
        reported = []
        report = driver.resource_report

        def counted(schedule, n):
            reported.append(schedule.K)
            return report(schedule, n)

        monkeypatch.setattr(driver, "resource_report", counted)
        rows = run_rmse_sweep(self.make_cfg(amplitudes=(0.1, 0.5, 0.9)))
        assert len(rows) == 9
        assert reported == [2, 3, 4]

    def test_query_column_matches_accounting(self):
        from pae import build_schedule, query_count
        for row in run_rmse_sweep(self.make_cfg()):
            sched = build_schedule(strategy=row.strategy, k_max=row.K)
            assert row.n_queries == query_count(sched)

    @pytest.mark.parametrize("trials", [2, 5])
    def test_probabilities_computed_once_per_distinct_step(self, trials, monkeypatch):
        calls = {"blocks": 0, "sample": 0}
        requested = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "blocks":
                    requested.extend((spec.T, spec.L, set(ss)) for spec, ss in args[0])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(circuit, "analytic_stage",
                            counted("blocks", circuit.analytic_stage))
        monkeypatch.setattr(np.random, "default_rng",
                            counted("sample", np.random.default_rng))
        cfg = self.make_cfg(amplitudes=(0.0, 0.3), k_min=1, k_max=3,
                            strategy="full_parallel", backend="analytic",
                            l_table="plus", trials=trials)
        run_rmse_sweep(cfg)
        # K = 1..3 share their steps, and the three distinct steps have
        # L = 10, 12, 12: one stage call asking each distinct (t, l) once,
        # covering both amplitudes, settings and branch counts, independent
        # of trials
        assert calls["blocks"] == 1
        assert requested == [(1.0, 10, {1}), (1.0, 12, {1})]
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


    def test_empty_step_range_is_refused(self):
        # a config built without parse_config skips its range check
        with pytest.raises(DomainError, match=r"needs k_min <= k_max, got 4\.\.3"):
            run_rmse_sweep(self.make_cfg(k_min=4, k_max=3))

    @pytest.mark.parametrize("trials", [1, 7])
    def test_one_recovery_per_sweep(self, trials, monkeypatch):
        # cells of K = 1..4 are padded to K = 4 and recovered in one call;
        # each RMSE keeps the bits of its cell's batch recovered alone
        cfg = self.make_cfg(amplitudes=(0.1, 0.7), k_min=1, k_max=4, trials=trials)
        expected = []
        for a in cfg.amplitudes:
            for K in range(1, 5):
                sched = build_schedule(strategy=cfg.strategy, k_max=K)
                probs = step_probabilities(make_instance(a), sched, "ideal")
                est, _ = sample_and_recover(sched, probs, trial_seed(cfg.seed, a, K, 0), trials)
                expected.append(float(np.sqrt(np.mean((est.a_hat - a) ** 2))))
        shapes = []

        def counted(freqs):
            shapes.append(np.shape(freqs))
            return recover(freqs)

        recover = rpe.estimate_phase
        monkeypatch.setattr(rpe, "estimate_phase", counted)
        assert [r.rmse for r in run_rmse_sweep(cfg)] == expected
        assert shapes == [(8, trials, 4, 2)]


class TestBiasSweep:
    def test_requires_synthesizing_backend(self):
        cfg = ExperimentConfig(experiment="bias_sweep", backend="ideal")
        with pytest.raises(DomainError):
            run_bias_sweep(cfg)

    def test_small_sweep_below_threshold(self):
        cfg = ExperimentConfig(experiment="bias_sweep", backend="analytic",
                               k_min=1, k_max=3, amplitude_grid=11,
                               shots=4000, l_table="plus", seed=3)
        rows = run_bias_sweep(cfg)
        assert [r.l for r in rows] == [10, 12, 12]
        assert all(max(r.beta_plus, r.beta_i) <= 0.05 for r in rows)

    def test_rows_pinned(self):
        # pins the exact bias of the branch-unitary kernel over five amplitudes
        cfg = ExperimentConfig(experiment="bias_sweep", backend="analytic",
                               k_min=1, k_max=3, amplitude_grid=5,
                               shots=10000, seed=2024)
        assert run_bias_sweep(cfg) == [
            BiasRow(k=1, l=10, beta_plus=6.424092088730404e-06,
                    beta_i=7.793783636173002e-05, a_plus=0.25, a_i=0.75),
            BiasRow(k=2, l=12, beta_plus=2.0937865550463286e-05,
                    beta_i=1.840789442597579e-05, a_plus=0.0, a_i=0.25),
            BiasRow(k=3, l=12, beta_plus=1.737683345476304e-05,
                    beta_i=2.5954618921408823e-05, a_plus=0.0, a_i=0.0),
        ]

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_rows_are_the_exact_maxima(self, backend):
        cfg = ExperimentConfig(experiment="bias_sweep", backend=backend,
                               k_min=2, k_max=4, amplitude_grid=5)
        amps = np.linspace(0.0, 1.0, 5)
        instances = [make_instance(float(a), cfg.n) for a in amps]
        steps = build_schedule(strategy="full_parallel", k_max=4,
                               l_table=PARALLEL_L_TABLE_PLUS).steps[1:]
        probs = step_probabilities(instances, steps, backend)
        ideal = step_probabilities(instances, steps, "ideal")
        expected = []
        for i, st in enumerate(steps):
            worst = []
            for col in (0, 1):
                bias = [abs(p - q) for p, q in zip(probs[:, i, col], ideal[:, i, col])]
                worst.append((max(bias), float(amps[bias.index(max(bias))])))
            expected.append(BiasRow(k=st.k, l=st.l, beta_plus=worst[0][0], beta_i=worst[1][0],
                                    a_plus=worst[0][1], a_i=worst[1][1]))
        assert run_bias_sweep(cfg) == expected

    def test_backends_agree(self):
        def rows(backend):
            return run_bias_sweep(ExperimentConfig(
                experiment="bias_sweep", backend=backend, k_min=1, k_max=4,
                amplitude_grid=5))
        for a, b in zip(rows("analytic"), rows("statevector"), strict=True):
            assert (a.k, a.l) == (b.k, b.l)
            assert abs(a.beta_plus - b.beta_plus) <= 1e-12
            assert abs(a.beta_i - b.beta_i) <= 1e-12

    def test_rows_ignore_shots_and_seed(self):
        def rows(shots, seed):
            return run_bias_sweep(ExperimentConfig(
                experiment="bias_sweep", backend="analytic", k_min=1, k_max=3,
                amplitude_grid=7, shots=shots, seed=seed))
        assert rows(10, 1) == rows(100000, 1) == rows(10, 2) == rows(100000, 2)

    def test_shifted_step_moves_only_its_row(self, monkeypatch):
        # push step 2's PLUS probabilities 0.002 further from the ideal ones
        cfg = ExperimentConfig(experiment="bias_sweep", backend="analytic",
                               k_min=1, k_max=3, amplitude_grid=9)
        before = run_bias_sweep(cfg)
        exact = driver.step_probabilities

        def shifted(instances, steps, backend):
            table = exact(instances, steps, backend)
            if backend != "ideal":
                ideal = exact(instances, steps, "ideal")
                table[:, 1, 0] += 0.002 * np.sign(table[:, 1, 0] - ideal[:, 1, 0])
            return table

        monkeypatch.setattr(driver, "step_probabilities", shifted)
        after = run_bias_sweep(cfg)
        assert abs(after[1].beta_plus - before[1].beta_plus - 0.002) <= 1e-15
        assert after[1] == dataclasses.replace(before[1], beta_plus=after[1].beta_plus)
        assert [after[0], after[2]] == [before[0], before[2]]

    def test_draws_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bias sweep drew a random number")

        cfg = ExperimentConfig(experiment="bias_sweep", backend="analytic",
                               k_min=1, k_max=3, amplitude_grid=5)
        expected = run_bias_sweep(cfg)
        monkeypatch.setattr(circuit, "sample_even_parity", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(qsp, "_shifter_cache", {})   # synthesize cold too
        assert run_bias_sweep(cfg) == expected

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
        with pytest.raises(DomainError, match="t_step"):
            run_tl_curve(ExperimentConfig(experiment="tl_curve", t_step=0.0))

    def test_linear_fit_regime(self):
        cfg = ExperimentConfig(experiment="tl_curve", t_min=10.0, t_max=100.0, t_step=1.0)
        rows = run_tl_curve(cfg)
        ts = np.array([r.t for r in rows])
        ls = np.array([float(r.l_min) for r in rows])
        slope, intercept = np.polyfit(ts, ls, 1)
        assert abs(slope - 2.72) <= 0.05 * 2.72
        assert abs(intercept - 13.64) <= 0.05 * 13.64


class TestSizeGuards:
    @pytest.mark.parametrize("run,fields,message", [
        (run_rmse_sweep, dict(amplitudes=(0.3,), k_max=9, trials=10 ** 15),
         "the frequency table, 9 x 1000000000000000 x 9 x 2 floats, needs 1.21e+09 GiB"),
        (run_rmse_sweep, dict(amplitude_grid=10 ** 15, k_min=9, k_max=9, trials=1),
         "the frequency table, 1000000000000000 x 1 x 9 x 2 floats, needs 1.34e+08 GiB"),
        (run_single, dict(experiment="single_run", amplitude_grid=10 ** 15, k_max=9),
         "the probability table, 1000000000000000 x 9 x 2 floats, needs 1.34e+08 GiB"),
        (run_bias_sweep, dict(experiment="bias_sweep", backend="analytic",
                              amplitude_grid=10 ** 15, k_max=3),
         "the probability table, 1000000000000000 x 3 x 2 floats, needs 4.47e+07 GiB"),
        # 2^26 trials of one step fill the 1 GiB guard exactly; one more passes it
        (run_rmse_sweep, dict(amplitudes=(0.3,), k_max=1, trials=2 ** 26 + 1),
         "the frequency table, 1 x 67108865 x 1 x 2 floats, needs 1 GiB")],
        ids=["trials", "amplitude_grid", "single_run", "bias_sweep", "one_past"])
    def test_table_past_the_guard_is_refused_before_any_work(self, monkeypatch, run,
                                                              fields, message):
        def refuse(*args, **kwargs):
            raise AssertionError("work past the guard")

        monkeypatch.setattr(driver, "build_schedule", refuse)
        monkeypatch.setattr(driver, "step_probabilities", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="^" + re.escape(message)
                                                  + r", over the 1 GiB guard$"):
                run(ExperimentConfig(**fields))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_tl_grid_past_the_row_limit_is_refused_before_the_first_search(self, monkeypatch):
        # 1e5 strengths are searched, one more is refused before any search
        searched = []
        monkeypatch.setattr(qsp, "select_L_empirical", lambda t: searched.append(t) or 4)
        rows = run_tl_curve(ExperimentConfig(experiment="tl_curve", t_max=1e5))
        assert len(rows) == len(searched) == 10 ** 5
        searched.clear()
        for t_max in (100001.0, 1e15):
            with pytest.raises(DomainError, match=r"^strength grid t_min 1\.0 to t_max "
                                                  rf"{re.escape(repr(t_max))} in steps of 1\.0 "
                                                  r"has more than 100000 points, the row limit$"):
                run_tl_curve(ExperimentConfig(experiment="tl_curve", t_max=t_max))
        assert searched == []


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

    def test_render_bias_below_one_in_a_million(self, tmp_path):
        # exact biases far below 1e-6 each keep their own height
        rows = [BiasRow(k=k, l=10, beta_plus=beta, beta_i=beta, a_plus=0.5, a_i=0.5)
                for k, beta in ((1, 5e-8), (2, 5e-7), (3, 5e-6))]
        _, svg_path = render(rows, "bias_sweep", str(tmp_path))
        svg = Path(svg_path).read_text()
        heights = re.findall(r'<circle cx="[^"]+" cy="([^"]+)" r="3" fill="#1f77b4"', svg)
        assert len(heights) == 3 and len(set(heights)) == 3

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
