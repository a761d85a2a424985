"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; the stochastic criteria
use fixed seeds and are deterministic.
"""

import math
import time

import numpy as np
import pytest

from pae import (PARALLEL_L_TABLE_PLUS, PARALLEL_L_TABLE_PLUS_I,
                 ExperimentConfig, build_schedule, complete_target,
                 make_instance, mse_bound, query_count,
                 realized_functions, resource_report, run,
                 setting_probability, solve_angles,
                 statevector_even_parity_probability, synthesize_shifter,
                 truncate_target)
from pae.circuit import MeasurementSetting, ParallelCircuit, parity_probabilities
from pae.experiments import run_bias_sweep, run_tl_curve, trial_seed
from pae.qsp import chebyshev_grid
from pae.rpe import estimate_phase

A_PAPER = math.sin(math.pi / 8) ** 2


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_01_qsp_certification():
    t0 = time.time()
    worst_ratio = 0.0
    thetas = chebyshev_grid(4096)
    for T, L in [(1, 10), (2, 14), (4, 22), (8, 34)]:
        target = truncate_target(T, L)
        seq = solve_angles(complete_target(target), L)
        A, C = realized_functions(seq.xi, thetas)
        dev = float(np.max(np.abs(A + 1j * C - np.exp(-1j * T * np.sin(thetas)))))
        worst_ratio = max(worst_ratio, dev / (8.0 * target.delta))
    elapsed = time.time() - t0
    report("1 qsp-certification",
           worst_ratio <= 1.0 and elapsed < 60.0,
           f"worst dev / 8*delta = {worst_ratio:.3f}, {elapsed:.1f}s")


def test_02_backend_equivalence():
    t0 = time.time()
    spec = synthesize_shifter(1.0, 10)
    worst = 0.0
    for P in (1, 2, 3):
        for a in (0.0, 0.25, A_PAPER, 0.5, 1.0):
            circuit = ParallelCircuit(P=P, spec=spec, S=1, instance=make_instance(a, 2))
            for setting in MeasurementSetting:
                pa = setting_probability(circuit, setting)
                pv = statevector_even_parity_probability(circuit, setting)
                worst = max(worst, abs(pa - pv))
    elapsed = time.time() - t0
    report("2 backend-equivalence",
           worst <= 1e-10 and elapsed < 120.0,
           f"max |analytic - statevector| = {worst:.2e}, {elapsed:.1f}s")


def test_03_parity_identity():
    worst = 0.0
    for a in np.linspace(0.0, 1.0, 11):
        inst = make_instance(float(a))
        # the exact shifter: diag(e^{-i phi/2}, e^{+i phi/2}) on both eigenphases
        block = np.diag([np.exp(-0.5j * inst.phi), np.exp(0.5j * inst.phi)])
        blocks = np.broadcast_to(block, (2, 1, 2, 2))
        for m in range(1, 65):
            pp, pi_ = parity_probabilities(blocks[None], [m])[0, 0]
            worst = max(worst,
                        abs(pp - (1 + math.cos(m * inst.phi)) / 2),
                        abs(pi_ - (1 + math.sin(m * inst.phi)) / 2))
    report("3 parity-identity", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_04_bias_calibration():
    t0 = time.time()
    shots = 100000
    details = []
    ok = True
    for table_name, column in (("plus", "beta_plus"), ("plus_i", "beta_i")):
        cfg = ExperimentConfig(experiment="bias_sweep", backend="analytic",
                               k_min=1, k_max=9, amplitude_grid=101,
                               shots=shots, l_table=table_name, seed=404)
        rows = run_bias_sweep(cfg)
        table = (PARALLEL_L_TABLE_PLUS if table_name == "plus"
                 else PARALLEL_L_TABLE_PLUS_I)
        assert [r.l for r in rows] == list(table)
        sigma3 = 3.0 / (2.0 * math.sqrt(shots))   # 3 sigma at the worst p = 1/2
        worst = max(getattr(r, column) for r in rows)
        ok = ok and worst <= 0.05 + sigma3
        details.append(f"{table_name}: max {worst:.4f} vs {0.05 + sigma3:.4f}")
    report("4 bias-calibration", ok,
           "; ".join(details) + f", {time.time() - t0:.1f}s")


def test_05_near_hl_scaling():
    seed = 31
    trials = 100
    inst = make_instance(A_PAPER)
    ns, rmses = [], []
    bound_ok = True
    for K in range(4, 10):
        sched = build_schedule(strategy="full_sequential", k_max=K,
                               nu_variant="optimized", nu_final=7)
        sq_a, sq_phi = [], []
        for t in range(trials):
            est, rep, _ = run(inst, sched, seed=trial_seed(seed, A_PAPER, K, t),
                              backend="ideal")
            sq_a.append((est.a_hat - A_PAPER) ** 2)
            sq_phi.append((est.phi_hat - inst.phi) ** 2)
        ns.append(rep.n_queries)
        rmses.append(math.sqrt(np.mean(sq_a)))
        bound = mse_bound(K, [st.nu for st in sched], beta=0.05)
        slack = 3.0 * float(np.std(sq_phi)) / math.sqrt(trials)
        bound_ok = bound_ok and float(np.mean(sq_phi)) <= bound + slack
    slope = float(np.polyfit(np.log(ns), np.log(rmses), 1)[0])
    report("5 near-hl-scaling",
           -1.2 <= slope <= -0.95 and bound_ok,
           f"slope {slope:.3f}, sample MSE within bound: {bound_ok}")


def test_06_log_depth_accuracy_parity():
    trials = 100
    inst = make_instance(A_PAPER)
    sched_p = build_schedule(strategy="full_parallel", k_max=7,
                             l_table=PARALLEL_L_TABLE_PLUS[:7])
    report_p = resource_report(sched_p, inst.n)
    structure_ok = (report_p.oracle_depth == 18 and report_p.ghz_layers == 6
                    and report_p.width == 64 * (inst.n + 1))
    sched_s = build_schedule(strategy="full_sequential", k_max=7)
    sq_p, sq_s = [], []
    for t in range(trials):
        est_p, _, _ = run(inst, sched_p, seed=trial_seed(61, A_PAPER, 7, t),
                          backend="analytic")
        est_s, _, _ = run(inst, sched_s, seed=trial_seed(62, A_PAPER, 7, t),
                          backend="ideal")
        sq_p.append((est_p.a_hat - A_PAPER) ** 2)
        sq_s.append((est_s.a_hat - A_PAPER) ** 2)
    rmse_p = math.sqrt(np.mean(sq_p))
    rmse_s = math.sqrt(np.mean(sq_s))
    report("6 log-depth",
           structure_ok and rmse_p <= 2.0 * rmse_s,
           f"depth {report_p.oracle_depth}, ghz {report_p.ghz_layers}, "
           f"width {report_p.width}, rmse ratio {rmse_p / rmse_s:.2f}")


def test_07_tl_table_and_fit():
    cfg = ExperimentConfig(experiment="tl_curve", t_min=1.0, t_max=8.0, t_step=1.0)
    rows = {r.t: r.l_min for r in run_tl_curve(cfg)}
    table_ok = (rows[1.0], rows[2.0], rows[4.0], rows[8.0]) == (10, 14, 22, 34)
    cfg_fit = ExperimentConfig(experiment="tl_curve", t_min=10.0, t_max=100.0,
                               t_step=1.0)
    fit_rows = run_tl_curve(cfg_fit)
    slope, intercept = np.polyfit([r.t for r in fit_rows],
                                  [float(r.l_min) for r in fit_rows], 1)
    fit_ok = (abs(slope - 2.72) <= 0.05 * 2.72
              and abs(intercept - 13.64) <= 0.05 * 13.64)
    report("7 tl-table",
           table_ok and fit_ok,
           f"table {tuple(rows[t] for t in (1.0, 2.0, 4.0, 8.0))}, "
           f"fit {slope:.3f} T + {intercept:.2f}")


def test_08_rpe_noiseless_exactness():
    K = 9
    worst = 0.0
    for a in np.linspace(0.0, 1.0, 101):
        inst = make_instance(float(a))
        freqs = [[(1 + math.cos(m * inst.phi)) / 2, (1 + math.sin(m * inst.phi)) / 2]
                 for m in (2 ** (k - 1) for k in range(1, K + 1))]
        est = estimate_phase(freqs)
        worst = max(worst, abs(est.phi_hat - inst.phi))
    report("8 rpe-noiseless-exactness", worst <= math.pi * 2.0 ** (-K),
           f"max phase error {worst:.2e} vs {math.pi * 2.0 ** (-K):.2e}")


def test_09_accounting():
    inst = make_instance(0.3)
    rng = np.random.default_rng(900)
    ok = True
    for _ in range(20):
        strategy = str(rng.choice(["full_parallel", "full_sequential", "general"]))
        K = int(rng.integers(1, 9))
        kwargs = dict(strategy=strategy, k_max=K,
                      nu_variant=str(rng.choice(["optimized", "theoretical"])),
                      nu_final=int(rng.integers(3, 25)))
        if strategy == "general":
            kwargs["parallelism"] = int(2 ** rng.integers(0, K))
        sched = build_schedule(**kwargs)
        _, rep, counts = run(inst, sched, seed=int(rng.integers(1 << 30)),
                             backend="ideal")
        expected = 2 * sum(st.nu * st.p * st.s * st.l for st in sched)
        ok = ok and rep.n_queries == expected == query_count(sched)
        ok = ok and counts.shape == (K, 2)
    sched1 = build_schedule(strategy="full_sequential", k_max=1,
                            nu_variant="optimized", nu_final=7)
    ok = ok and query_count(sched1) == 140
    report("9 accounting", ok, "20 random schedules + canonical K=1 N=140")
