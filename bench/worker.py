"""One workload process of the pae benchmark.

Started by ``run.py`` with BLAS pinned to one thread.  It imports pae,
parses the workload's config and builds its schedules (the set-up), runs
one discarded warm-up call, then repeats the workload's entry call, each
time from a cold shifter cache, until its time budget is spent.  Every
repetition's output is checked outside the timed region.  The last line
of standard output is one JSON object with the set-up end time, the
per-repetition timings and layer metrics, and the check counts.

    python3 bench/worker.py --workload sweep_parallel --seed 1 --budget 3 \
        --size full --trace 0 --out .bench_out/sweep_parallel
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

import pae  # first heavy import, so ``-X importtime`` sees its full cost
from pae import cli, circuit, driver, qsp, rpe
from pae.config import parse_config

import numpy as np

import tracing

# Repetitions stop at this many even if the budget is not spent, so that a
# workload whose calls fail at once cannot spin.
MAX_REPS = 50
A_PAPER = math.sin(math.pi / 8) ** 2
BETA = 0.05


# ---------------------------------------------------------------------------
# Workloads.  Each one builds its inputs from the seed, exposes ``call``
# (the timed entry) and ``check`` (returns (operations, failures, errors)).

class _PaeRun:
    """``pae run`` on a config file, checked through its CSV output."""

    def __init__(self, seed: int, size: str, out: str):
        self.out = out
        self.cfg_path = os.path.join(out, "workload.cfg")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text(seed, size))
        with open(self.cfg_path, "r", encoding="utf-8") as fh:
            self.cfg = parse_config(fh.read())
        self.csv_path = os.path.join(out, f"{self.cfg.experiment}.csv")
        self.digests: list[str] = []

    def config_text(self, seed: int, size: str) -> str:
        raise NotImplementedError

    def call(self) -> None:
        if cli.main(["run", self.cfg_path, "--out", self.out]) != 0:
            raise RuntimeError("pae run exited nonzero")

    def clear_output(self) -> None:
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)

    def rows(self) -> list[dict]:
        with open(self.csv_path, "rb") as fh:
            raw = fh.read()
        self.digests.append(hashlib.sha256(raw).hexdigest()[:16])
        lines = raw.decode("utf-8").splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class _RmseSweep(_PaeRun):
    def __init__(self, seed: int, size: str, out: str):
        super().__init__(seed, size, out)
        table = {"plus": driver.PARALLEL_L_TABLE_PLUS,
                 "plus_i": driver.PARALLEL_L_TABLE_PLUS_I}.get(self.cfg.l_table)
        self.schedules = {
            K: driver.build_schedule(
                strategy=self.cfg.strategy, k_max=K,
                parallelism=self.cfg.parallelism or None, beta=self.cfg.beta,
                nu_variant=self.cfg.nu_variant, nu_final=self.cfg.nu_final,
                l_table=table[:K] if table is not None else None)
            for K in range(self.cfg.k_min, self.cfg.k_max + 1)}
        self.amplitudes = list(self.cfg.amplitudes)

    def check(self):
        """Each (a, K) cell: RMSE under a quarter of the closed-form RMSE
        bound at the schedule's shot counts, and the exact query count."""
        expected = {(a, K) for a in self.amplitudes for K in self.schedules}
        errors = []
        for row in self.rows():
            cell = (float(row["a"]), int(row["K"]))
            if cell not in expected:
                errors.append(f"unexpected or repeated row {cell}")
                continue
            expected.discard(cell)
            sched = self.schedules[cell[1]]
            bound = math.sqrt(rpe.mse_bound(sched.K, [st.nu for st in sched], BETA)) / 4
            if not (float(row["rmse"]) < bound
                    and int(row["n_queries"]) == driver.query_count(sched)):
                errors.append(f"{cell}: rmse {row['rmse']} (bound {bound:.4g}), "
                              f"n_queries {row['n_queries']}")
        errors += [f"missing row {cell}" for cell in sorted(expected)]
        ops = len(self.amplitudes) * len(self.schedules)
        return ops, min(ops, len(errors)), errors


class SweepParallel(_RmseSweep):
    """The paper's headline sweep: full-parallel analytic RMSE vs queries."""

    def config_text(self, seed, size):
        k_max, trials = (9, 100) if size == "full" else (3, 4)
        return (f"experiment = rmse_vs_queries\nstrategy = full_parallel\n"
                f"backend = analytic\nl_table = plus\nk_min = 1\nk_max = {k_max}\n"
                f"amplitudes = 0.0, {A_PAPER!r}\ntrials = {trials}\n"
                f"seed = {seed}\njobs = 1\n")


class CrosscheckSv(_RmseSweep):
    """``general`` schedule on the statevector backend (up to 16 qubits)."""

    def config_text(self, seed, size):
        k, par, trials = (7, 4, 10) if size == "full" else (3, 2, 2)
        return (f"experiment = rmse_vs_depth\nstrategy = general\n"
                f"parallelism = {par}\nbackend = statevector\nn = 3\n"
                f"k_min = {k}\nk_max = {k}\namplitudes = 0.0, {A_PAPER!r}\n"
                f"trials = {trials}\nseed = {seed}\njobs = 1\n")

    def final_check(self):
        """Every statevector probability of the schedule agrees with the
        analytic backend to 1e-10."""
        ops, fails, errors = 0, 0, []
        for sched in self.schedules.values():
            for a in self.amplitudes:
                inst = pae.make_instance(a, self.cfg.n)
                for st in sched:
                    spec = qsp.synthesize_shifter(st.t, st.l)
                    pc = circuit.ParallelCircuit(P=st.p, spec=spec, S=st.s, instance=inst)
                    for setting in circuit.MeasurementSetting:
                        ops += 1
                        diff = abs(circuit.setting_probability(pc, setting)
                                   - circuit.statevector_even_parity_probability(pc, setting))
                        if not diff <= 1e-10:
                            fails += 1
                            errors.append(f"a={a} k={st.k} {setting.value}: {diff:.3g}")
        return ops, fails, errors


class BiasCalib(_PaeRun):
    """Bias calibration: few probabilities, each sampled at 1e5 shots."""

    def config_text(self, seed, size):
        k_max, grid, shots = (9, 0, 100000) if size == "full" else (3, 5, 10000)
        return (f"experiment = bias_sweep\nbackend = analytic\nl_table = plus\n"
                f"k_min = 1\nk_max = {k_max}\namplitude_grid = {grid}\n"
                f"shots = {shots}\nseed = {seed}\n")

    def check(self):
        """Every measured bias is at most the 0.05 budget."""
        rows = self.rows()
        ops = self.cfg.k_max - self.cfg.k_min + 1
        errors = [f"k={r['k']}: beta {r['beta_plus']}, {r['beta_i']}" for r in rows
                  if not max(float(r["beta_plus"]), float(r["beta_i"])) <= BETA]
        errors += [f"{ops - len(rows)} rows missing"] if len(rows) != ops else []
        return ops, min(ops, len(errors)), errors


class SynthLadder:
    """Cold shifter synthesis over a ladder of strengths."""

    STRENGTHS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)

    def __init__(self, seed: int, size: str, out: str):
        strengths = self.STRENGTHS if size == "full" else self.STRENGTHS[:2]
        self.ladder = [(float(T), qsp.select_L_empirical(T)) for T in strengths]
        self.specs: list = []
        self.digests: list[str] = []
        self.verified: set[str] = set()
        self.thetas = qsp.chebyshev_grid(4096)

    def call(self) -> None:
        self.specs = [qsp.synthesize_shifter(T, L) for T, L in self.ladder]

    def clear_output(self) -> None:
        self.specs = []

    def check(self):
        """Residual at most 1e-8 and the realized function within
        ``8 delta`` of ``exp(-i T sin theta)`` on the 4096-point grid.
        Synthesis is deterministic, so a repetition whose angles are
        bit-identical to an already verified one passes without
        re-evaluating the grid."""
        digest = hashlib.sha256(b"".join(s.angles.xi.tobytes() for s in self.specs))
        digest = digest.hexdigest()[:16]
        self.digests.append(digest)
        missing = len(self.ladder) - len(self.specs)
        errors = [f"{missing} strengths missing"] if missing else []
        if digest not in self.verified:
            for (T, L), spec in zip(self.ladder, self.specs):
                A, C = qsp.realized_functions(spec.angles.xi, self.thetas)
                dev = float(np.max(np.abs(A + 1j * C - np.exp(-1j * T * np.sin(self.thetas)))))
                limit = 8.0 * qsp.truncation_error_bound(T, L)
                if not (spec.L == L and spec.angles.residual <= 1e-8 and dev <= limit):
                    errors.append(f"T={T:g} L={spec.L}: residual {spec.angles.residual:.3g}, "
                                  f"dev {dev:.3g} > {limit:.3g}")
            if not errors:
                self.verified.add(digest)
        return len(self.ladder), min(len(self.ladder), len(errors)), errors


WORKLOADS = {"sweep_parallel": SweepParallel, "synth_ladder": SynthLadder,
             "bias_calib": BiasCalib, "crosscheck_sv": CrosscheckSv}


# ---------------------------------------------------------------------------

def cold_cache() -> None:
    """Empty the process-wide shifter cache (and with it every cached
    branch unitary, which hangs off the cached specs)."""
    qsp._shifter_cache.clear()


def calibrate() -> float:
    """Seconds taken by a fixed kernel that mixes, in about equal shares,
    what the workloads spend their time on: interpreted float work, 4x4
    complex products, vectorised Bernoulli draws and a dense eigenvalue
    problem.  Timed next to every measured interval, it tells how fast the
    shared machine ran at that moment."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(75000):
        acc += math.sin(i * 1e-3) * (i % 7)
    rot = np.kron(np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex), np.eye(2))
    m = np.eye(4, dtype=complex)
    for _ in range(5000):
        m = m @ rot
    rng = np.random.default_rng(1)
    for _ in range(10):
        np.count_nonzero(rng.random(100000) < 0.3)
    a = rng.standard_normal((96, 96))
    for _ in range(4):
        np.linalg.eigvals(a)
    return time.perf_counter() - t0


def _cpu() -> float:
    """User plus system CPU seconds of this process and its children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def versions() -> dict[str, str]:
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds of timed repetitions")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.size, args.out)
    t_setup_end = time.monotonic()

    setup_cal = calibrate()
    ops = fails = 0
    errors: list[str] = []

    def attempt(fn):
        """Run one repetition or check, and count its operations; an
        exception fails one operation."""
        nonlocal ops, fails, errors
        try:
            result = fn()
        except Exception as exc:  # a failing workload is counted, not fatal
            result = (1, 1, [f"{type(exc).__name__}: {exc}"])
        ops, fails, errors = ops + result[0], fails + result[1], errors + result[2]
        return result[1] == 0

    cold_cache()
    attempt(lambda: wl.call() or (0, 0, []))            # warm-up, discarded

    tracer = tracing.Tracer() if args.trace else None
    reps = []
    timed = 0.0
    cal_before = calibrate()
    while len(reps) < MAX_REPS and (timed < args.budget or len(reps) < 2 * (1 + args.trace)):
        traced = bool(tracer) and len(reps) % 2 == 1  # alternate plain and traced
        wl.clear_output()
        cold_cache()
        if traced:
            tracer.reset()
            tracing.install(tracer)
        t0, c0 = time.perf_counter(), _cpu()
        ok = attempt(lambda: wl.call() or (0, 0, []))
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
        if traced:
            tracer.uninstall()
        cal_after = calibrate()
        timed += wall
        reps.append({"wall": wall, "cpu": cpu, "cal": (cal_before + cal_after) / 2,
                     "traced": traced,
                     **({"layers": tracing.layer_metrics(tracer.spans)} if traced else {})})
        cal_before = cal_after
        if ok:
            attempt(wl.check)
    if hasattr(wl, "final_check"):
        attempt(wl.final_check)
    if tracer:
        tracer.write(os.path.join(args.out, "spans.jsonl"))

    print(json.dumps({
        "t_setup_end": t_setup_end, "setup_cal": setup_cal, "reps": reps, "ops": ops, "fails": fails,
        "errors": errors[:20], "digests": sorted(set(wl.digests)),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": versions()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
