"""pae benchmark: one workload, end-to-end or traced, checked.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_parallel --seed 1 --seconds 15 --trace 0

It starts ``PROCS`` workload processes one after another (``worker.py``),
each with BLAS pinned to one thread and a wall-clock limit, and gives each
an equal share of ``--seconds`` for timed repetitions.  With ``--trace 0``
it reports the end-to-end metrics (medians over processes for set-up and
memory, over repetitions for time); with ``--trace 1`` the per-layer
metrics of traced repetitions, which alternate with plain ones so that the
tracing overhead is measured in the same processes.  Human-readable lines
and ``.bench_out/<workload>/report.json`` carry the run conditions, the
error rate and the output digests; the last line of standard output is the
JSON result.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER, parse_importtime

WORKLOADS = ("sweep_parallel", "synth_ladder", "bias_calib", "crosscheck_sv")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mib", "MiB"), ("pass_rate", "ratio"))
# Workload processes per run: set-up and peak memory are measured once in
# each, and their median is reported.
PROCS = 3
# A workload process may outlive its share of the budget by this much
# (set-up, warm-up, the repetition in progress, checks) before it is killed
# and counted as one failed operation.
GRACE_S = 45.0
# The whole run ends by this many seconds after it starts.
DEADLINE_S = 170.0
# Seconds the calibration kernel (worker.calibrate) takes on the baseline
# machine when it is not slowed by other tenants.  The machine is shared:
# its speed drifts by up to twofold within minutes, and raw medians of runs
# of identical code spread by 20% to 32%.  So every end-to-end time is
# reported in reference seconds, ``raw * CAL_REF_S / cal``, where ``cal``
# is the kernel timed just before and just after the measured interval.
# Raw times are printed and kept in report.json as well.
CAL_REF_S = 0.033
# One thread per BLAS and OpenMP pool: the machine has 2 CPUs, and a
# multi-threaded OpenBLAS made cold synthesis times swing fourfold.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spawn(args, budget: float, env: dict, timeout: float) -> dict:
    """Run one workload process; return its result, or its failure."""
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, *(["-X", "importtime"] if args.trace else []),
           os.path.join(here, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", f"{budget:.3f}",
           "--size", args.size, "--trace", str(args.trace),
           "--out", os.path.join(".bench_out", args.workload)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"failure": f"killed after {timeout:.0f}s",
                "elapsed": time.monotonic() - t_spawn}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return {"failure": f"exit {proc.returncode}: {tail}",
                "elapsed": time.monotonic() - t_spawn}
    res = json.loads(lines[-1])
    res["setup_s"] = res["t_setup_end"] - t_spawn
    res["imports"] = parse_importtime(stderr) if args.trace else {}
    return res


def _median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed seconds, shared by the workload processes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "pae", "__init__.py")):
        print("error: run from the root of a pae checkout (src/pae not found)",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    compileall.compile_dir(os.path.join("src", "pae"), quiet=1)
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))

    procs = PROCS if args.size == "full" else 1
    results, failures = [], []
    for _ in range(procs):
        timeout = min(args.seconds / procs + GRACE_S, DEADLINE_S - (time.monotonic() - start))
        res = _spawn(args, args.seconds / procs, env, max(timeout, 1.0))
        (failures if "failure" in res else results).append(res)

    attempted = sum(r["ops"] for r in results) + len(failures)
    failed = sum(r["fails"] for r in results) + len(failures)
    reps = [rep for r in results for rep in r["reps"]]
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    # with no finished process, a hang still shows: every time is the time
    # the killed processes ran
    hung = _median([f["elapsed"] for f in failures], 0.0)

    def ref(seconds: float, cal: float) -> float:
        return seconds * CAL_REF_S / cal

    walls = {kind: [ref(rep["wall"], rep["cal"]) for rep in group]
             for kind, group in (("plain", plain), ("traced", traced))}
    if args.trace:
        units = dict(PER_LAYER)
        samples = {name: [] for name in units}
        for part in [rep["layers"] for rep in traced] + [r["imports"] for r in results]:
            for name, value in part.items():
                samples[name].append(value)
        samples["trace.overhead_s"] = [_median(walls["traced"], hung)
                                       - _median(walls["plain"], hung)]
        # counts, qubits and bytes stay whole numbers
        metrics = {name: (statistics.median_low if units[name] in ("count", "qubits", "bytes")
                          else _median)(samples[name] or [0]) for name in units}
    else:
        units = dict(END_TO_END)
        metrics = {
            "setup_s": _median([ref(r["setup_s"], r["setup_cal"]) for r in results], hung),
            "wall_s": _median(walls["plain"], hung),
            "cpu_s": _median([ref(rep["cpu"], rep["cal"]) for rep in plain], hung),
            "peak_rss_mib": _median(
                [r["peak_rss_kib"] / 1024 for r in results],
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024),
            "pass_rate": 1.0 - failed / max(attempted, 1),
        }
    raw = {"setup_s": _median([r["setup_s"] for r in results], hung),
           "wall_s": _median([rep["wall"] for rep in plain], hung),
           "cpu_s": _median([rep["cpu"] for rep in plain], hung),
           "machine_speed": CAL_REF_S / _median([rep["cal"] for rep in reps], CAL_REF_S)}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "processes": procs,
        "conditions": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                       **(results[0]["versions"] if results else {}), **PINNED_ENV,
                       "warm_up": "one discarded call per process",
                       "shifter_cache": "cold at every repetition"},
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "error_rate": failed / max(attempted, 1),
        "errors": [e for r in results for e in r["errors"]]
                  + [f["failure"] for f in failures],
        "output_digests": sorted({d for r in results for d in r["digests"]}),
        "metrics": metrics,
        "raw": raw,
    }
    os.makedirs(os.path.join(".bench_out", args.workload), exist_ok=True)
    with open(os.path.join(".bench_out", args.workload, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("raw " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    print(f"error_rate {report['error_rate']:.6g} ratio ({failed} of {attempted})")
    print(f"repetitions {len(plain)} plain, {len(traced)} traced, in {procs} processes")
    print(f"output digest {' '.join(report['output_digests']) or '-'}")
    for err in report["errors"][:10]:
        print(f"error: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
