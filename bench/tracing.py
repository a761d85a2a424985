"""Span tracing of the pae package from outside it.

The tracer replaces public functions of the pae modules with thin wrappers
that record one span per call: name, start, end, parent span and, for a
few functions, the inputs that the per-layer metrics need (shot count,
qubit count, the distinct-input key).  Nothing inside ``src/pae`` changes;
``uninstall`` restores every original.  Spans live in a list in memory and
are written out once, at the end of a traced run.
"""

from __future__ import annotations

import json
import time

# Standard-library only: the benchmark's parent process imports this module
# for the metric table and must not load numpy or pae.

# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("qsp.synthesize_shifter.calls", "count"),
    ("qsp.synthesize_shifter.s", "s"),
    ("qsp.synthesize_shifter.cache_hit_ratio", "ratio"),
    ("qsp.truncate_target.s", "s"),
    ("qsp.complete_target.s", "s"),
    ("qsp.solve_angles.s", "s"),
    ("qsp.build_branch_unitary.calls", "count"),
    ("qsp.build_branch_unitary.s", "s"),
    ("qsp.branch_unitary.hit_ratio", "ratio"),
    ("circuit.setting_probability.calls", "count"),
    ("circuit.setting_probability.s", "s"),
    ("circuit.setting_probability.distinct_ratio", "ratio"),
    ("circuit.sample_even_parity.calls", "count"),
    ("circuit.sample_even_parity.shots", "count"),
    ("circuit.sample_even_parity.s", "s"),
    ("circuit.statevector.calls", "count"),
    ("circuit.statevector.s", "s"),
    ("circuit.statevector.max_qubits", "qubits"),
    ("circuit.statevector.state_bytes", "bytes"),
    ("core_model.build_explicit_oracle.calls", "count"),
    ("core_model.build_explicit_oracle.s", "s"),
    ("rpe.estimate_phase.calls", "count"),
    ("rpe.estimate_phase.s", "s"),
    ("driver.run.calls", "count"),
    ("driver.run.self_s", "s"),
    ("driver.run.ms_p50", "ms"),
    ("driver.run.ms_p99", "ms"),
    ("driver.build_schedule.calls", "count"),
    ("driver.build_schedule.s", "s"),
    ("experiments.run_rmse_sweep.self_s", "s"),
    ("experiments.run_bias_sweep.self_s", "s"),
    ("plotting.render.s", "s"),
    ("setup.import_pae_s", "s"),
    ("setup.import_scipy_stats_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class Tracer:
    """Wraps module attributes so that each call records a span.

    A span is ``[name, start, end, parent_index, attrs]``; parents precede
    their children in ``spans`` because a span is appended when its call
    starts.  Single-threaded use only: the open spans form one stack.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, aliases=(), attrs=None) -> None:
        """Trace ``owner.attr`` under span ``name``.

        ``aliases`` are other modules that imported the same function by
        name (``from .x import f``); they are patched too, so that calls
        made through them are traced.  ``attrs(*args, **kwargs)`` returns
        the span's recorded inputs.
        """
        orig = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   attrs(*args, **kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        for target in (owner, *aliases):
            if getattr(target, attr) is not orig:
                raise RuntimeError(f"{target!r}.{attr} is not {name}")
            self._patched.append((target, attr, orig))
            setattr(target, attr, traced)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patched):
            setattr(target, attr, orig)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def write(self, path: str) -> None:
        """One JSON object per span; times are seconds on the run's
        ``perf_counter`` clock."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every pae module that the workloads
    reach, at the names their callers look them up by."""
    from pae import circuit, core_model, driver, experiments, plotting, qsp, rpe

    tracer.wrap(qsp, "synthesize_shifter", "qsp.synthesize_shifter")
    tracer.wrap(qsp, "truncate_target", "qsp.truncate_target")
    tracer.wrap(qsp, "complete_target", "qsp.complete_target")
    tracer.wrap(qsp, "solve_angles", "qsp.solve_angles")
    tracer.wrap(qsp, "build_branch_unitary", "qsp.build_branch_unitary")
    tracer.wrap(qsp.PhaseShifterSpec, "branch_unitary", "qsp.branch_unitary")
    tracer.wrap(circuit, "setting_probability", "circuit.setting_probability",
                attrs=lambda pc, setting: (pc.P, pc.S, pc.spec.T, pc.spec.L,
                                           pc.instance.theta, setting.value))
    tracer.wrap(circuit, "sample_even_parity", "circuit.sample_even_parity",
                attrs=lambda probability, shots, seed: shots)
    tracer.wrap(circuit, "statevector_even_parity_probability", "circuit.statevector",
                attrs=lambda pc, *a, **k: pc.P * (pc.instance.n + 1))
    tracer.wrap(core_model, "build_explicit_oracle", "core_model.build_explicit_oracle",
                aliases=(circuit,))
    tracer.wrap(rpe, "estimate_phase", "rpe.estimate_phase")
    tracer.wrap(driver, "run", "driver.run")
    tracer.wrap(driver, "build_schedule", "driver.build_schedule")
    tracer.wrap(experiments, "run_rmse_sweep", "experiments.run_rmse_sweep")
    tracer.wrap(experiments, "run_bias_sweep", "experiments.run_bias_sweep")
    tracer.wrap(plotting, "render", "plotting.render")


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    rank = max(1, -(-len(sorted_vals) * q // 100))
    return sorted_vals[int(rank) - 1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``.s`` sums a span name's durations, ``.self_s`` its durations minus the
    time its child spans cover.  A ``synthesize_shifter`` or
    ``branch_unitary`` span without children was served from cache.
    """
    n = len(spans)
    child_time = [0.0] * n
    child_count = [0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            child_count[parent] += 1
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    leaves: dict[str, int] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        leaves[name] = leaves.get(name, 0) + (child_count[i] == 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def attrs_of(name: str) -> list:
        return [s[4] for s in spans if s[0] == name]

    probs = attrs_of("circuit.setting_probability")
    shots = attrs_of("circuit.sample_even_parity")
    qubits = attrs_of("circuit.statevector")
    run_ms = sorted(1e3 * (s[2] - s[1]) for s in spans if s[0] == "driver.run")
    out = {}
    for name in ("qsp.synthesize_shifter", "qsp.build_branch_unitary",
                 "circuit.setting_probability", "circuit.sample_even_parity",
                 "circuit.statevector", "core_model.build_explicit_oracle",
                 "rpe.estimate_phase", "driver.run", "driver.build_schedule"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("qsp.synthesize_shifter", "qsp.truncate_target",
                 "qsp.complete_target", "qsp.solve_angles",
                 "qsp.build_branch_unitary", "circuit.setting_probability",
                 "circuit.sample_even_parity", "circuit.statevector",
                 "core_model.build_explicit_oracle", "rpe.estimate_phase",
                 "driver.build_schedule", "plotting.render"):
        out[f"{name}.s"] = total.get(name, 0.0)
    for name in ("driver.run", "experiments.run_rmse_sweep",
                 "experiments.run_bias_sweep"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["qsp.synthesize_shifter.cache_hit_ratio"] = ratio(
        leaves.get("qsp.synthesize_shifter", 0), calls.get("qsp.synthesize_shifter", 0))
    out["qsp.branch_unitary.hit_ratio"] = ratio(
        leaves.get("qsp.branch_unitary", 0), calls.get("qsp.branch_unitary", 0))
    out["circuit.setting_probability.distinct_ratio"] = ratio(len(set(probs)), len(probs))
    out["circuit.sample_even_parity.shots"] = sum(shots)
    out["circuit.statevector.max_qubits"] = max(qubits, default=0)
    out["circuit.statevector.state_bytes"] = sum(16 * 2 ** nq for nq in qubits)
    out["driver.run.ms_p50"] = _percentile(run_ms, 50)
    out["driver.run.ms_p99"] = _percentile(run_ms, 99)
    out["trace.spans"] = n
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of ``pae`` and ``scipy.stats`` from the
    ``python -X importtime`` lines on a process's standard error (0 for a
    module the process never imported)."""
    want = {"pae": "setup.import_pae_s", "scipy.stats": "setup.import_scipy_stats_s"}
    out = {metric: 0.0 for metric in want.values()}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip() in want and parts[1].strip().isdigit():
            out[want[parts[2].strip()]] = int(parts[1]) * 1e-6
    return out
