"""What the benchmark uses of pae, checked by the tier-1 suite.

Every workload of ``bench/worker.py`` runs at its tiny size and passes its
own checks under the span tracer of ``bench/tracing.py``.  Both files are
loaded read-only.  A change that deletes or renames a pae name that the
benchmark reaches fails here, and not only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

from pae import circuit, core_model, driver, experiments, plotting, qsp, rpe

BENCH = Path(__file__).resolve().parent.parent / "bench"


def attribute_snapshot():
    """Every attribute of the modules and class that the tracer patches."""
    owners = (circuit, core_model, driver, experiments, plotting, qsp, rpe,
              qsp.PhaseShifterSpec)
    return {(owner.__name__, name): value for owner in owners
            for name, value in vars(owner).items()}


def replaced(before, after):
    """Keys of ``before`` whose value in ``after`` is another object."""
    return [key for key in before if after.get(key) is not before[key]]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("worker", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing
    import worker
    yield worker, tracing
    for name in ("worker", "tracing"):
        sys.modules.pop(name, None)


def test_every_workload_passes_its_checks_under_the_tracer(bench, tmp_path):
    worker, tracing = bench
    assert set(worker.WORKLOADS) == {"sweep_parallel", "synth_ladder",
                                     "bias_calib", "crosscheck_sv"}
    before = attribute_snapshot()
    for name, workload in worker.WORKLOADS.items():
        out = tmp_path / name
        out.mkdir()
        wl = workload(3, "tiny", str(out))
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            assert replaced(before, attribute_snapshot())
            worker.cold_cache()
            wl.call()
            checks = [wl.check]
            if hasattr(wl, "final_check"):
                checks.append(wl.final_check)
            results = [check() for check in checks]
        finally:
            tracer.uninstall()
        assert tracer.spans, name
        for ops, fails, errors in results:
            assert ops >= 1 and fails == 0 and errors == [], (name, errors)
        after = attribute_snapshot()
        assert after.keys() == before.keys()
        assert replaced(before, after) == [], name


def test_traced_synthesis_times_each_stage(bench, tmp_path):
    # the per-layer metrics qsp.truncate_target.s, qsp.complete_target.s
    # and qsp.solve_angles.s read these spans: a synthesis that stopped
    # calling its stages through the module would zero them without a word
    worker, tracing = bench
    wl = worker.WORKLOADS["synth_ladder"](3, "tiny", str(tmp_path))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        worker.cold_cache()
        wl.call()
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for stage in ("qsp.truncate_target", "qsp.complete_target", "qsp.solve_angles"):
        assert names.count(stage) >= 1, stage


# The output digest of each workload at seed 7 and full size, as
# ``bench/run.py --seed 7`` reports it: the CSV of a ``pae run``, or the
# angles of ``synth_ladder``.  A change that moves one announces it.
SEED_7_DIGESTS = {"sweep_parallel": "1651873beaff1813", "synth_ladder": "e92b570ceb7dc4ee",
                  "bias_calib": "da707288106efb49", "crosscheck_sv": "412d37ae918e11c9"}


def test_seed_7_digests_are_pinned(bench, tmp_path):
    worker, _ = bench
    digests = {}
    for name, workload in worker.WORKLOADS.items():
        out = tmp_path / name
        out.mkdir()
        wl = workload(7, "full", str(out))
        worker.cold_cache()
        wl.call()
        ops, fails, errors = wl.check()
        assert ops >= 1 and fails == 0 and errors == [], (name, errors)
        digests[name] = wl.digests[-1]
    assert digests == SEED_7_DIGESTS
