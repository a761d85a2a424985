"""Fast built-in invariant suites behind ``pae verify``.

Each check returns ``(name, passed, detail)``; the CLI prints one line per
check.  These are smaller, quicker versions of the full acceptance tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import circuit as circ
from . import driver, qsp, rpe
from .core_model import (build_explicit_oracle, build_grover_unitary,
                         grover_plane, grover_plane_basis, make_instance)


def check_grover_plane() -> tuple[str, bool, str]:
    worst = 0.0
    for a in np.linspace(0.0, 1.0, 21):
        for n in (2, 3):
            inst = make_instance(float(a), n)
            oracle = build_explicit_oracle(inst, "random", seed=11)
            q = build_grover_unitary(oracle)
            e0, e1 = grover_plane_basis(oracle, inst)
            basis = np.column_stack([e0, e1])
            restricted = basis.conj().T @ q @ basis
            worst = max(worst, float(np.max(np.abs(restricted - grover_plane(inst).matrix))))
    return "grover-plane-restriction", worst <= 1e-10, f"max deviation {worst:.2e}"


def check_shifter_error() -> tuple[str, bool, str]:
    spec = qsp.synthesize_shifter(1.0, 10)
    worst = 0.0
    for a in np.linspace(0.0, 1.0, 21):
        inst = make_instance(float(a))
        v = spec.branch_unitary(inst.theta)
        ideal = qsp.ideal_branch_unitary(1.0, inst.phi)
        for col in (0, 2):
            worst = max(worst, float(np.linalg.norm((v - ideal)[:, col])))
    return "shifter-certified-error", worst <= spec.eps_oc, \
        f"measured {worst:.3e} vs budget {spec.eps_oc:.3e}"


def check_parity_identity() -> tuple[str, bool, str]:
    # the parity contraction on exact-shifter blocks, diag(e^{-i phi/2},
    # e^{+i phi/2}) on both eigenphases, against the closed form
    phis = np.array([make_instance(float(a)).phi for a in np.linspace(0.0, 1.0, 11)])
    half = np.exp(0.5j * phis)
    blocks = np.zeros((2, len(phis), 2, 2), dtype=complex)
    blocks[:, :, 0, 0], blocks[:, :, 1, 1] = half.conj(), half
    worst = 0.0
    for m in (1, 4, 32):
        probs = circ._parity_probabilities(blocks, m)
        worst = max(worst, float(np.max(np.abs(probs - circ.ideal_probabilities(m, phis)))))
    return "parity-closed-form", worst <= 1e-12, f"max deviation {worst:.2e}"


def check_backend_equivalence() -> tuple[str, bool, str]:
    # through the probability phase that runs take: the analytic steps
    # with the same (t, l, s) and different p share their blocks
    steps = [driver.ScheduleStep(k=i + 1, m=p * s, p=p, t=1.0, s=s, nu=1, l=10)
             for i, (p, s) in enumerate(((1, 1), (2, 1), (1, 2), (2, 2)))]
    insts = [make_instance(a, 2) for a in (0.0, 0.25, 1.0)]
    pa = driver.step_probabilities(insts, steps, "analytic")
    pv = driver.step_probabilities(insts, steps, "statevector")
    worst = float(np.max(np.abs(pa - pv)))
    return "backend-equivalence", worst <= 1e-10, f"max deviation {worst:.2e}"


def check_rpe_exactness() -> tuple[str, bool, str]:
    K = 7
    phis = np.array([make_instance(float(a)).phi for a in np.linspace(0.0, 1.0, 21)])
    est = rpe.estimate_phase(circ.ideal_probabilities(2 ** np.arange(K), phis[:, None]))
    worst = float(np.max(np.abs(est.phi_hat - phis)))
    return "rpe-noiseless-exactness", worst <= math.pi * 2.0 ** (-K), \
        f"max phase error {worst:.2e}"


def check_accounting() -> tuple[str, bool, str]:
    sched = driver.build_schedule(strategy="full_sequential", k_max=1,
                                  nu_variant="optimized", nu_final=7)
    _, report, counts = driver.run(make_instance(0.3), sched, seed=5, backend="ideal")
    ok = (report.n_queries == 140 and counts.shape == (1, 2)
          and bool(((0 <= counts) & (counts <= sched.steps[0].nu)).all()))
    for strategy in ("full_parallel", "full_sequential"):
        s = driver.build_schedule(strategy=strategy, k_max=6)
        ok = ok and all(st.p * st.t * st.s == st.m for st in s)
    return "query-accounting", ok, f"K=1 run reports N={report.n_queries}"


def check_angle_roundtrip(tmpdir=None) -> tuple[str, bool, str]:
    import os
    import tempfile
    spec = qsp.synthesize_shifter(1.0, 10)
    with tempfile.TemporaryDirectory(dir=tmpdir) as td:
        path = os.path.join(td, "angles.txt")
        qsp.save_angles(path, spec)
        loaded = qsp.load_angles(path)
    ok = (loaded.T == spec.T and loaded.L == spec.L
          and np.array_equal(loaded.angles.xi, spec.angles.xi)
          and loaded.angles.residual == spec.angles.residual)
    return "angle-file-roundtrip", ok, "bit-exact" if ok else "mismatch"


ALL_CHECKS = (
    check_grover_plane,
    check_shifter_error,
    check_parity_identity,
    check_backend_equivalence,
    check_rpe_exactness,
    check_accounting,
    check_angle_roundtrip,
)


def run_all(report=print) -> bool:
    all_ok = True
    for check in ALL_CHECKS:
        name, ok, detail = check()
        report(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        all_ok = all_ok and ok
    return all_ok
