"""Fast built-in invariant suites behind ``pae verify``.

Each check returns ``(name, passed, detail)``; the CLI prints one line per
check.  These are smaller, quicker versions of the full acceptance tests.
"""

from __future__ import annotations

import dataclasses
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
            worst = max(worst, float(np.max(np.abs(restricted - grover_plane(inst)))))
    return "grover-plane-restriction", worst <= 1e-10, f"max deviation {worst:.2e}"


def _eigenphase_products(spec: qsp.PhaseShifterSpec, thetas) -> np.ndarray:
    """The ``(2, n, 2, 2)`` shifter products at ``pi/2 +- 2 theta`` by
    ``qsp.rotation_product``, layer by layer from the angles: independent
    of the row that certified them, which the analytic stage evaluates."""
    two_theta = 2.0 * np.asarray(thetas, dtype=float)
    return qsp.rotation_product(spec.angles.xi, np.concatenate(
        [np.pi / 2 + two_theta, np.pi / 2 - two_theta])).reshape(2, -1, 2, 2)


def check_shifter_error() -> tuple[str, bool, str]:
    # the plane vector |0> weights both eigenphases 1/sqrt(2), so column a's
    # squared error is the mean over them of |(b - d) e_a|^2, with d the
    # exact shifter diag(e^{-iT phi/2}, e^{+iT phi/2})
    spec = qsp.synthesize_shifter(1.0, 10)
    insts = [make_instance(float(a)) for a in np.linspace(0.0, 1.0, 21)]
    half = np.exp(0.5j * spec.T * np.array([inst.phi for inst in insts]))
    exact = np.zeros((len(insts), 2, 2), dtype=complex)
    exact[:, 0, 0], exact[:, 1, 1] = half.conj(), half
    miss = _eigenphase_products(spec, [inst.theta for inst in insts]) - exact
    worst = float(np.sqrt(np.max(np.mean(np.sum(np.abs(miss) ** 2, axis=-2), axis=0))))
    return "shifter-certified-error", worst <= spec.eps_oc, \
        f"measured {worst:.3e} vs budget {spec.eps_oc:.3e}"


def check_row_evaluation() -> tuple[str, bool, str]:
    # the analytic stage evaluates the certified row and raises it in
    # closed form; the reference multiplies the angles out layer by layer
    # and raises the product by matrix_power
    thetas = np.linspace(0.0, np.pi / 2, 101)
    worst = 0.0
    for T, L in ((1.0, 10), (48.0, 144)):
        spec = qsp.synthesize_shifter(T, L)
        blocks = circ.analytic_stage([(spec, [1, 2, 16])], thetas)[0]
        products = _eigenphase_products(spec, thetas)
        for s, b in blocks.items():
            worst = max(worst, float(np.max(np.abs(b - np.linalg.matrix_power(products, s)))))
    return "row-evaluation", worst <= 1e-12, f"max deviation {worst:.2e}"


def check_certificate_grid() -> tuple[str, bool, str]:
    # the residual, an l1 bound from the product's coefficients, covers the
    # realized product's miss on 16 uniform points per factor
    T, L = 8.0, 34
    p = qsp.complete_target([qsp.truncate_target(T, L)])[0]
    angles = qsp.solve_angles([p], [L])[0]
    m = 16 * L
    target = m * np.fft.ifft(qsp._spread([p], m)[0])    # P(z) z^-d at z = e^{2 pi i j / m}
    u00 = qsp.rotation_product(angles.xi, 2.0 * np.pi * np.arange(m) / m)[:, 0, 0]
    miss = float(np.max(np.abs(u00 - target)))
    return "certificate-grid", miss <= angles.residual, \
        f"residual {miss:.2e} on {m} points against bound {angles.residual:.2e}"


def check_parity_identity() -> tuple[str, bool, str]:
    # the parity contraction on exact-shifter blocks, diag(e^{-i phi/2},
    # e^{+i phi/2}) on both eigenphases, against the closed form
    phis = np.array([make_instance(float(a)).phi for a in np.linspace(0.0, 1.0, 11)])
    half = np.exp(0.5j * phis)
    blocks = np.zeros((2, len(phis), 2, 2), dtype=complex)
    blocks[:, :, 0, 0], blocks[:, :, 1, 1] = half.conj(), half
    ms = np.array([1, 4, 32])
    probs = circ.parity_probabilities(np.stack([blocks] * len(ms)), ms)
    worst = float(np.max(np.abs(probs - circ.ideal_probabilities(ms[:, None], phis))))
    return "parity-closed-form", worst <= 1e-12, f"max deviation {worst:.2e}"


def check_backend_equivalence() -> tuple[str, bool, str]:
    # through the probability phase that runs take: steps with the same
    # (t, l) share one shifter, raised per s and contracted per p, up to
    # 64 branches and n = 8
    steps = [driver.ScheduleStep(k=k, p=p, t=1.0, s=s, nu=1, l=10)
             for k, p, s in ((1, 1, 1), (2, 2, 1), (2, 1, 2), (3, 2, 2), (3, 4, 1), (7, 64, 1))]
    insts = [make_instance(a, n) for a in (0.0, 0.25, 1.0) for n in (2, 3, 6, 8)]
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


def check_angle_roundtrip() -> tuple[str, bool, str]:
    import os
    import tempfile
    # L = 40 is cut to 20, where synthesis certifies and reloading must too;
    # a copy with its first angle moved by 0.3 must be refused, not trusted
    spec = qsp.synthesize_shifter(1.0, 40)
    corrupted = qsp.AngleSequence(spec.angles.xi + 0.3 * (np.arange(spec.L) == 0))
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "angles.txt")
        qsp.save_angles(path, spec)
        loaded = qsp.load_angles(path)
        qsp.save_angles(path, dataclasses.replace(spec, angles=corrupted))
        try:
            qsp.load_angles(path)
            refused = False
        except qsp.SynthesisError:
            refused = True
    ok = (loaded.T == spec.T and loaded.L == spec.L
          and np.array_equal(loaded.angles.xi, spec.angles.xi)
          and loaded.angles.residual == spec.angles.residual
          and loaded.eps_oc == spec.eps_oc)
    detail = "bit-exact" if ok else f"mismatch (eps_oc {loaded.eps_oc:.3e} vs {spec.eps_oc:.3e})"
    return "angle-file-roundtrip", ok and refused, \
        detail + (", corrupted copy refused" if refused else ", corrupted copy loaded")


def check_synthesis_batch() -> tuple[str, bool, str]:
    # the six plus shifters and three stronger ones synthesized as one batch
    # against each synthesized as a batch of one, both uncached, then their
    # blocks on 101 amplitudes from one analytic stage call against each
    # shifter's batch-of-one call: the synthesis batch stacks every layer's
    # product and every tree level's products, the stage shares one table
    # of powers and one axis-angle pass per set of powers, and both are bit
    # for bit only where the stacked numpy and BLAS calls round each row as
    # the calls of one shifter do
    keys = ([(1.0, L) for L in sorted(set(driver.PARALLEL_L_TABLE_PLUS))]
            + [(2.0, 14), (4.0, 22), (8.0, 34)])
    try:
        batch = qsp._certified_shifters(keys)
    except qsp.SynthesisError as err:
        return "synthesis-batch", False, f"the batch is refused: {err}"
    differ = [f"T={T:g} L={L}" for (T, L), spec in zip(keys, batch)
              if not _same_bits(spec, qsp._certified_shifters([(T, L)])[0])]
    thetas = np.linspace(0.0, np.pi / 2, 101)
    requests = [(spec, [1] if spec.T == 1.0 else [1, 2, 16]) for spec in batch]
    differ += [f"staged T={spec.T:g} L={spec.L}"
               for (spec, powers), blocks in zip(requests, circ.analytic_stage(requests, thetas))
               if not _same_blocks(blocks, circ.analytic_stage([(spec, powers)], thetas)[0])]
    return "synthesis-batch", not differ, \
        f"{len(keys)} shifters bit-exact, synthesized and staged" if not differ \
        else "differ at " + ", ".join(differ)


def _same_bits(a: qsp.PhaseShifterSpec, b: qsp.PhaseShifterSpec) -> bool:
    return (a.angles.xi.tobytes() == b.angles.xi.tobytes()
            and a.angles.residual == b.angles.residual and a.eps_oc == b.eps_oc)


def _same_blocks(a: dict[int, np.ndarray], b: dict[int, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(a[s].tobytes() == b[s].tobytes() for s in a)


ALL_CHECKS = (
    check_grover_plane,
    check_shifter_error,
    check_row_evaluation,
    check_certificate_grid,
    check_parity_identity,
    check_backend_equivalence,
    check_rpe_exactness,
    check_accounting,
    check_angle_roundtrip,
    check_synthesis_batch,
)


def run_all() -> bool:
    all_ok = True
    for check in ALL_CHECKS:
        name, ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        all_ok = all_ok and ok
    return all_ok
