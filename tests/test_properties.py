"""Property tests of the schedule invariants, of the run-level analytic
stage, of the parity contraction's signed power, of batched sampling and
of noiseless phase recovery."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st, target  # noqa: E402

from pae import (PARALLEL_L_TABLE_PLUS, analytic_stage, build_schedule,  # noqa: E402
                 estimate_phase, ideal_probabilities, make_instance,
                 query_count, run, sample_and_recover, select_L_empirical,
                 synthesize_shifter)
from pae.circuit import _signed_power  # noqa: E402

# the strengths of the benchmark's synthesis ladder at their calibrated
# lengths, and the T = 1 shifters of the plus table
STAGE_KEYS = sorted({(float(T), select_L_empirical(T))
                     for T in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)}
                    | {(1.0, L) for L in PARALLEL_L_TABLE_PLUS})


@st.composite
def schedules(draw):
    strategy = draw(st.sampled_from(["full_parallel", "full_sequential", "general"]))
    K = draw(st.integers(1, 8))
    kwargs = dict(strategy=strategy, k_max=K,
                  nu_variant=draw(st.sampled_from(["optimized", "theoretical"])),
                  nu_final=draw(st.integers(1, 20)))
    if strategy == "general":
        kwargs["parallelism"] = 2 ** draw(st.integers(0, K - 1))
        kwargs["t_cap"] = 2 ** draw(st.integers(0, 6))
    return build_schedule(**kwargs)


@settings(max_examples=60, deadline=None)
@given(sched=schedules(), seed=st.integers(0, 2 ** 32),
       a=st.floats(0.0, 1.0, allow_nan=False))
def test_multiplier_split_and_query_accounting(sched, seed, a):
    assert all(s.p * s.t * s.s == s.m == 2 ** (s.k - 1) for s in sched)
    _, report, counts = run(make_instance(a), sched, seed=seed, backend="ideal")
    assert report.n_queries == query_count(sched)
    nu = np.array([[s.nu] for s in sched])
    assert counts.shape == (sched.K, 2) and ((0 <= counts) & (counts <= nu)).all()


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(st.sampled_from(STAGE_KEYS), unique=True, max_size=6),
       data=st.data(),
       thetas=st.lists(st.floats(0.0, math.pi / 2, allow_nan=False), max_size=257))
def test_run_level_stage_is_its_batches_of_one(keys, data, thetas):
    # every shifter of one analytic stage call, each asked for its own set
    # of powers, has the bits of its own call: the angles of up to 257
    # amplitudes fit one chunk of the widest row here
    requests = [(synthesize_shifter(T, L), data.draw(st.sets(st.integers(1, 16), min_size=1)))
                for T, L in keys]
    staged = analytic_stage(requests, thetas)
    assert len(staged) == len(requests)
    for (spec, powers), blocks in zip(requests, staged):
        alone = analytic_stage([(spec, powers)], thetas)[0]
        assert blocks.keys() == alone.keys() == powers
        assert all(blocks[s].tobytes() == alone[s].tobytes() for s in powers)


@settings(max_examples=400, deadline=None)
@given(x=st.floats(-1.0, 1.0), n=st.integers(0, 2 ** 20))
@example(x=0.0, n=0)
@example(x=-0.0, n=0)
@example(x=0.0, n=7)
@example(x=-0.0, n=7)
@example(x=-1.0, n=2 ** 20 - 1)
@example(x=-1.0, n=2 ** 20)
@example(x=1.0, n=2 ** 20 - 1)
def test_signed_power_is_the_real_power(x, n):
    # the contraction raises |x| and puts the sign back: the sign is that
    # of x ** n, the value within 2 ulps of it (the largest gap is hypothesis'
    # target score), and 0 ** 0, 0 ** n and (+-1) ** n are exact
    got = _signed_power(np.array([x]), np.array([n]))[0]
    want = np.float64(x) ** n
    assert np.signbit(got) == np.signbit(want)
    gap = abs(int(np.abs(got).view(np.int64)) - int(np.abs(want).view(np.int64)))
    target(float(gap), label="ulps from x ** n")
    assert gap <= 2
    if x == 0.0:
        assert got == (1.0 if n == 0 else 0.0)
    if abs(x) == 1.0:
        assert got == (-1.0 if x < 0 and n % 2 else 1.0)


@settings(max_examples=60, deadline=None)
@given(sched=schedules(), data=st.data())
def test_batched_sampling_is_exact(sched, data):
    # a batch is consecutive (K, 2) draws of one stream: trial 0 is the
    # single run, a prefix is the shorter batch, and each trial is
    # recovered as if on its own
    unit = st.floats(0.0, 1.0, allow_nan=False)
    probs = np.array(data.draw(st.lists(st.tuples(unit, unit), min_size=sched.K,
                                        max_size=sched.K)))
    seed = data.draw(st.integers(0, 2 ** 63 - 1))
    n = data.draw(st.integers(1, 20))
    m = data.draw(st.integers(1, n))
    batch, counts = sample_and_recover(sched, probs, seed, trials=n)
    assert counts.shape == (n, sched.K, 2)

    def bits(x):
        return np.float64(x).tobytes()

    est, single_counts = sample_and_recover(sched, probs, seed)
    assert np.array_equal(counts[0], single_counts)
    assert bits(batch.a_hat[0]) == bits(est.a_hat)
    assert bits(batch.phi_hat[0]) == bits(est.phi_hat)
    assert [bits(t[0]) for t in batch.trajectory] == [bits(t) for t in est.trajectory]

    prefix, prefix_counts = sample_and_recover(sched, probs, seed, trials=m)
    assert np.array_equal(prefix_counts, counts[:m])
    assert prefix.a_hat.tobytes() == batch.a_hat[:m].tobytes()

    nu = np.array([[step.nu] for step in sched])
    for i in range(n):
        own = estimate_phase(counts[i] / nu)
        assert bits(batch.a_hat[i]) == bits(own.a_hat)
        assert bits(batch.phi_hat[i]) == bits(own.phi_hat)
        assert [bits(t[i]) for t in batch.trajectory] == [bits(t) for t in own.trajectory]


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 1.0, allow_nan=False), K=st.integers(1, 9))
def test_noiseless_recovery_within_resolution(a, K):
    # exact probabilities fed in as frequencies: recovery must land within
    # the final step's resolution pi * 2^-K of the true phase
    phi = make_instance(a).phi
    freqs = ideal_probabilities(2 ** np.arange(K), phi)
    err = abs((estimate_phase(freqs).phi_hat - phi + math.pi) % (2 * math.pi) - math.pi)
    assert err <= math.pi * 2.0 ** -K
