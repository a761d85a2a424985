import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from pae import (PARALLEL_L_TABLE_PLUS, build_schedule,
                 hl_reference, make_instance, query_count, resource_report, run,
                 sample_and_recover, select_L_empirical, step_probabilities,
                 synthesize_shifter, theorem_resources)
from pae import circuit, qsp, rpe
from pae.core_model import DomainError
from pae.driver import ScheduleStep


def reference_steps(strategy, K, parallelism=None, beta=0.05, nu_variant="optimized",
                    nu_final=7, l_table=None, certified=False, t_cap=8):
    """The schedule loop with one branch per strategy, on valid input."""
    def split(ts):
        return (float(ts), 1) if ts <= t_cap else (float(t_cap), ts // t_cap)

    steps = []
    for k in range(1, K + 1):
        m = 2 ** (k - 1)
        if strategy == "full_parallel":
            p, t, s = m, 1.0, 1
        elif strategy == "full_sequential":
            p, t, s = 1, float(m), 1
        elif 2 ** k <= 2 ** K // parallelism:
            p = 1
            t, s = split(m)
        else:
            ts = 2 ** (K - 1) // parallelism
            p = m // ts
            t, s = split(ts)
        nu = rpe.schedule_nu(K, k, variant=nu_variant, beta=beta, nu_final=nu_final)
        if l_table is not None:
            l = int(l_table[k - 1])
        elif certified:
            try:
                l = qsp.select_L(t, beta / (math.sqrt(2.0) * p * s))
            except DomainError as err:
                raise DomainError(f"step {k} (P = {p}, S = {s}): {err}") from err
        else:
            l = qsp.select_L_empirical(t)
        steps.append(ScheduleStep(k=k, p=p, t=t, s=s, nu=nu, l=l))
    return steps


SCHEDULE_OPTIONS = (
    {},
    {"certified": True},
    {"certified": True, "beta": 0.1, "nu_variant": "theoretical"},
    {"l_table": tuple(range(10, 42, 2))},
)


def assert_same_steps(sched, want):
    assert len(sched.steps) == len(want)
    for got, ref in zip(sched.steps, want):
        got_fields, ref_fields = dataclasses.astuple(got), dataclasses.astuple(ref)
        assert got_fields == ref_fields
        assert [type(v) for v in got_fields] == [type(v) for v in ref_fields]


class TestBuildSchedule:
    @pytest.mark.parametrize("strategy", ["full_parallel", "full_sequential", "general"])
    def test_one_rule_matches_per_strategy_loop(self, strategy):
        # K = 1..14, then 16, the proof-mode step count at eps = 1e-3
        for K in [*range(1, 15), 16]:
            general = strategy == "general"
            ps = [2 ** j for j in range(K)] if general else [None]
            caps = [{}, {"t_cap": 1}, {"t_cap": 2}, {"t_cap": 8}, {"t_cap": 64}]
            for parallelism, cap, options in itertools.product(
                    ps, caps if general else [{}], SCHEDULE_OPTIONS):
                kwargs = dict(parallelism=parallelism, **cap, **options)
                try:
                    want = reference_steps(strategy, K, **kwargs)
                except DomainError as refusal:
                    # a certified step's budget below the floor of its
                    # solve length: the schedule refuses it alike, naming
                    # the step, its P and its S
                    assert options.get("certified")
                    assert re.match(r"step \d+ \(P = \d+, S = \d+\): state-error budget",
                                    str(refusal))
                    with pytest.raises(DomainError, match=f"^{re.escape(str(refusal))}$"):
                        build_schedule(strategy=strategy, k_max=K, **kwargs)
                    continue
                sched = build_schedule(strategy=strategy, k_max=K, **kwargs)
                assert sched.K == K
                assert_same_steps(sched, want)

    @pytest.mark.parametrize("strategy", ["full_parallel", "full_sequential"])
    def test_presets_reject_t_cap(self, strategy):
        # a valid cap used to be ignored without a word: T up to 128 at K = 8
        for t_cap in (1, 2, 64):
            message = (f"t_cap applies to the general strategy only, got {t_cap} "
                       f"for {strategy!r}")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                build_schedule(strategy=strategy, k_max=8, t_cap=t_cap)
        assert build_schedule(strategy=strategy, k_max=8, t_cap=None).K == 8

    @pytest.mark.parametrize("kwargs,message", [
        ({"strategy": "full_parallel", "parallelism": 2},
         "parallelism applies to the general strategy only, got 2 for 'full_parallel'"),
        ({"strategy": "full_sequential", "parallelism": 1},
         "parallelism applies to the general strategy only, got 1 for 'full_sequential'"),
        ({"strategy": "mixed", "parallelism": 2},
         "parallelism applies to the general strategy only, got 2 for 'mixed'"),
        ({"strategy": "general", "parallelism": 3},
         "general mode needs a power-of-two parallelism, got 3"),
        ({"strategy": "general"},
         "general mode needs a power-of-two parallelism, got None"),
        ({"strategy": "general", "parallelism": 0},
         "general mode needs a power-of-two parallelism, got 0"),
        ({"strategy": "general", "parallelism": 16},
         "parallelism 16 exceeds the top multiplier 2^3"),
        ({"strategy": "mixed"}, "unknown strategy 'mixed'"),
        ({"strategy": "general", "parallelism": 2, "t_cap": 3},
         "strength cap must be a power of two, got 3"),
        ({"strategy": "full_sequential", "t_cap": 0},
         "strength cap must be a power of two, got 0"),
        ({"strategy": "mixed", "t_cap": 6},
         "strength cap must be a power of two, got 6"),
        # a float used to reach `&` and raise a bare TypeError
        ({"strategy": "general", "parallelism": 2.0},
         "general mode needs a power-of-two parallelism, got 2.0"),
        ({"strategy": "general", "parallelism": 2, "t_cap": 8.0},
         "strength cap must be a power of two, got 8.0"),
        # round() used to take 2.5 final shots: nu = 15, 11, 7, 2
        ({"strategy": "full_parallel", "nu_final": 2.5},
         "final shot count must be an integer, got 2.5"),
    ])
    def test_error_messages(self, kwargs, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build_schedule(k_max=4, **kwargs)

    def test_full_parallel(self):
        sched = build_schedule(strategy="full_parallel", k_max=7)
        assert all(st.t == 1.0 and st.s == 1 for st in sched)
        assert [st.p for st in sched] == [2 ** (k - 1) for k in range(1, 8)]
        assert sched.steps[-1].p == 64

    def test_full_sequential_l_values(self):
        sched = build_schedule(strategy="full_sequential", k_max=4)
        assert all(st.p == 1 and st.s == 1 for st in sched)
        assert [st.t for st in sched] == [1.0, 2.0, 4.0, 8.0]
        assert [st.l for st in sched] == [10, 14, 22, 34]

    def test_proof_mode_step_count(self):
        # theorem_resources at eps = 1e-2 runs ceil(log2(100)) + 6 = 13 steps
        sched = build_schedule(strategy="general", k_max=13, parallelism=1,
                               nu_variant="theoretical")
        assert theorem_resources(1e-2, 1) == (query_count(sched),
                                              max(st.s * st.l for st in sched))

    def test_multiplier_identity(self):
        for strategy in ("full_parallel", "full_sequential"):
            sched = build_schedule(strategy=strategy, k_max=8)
            assert all(st.p * st.t * st.s == st.m for st in sched)

    def test_general_mode_split(self):
        sched = build_schedule(strategy="general", k_max=6, parallelism=4)
        assert all(st.p * st.t * st.s == st.m for st in sched)
        # small steps stay single-branch, large steps share the fixed T*S
        assert sched.steps[0].p == 1
        assert sched.steps[-1].p == 4
        assert all(st.t <= 8.0 for st in sched)   # strength cap

    def test_general_mode_sequential_fold(self):
        sched = build_schedule(strategy="general", k_max=7, parallelism=2, t_cap=8)
        big = sched.steps[-1]
        assert big.p == 2 and big.t * big.s == 32 and big.t == 8.0 and big.s == 4

    def test_general_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            build_schedule(strategy="general", k_max=6, parallelism=3)

    def test_general_rejects_oversized_parallelism(self):
        with pytest.raises(DomainError):
            build_schedule(strategy="general", k_max=3, parallelism=16)

    @pytest.mark.parametrize("strategy", ["full_parallel", "full_sequential"])
    def test_parallelism_rejected_outside_general(self, strategy):
        # it used to be ignored without a word
        with pytest.raises(DomainError, match="parallelism"):
            build_schedule(strategy=strategy, k_max=4, parallelism=2)
        assert build_schedule(strategy=strategy, k_max=4, parallelism=None).K == 4

    @pytest.mark.parametrize("t_cap", [0, 3, 6, 12])
    def test_rejects_non_power_of_two_t_cap(self, t_cap):
        # floor division used to turn t_cap=3 into multipliers 3, 6, 15
        with pytest.raises(DomainError, match="strength cap"):
            build_schedule(strategy="general", k_max=6, parallelism=1, t_cap=t_cap)

    def test_mode_exclusivity(self):
        # k_max is the one source of the step count: the proof-mode eps
        # belongs to theorem_resources
        with pytest.raises(DomainError, match="^step count must be an integer, got None"):
            build_schedule(strategy="full_parallel")
        with pytest.raises(TypeError, match="eps"):
            build_schedule(strategy="full_parallel", eps=0.1, k_max=4)

    @pytest.mark.parametrize("k_max", [1.5, 4.0, "4"])
    def test_rejects_non_integer_step_count(self, k_max):
        # int() used to truncate 1.5 into a one-step schedule
        with pytest.raises(DomainError,
                           match=f"^step count must be an integer, got {re.escape(repr(k_max))}$"):
            build_schedule(strategy="full_parallel", k_max=k_max)
        assert build_schedule(strategy="full_parallel", k_max=np.int64(4)).K == 4

    def test_step_derives_its_multiplier(self):
        # m and K are derived, never stored
        step = ScheduleStep(k=5, p=4, t=2.0, s=2, nu=7, l=14)
        assert step.m == 16
        assert [f.name for f in dataclasses.fields(step)] == ["k", "p", "t", "s", "nu", "l"]
        sched = build_schedule(strategy="full_sequential", k_max=3)
        assert [f.name for f in dataclasses.fields(sched)] == ["steps"]
        assert sched.K == len(sched.steps) == 3

    @pytest.mark.parametrize("nu", [0, -3, 1.5, 7.0, None])
    def test_step_rejects_bad_shot_count(self, nu):
        # nu = 0 used to give a_hat = nan with only a RuntimeWarning
        message = (f"must be >= 1, got {nu}" if isinstance(nu, int)
                   else f"must be an integer, got {nu!r}")
        with pytest.raises(DomainError,
                           match=f"^step 2: shots per setting {re.escape(message)}$"):
            ScheduleStep(k=2, p=2, t=1.0, s=1, nu=nu, l=10)
        assert ScheduleStep(k=2, p=2, t=1.0, s=1, nu=np.int64(1), l=10).nu == 1

    @pytest.mark.parametrize("field,name", [("p", "branch count"), ("s", "repetition count"),
                                            ("k", "step index")])
    def test_step_rejects_non_integer_split(self, field, name):
        # s = 2.0 used to be accepted and end in a bare TypeError in
        # step_probabilities, p = 2.0 ran without a word, and k = 3.0 made
        # a step of multiplier 4.0
        counts = {"k": 3, "p": 2, "s": 2}
        where = "" if field == "k" else "step 3: "
        with pytest.raises(DomainError, match=f"^{where}{name} must be an integer, "
                                              f"got {counts[field]}\\.0$"):
            ScheduleStep(t=1.0, nu=1, l=10, **{**counts, field: float(counts[field])})
        step = ScheduleStep(t=1.0, nu=1, l=10, **{**counts, field: np.int64(counts[field])})
        assert getattr(step, field) == counts[field]

    def test_step_refuses_multiplier_past_64_bits(self):
        # k = 64 used to build a step whose P = 2^63 numpy read as a float,
        # refused later as "branch count must be an integer, got 1.0"
        top = ScheduleStep(k=63, p=2 ** 62, t=1.0, s=1, nu=1, l=10)
        assert top.m == 2 ** 62 == np.int64(top.p)
        for k in (64, 65):
            with pytest.raises(DomainError, match=rf"^step {k}: the multiplier 2\^\(k-1\) = "
                                                  rf"2\^{k - 1} must fit a signed 64-bit count"):
                ScheduleStep(k=k, p=2 ** (k - 1), t=1.0, s=1, nu=1, l=10)

    def test_length_past_64_bits_names_its_step(self):
        # the calibrated length of T = 2^61, about 6.3e18, used to be
        # returned although no signed 64-bit count holds it
        with pytest.raises(DomainError, match=r"^step 62 \(P = 1, S = 1\): evolution strength "
                                              r"2\.30584e\+18 needs a query length above 2\^62"):
            build_schedule(strategy="full_sequential", k_max=62)
        assert build_schedule(strategy="full_sequential", k_max=61).steps[-1].l < 2 ** 62

    @pytest.mark.parametrize("l", [-2, 0, 3, 11, 10.5, 10.0, "10", None])
    def test_step_rejects_bad_query_length(self, l):
        # l = -2 used to report n_queries = -20 and oracle_depth = -2
        with pytest.raises(DomainError,
                           match=rf"^step 2: query length must be a positive even integer, "
                                 rf"got {re.escape(repr(l))}$"):
            ScheduleStep(k=2, p=2, t=1.0, s=1, nu=7, l=l)
        assert ScheduleStep(k=2, p=2, t=1.0, s=1, nu=7, l=np.int64(2)).l == 2

    def test_non_integer_l_table_entry_is_refused(self):
        # int() used to truncate the table into L = 10, 12, 14
        with pytest.raises(DomainError,
                           match=r"^step 1: query length must be a positive even integer, "
                                 r"got 10\.5$"):
            build_schedule(strategy="full_parallel", k_max=3, l_table=[10.5, 12.9, 14])
        sched = build_schedule(strategy="full_parallel", k_max=3, l_table=np.array([10, 12, 14]))
        assert [st.l for st in sched] == [10, 12, 14]

    def test_l_table_override(self):
        sched = build_schedule(strategy="full_parallel", k_max=7,
                               l_table=PARALLEL_L_TABLE_PLUS[:7])
        assert [st.l for st in sched] == [10, 12, 12, 14, 16, 16, 18]

    def test_short_l_table_rejected(self):
        # it used to end in a bare IndexError at the first missing step
        with pytest.raises(DomainError,
                           match="l_table has 2 entries, schedule needs 5"):
            build_schedule(strategy="full_parallel", k_max=5, l_table=(10, 12))
        longer = build_schedule(strategy="full_parallel", k_max=2,
                                l_table=PARALLEL_L_TABLE_PLUS)
        assert [st.l for st in longer] == [10, 12]

    def test_bias_budget_domain_is_the_recoverys(self):
        # beta = 0 used to be refused here, while rpe.mse_bound and
        # rpe.schedule_nu took it: one check, [0, sqrt(6)/8), for all three
        assert build_schedule(strategy="full_parallel", k_max=3, beta=0.0).K == 3
        with pytest.raises(DomainError, match=r"^step 1 \(P = 1, S = 1\): state-error budget "
                                              r"must lie in \(0, 1\), got 0\.0$"):
            build_schedule(strategy="full_parallel", k_max=3, beta=0.0, certified=True)
        for beta in (-0.01, rpe.ROBUSTNESS_LIMIT, math.nan):
            with pytest.raises(DomainError, match=r"^bias must lie in \[0, sqrt\(6\)/8\), got "):
                build_schedule(strategy="full_parallel", k_max=3, beta=beta)

    def test_certified_mode_lengths_grow_with_parallelism(self):
        sched = build_schedule(strategy="full_parallel", k_max=6, certified=True)
        ls = [st.l for st in sched]
        assert ls == sorted(ls) and ls[-1] > ls[0]


class TestRun:
    def test_k1_canonical_query_count(self):
        sched = build_schedule(strategy="full_sequential", k_max=1,
                               nu_variant="optimized", nu_final=7)
        est, report, counts = run(make_instance(0.3), sched, seed=11, backend="ideal")
        assert report.n_queries == 140            # 2 * 7 * 1 * 10
        assert query_count(sched) == 140
        assert counts.shape == (1, 2)

    def test_phi_zero_fixed_point_converges(self):
        sched = build_schedule(strategy="full_sequential", k_max=8)
        errs = [abs(run(make_instance(0.5), sched, seed=s, backend="ideal")[0].a_hat - 0.5)
                for s in range(5)]
        assert np.mean(errs) <= 5e-3

    def test_depth_table_full_parallel(self):
        sched7 = build_schedule(strategy="full_parallel", k_max=7,
                                l_table=PARALLEL_L_TABLE_PLUS[:7])
        assert resource_report(sched7, 2).oracle_depth == 18
        sched9 = build_schedule(strategy="full_parallel", k_max=9,
                                l_table=PARALLEL_L_TABLE_PLUS)
        assert resource_report(sched9, 2).oracle_depth == 20

    def test_accounting_random_schedules(self):
        rng = np.random.default_rng(77)
        inst = make_instance(0.3)
        for _ in range(20):
            strategy = rng.choice(["full_parallel", "full_sequential", "general"])
            K = int(rng.integers(1, 8))
            kwargs = dict(strategy=str(strategy), k_max=K,
                          nu_variant=str(rng.choice(["optimized", "theoretical"])),
                          nu_final=int(rng.integers(3, 20)))
            if strategy == "general":
                kwargs["parallelism"] = int(2 ** rng.integers(0, K))
            sched = build_schedule(**kwargs)
            assert all(st.p * st.t * st.s == st.m for st in sched)
            est, report, counts = run(inst, sched, seed=int(rng.integers(1 << 30)),
                                      backend="ideal")
            expected = 2 * sum(st.nu * st.p * st.s * st.l for st in sched)
            assert report.n_queries == expected
            assert query_count(sched) == expected
            nu = np.array([[st.nu] for st in sched])
            assert counts.shape == (K, 2) and ((0 <= counts) & (counts <= nu)).all()

    def test_strategy_equivalence_under_shared_seeds(self):
        # in the ideal backend both strategies sample identical probability
        # sequences, so shared seeds give identical counts and estimates
        inst = make_instance(math.sin(math.pi / 8) ** 2)
        seq = build_schedule(strategy="full_sequential", k_max=6)
        par = build_schedule(strategy="full_parallel", k_max=6)
        est_s, _, counts_s = run(inst, seq, seed=42, backend="ideal")
        est_p, _, counts_p = run(inst, par, seed=42, backend="ideal")
        assert np.array_equal(counts_s, counts_p)
        assert est_s.phi_hat == est_p.phi_hat

    def test_backend_guard(self):
        sched = build_schedule(strategy="full_sequential", k_max=2)
        with pytest.raises(DomainError):
            run(make_instance(0.5), sched, seed=1, backend="imaginary")

    def test_capacity_error_propagates(self, refused_allocation):
        from pae.circuit import CapacityError
        sched = build_schedule(strategy="full_parallel", k_max=5,
                               l_table=PARALLEL_L_TABLE_PLUS[:5])
        with pytest.raises(CapacityError):
            run(make_instance(0.5, n=11), sched, seed=1, backend="statevector")
        assert refused_allocation == []

    def test_analytic_backend_estimates(self):
        sched = build_schedule(strategy="full_parallel", k_max=5,
                               l_table=PARALLEL_L_TABLE_PLUS[:5])
        inst = make_instance(math.sin(math.pi / 8) ** 2)
        errs = [abs(run(inst, sched, seed=s, backend="analytic")[0].a_hat - inst.a)
                for s in range(4)]
        assert np.mean(errs) <= 0.05

    def test_full_sequential_k9_analytic(self):
        # K=9 needs T=256 at L=710: synthesis used to hang from T=64 (K=7)
        # and overflow from T=128 (K=8)
        sched = build_schedule(strategy="full_sequential", k_max=9)
        assert (sched.steps[-1].t, sched.steps[-1].l) == (256.0, 710)
        inst = make_instance(math.sin(math.pi / 8) ** 2)
        est, _, counts = run(inst, sched, seed=3, backend="analytic")
        assert counts.shape == (9, 2)
        assert abs(est.a_hat - inst.a) <= 0.01

    def test_statevector_probability_of_one(self):
        # at a = 0.5 the full state used to give the PLUS setting a parity
        # probability of 1 + 1.1e-15, which the binomial draw rejects
        sched = build_schedule(strategy="full_parallel", k_max=3)
        inst = make_instance(0.5)
        probs = step_probabilities(inst, sched, "statevector")
        assert ((probs >= 0.0) & (probs <= 1.0)).all()
        est, _, counts = run(inst, sched, seed=9, backend="statevector")
        assert counts.shape == (3, 2) and 0.0 <= est.a_hat <= 1.0

    def test_width_and_layers(self):
        sched = build_schedule(strategy="full_parallel", k_max=7,
                               l_table=PARALLEL_L_TABLE_PLUS[:7])
        report = resource_report(sched, 2)
        assert report.width == 64 * 3
        assert report.ghz_layers == 6


class TestTwoPhases:
    @pytest.mark.parametrize("backend,strategy", [("ideal", "full_sequential"),
                                                  ("analytic", "full_parallel"),
                                                  ("statevector", "full_parallel")])
    def test_run_is_sampling_of_step_probabilities(self, backend, strategy):
        sched = build_schedule(strategy=strategy, k_max=3,
                               l_table=PARALLEL_L_TABLE_PLUS[:3])
        inst = make_instance(0.3)
        probs = step_probabilities(inst, sched, backend)
        assert probs.shape == (3, 2)
        for seed in (1, 2, 3):
            est, _, counts = run(inst, sched, seed=seed, backend=backend)
            sampled, sampled_counts = sample_and_recover(sched, probs, seed)
            assert sampled == est and np.array_equal(sampled_counts, counts)

    @pytest.mark.parametrize("seed,trials,message", [
        ([1, 2], None, "single seed"),
        (np.array([3]), 4, "single seed"),
        (1, 0, "trials must be >= 1"),
        (1, -2, "trials must be >= 1"),
        # a float count used to reach binomial's shape as a bare TypeError
        (1, 2.5, "^trials must be an integer, got 2.5$"),
    ])
    def test_sampler_rejects_seed_vectors_and_empty_batches(self, seed, trials, message):
        # default_rng would take a seed list as entropy for one stream
        sched = build_schedule(strategy="full_sequential", k_max=2)
        probs = step_probabilities(make_instance(0.3), sched, "ideal")
        with pytest.raises(DomainError, match=message):
            sample_and_recover(sched, probs, seed, trials)

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (4, 1), (5, 2)])
    def test_sampler_rejects_probabilities_of_another_shape(self, shape):
        # the first three used to be broadcast to every step without a word
        sched = build_schedule(strategy="full_sequential", k_max=4)
        with pytest.raises(DomainError, match=r"must have shape \(4, 2\), got "
                           + re.escape(str(shape))):
            sample_and_recover(sched, np.full(shape, 0.5), 1)

    @pytest.mark.parametrize("ks", [(1, 3), (1, 1)])
    def test_sampler_rejects_steps_out_of_order(self, ks):
        # at a = 0.3 these recovered a_hat 0.103 and 0.404 without a word:
        # recovery reads the rows as steps 1..K
        sched = [ScheduleStep(k=k, p=1, t=float(2 ** (k - 1)), s=1, nu=1000, l=10) for k in ks]
        probs = step_probabilities(make_instance(0.3), sched, "ideal")
        with pytest.raises(DomainError, match=re.escape(
                f"numbered 1..2 in order, got k = {list(ks)}")):
            sample_and_recover(sched, probs, 7)

    def test_sampler_rejects_empty_schedule(self):
        # the empty shot array used to reach binomial as floats: a bare TypeError
        with pytest.raises(DomainError, match="^a run needs at least one step"):
            sample_and_recover([], np.zeros((0, 2)), 1)

    def test_sampler_accepts_seed_sequence(self):
        sched = build_schedule(strategy="full_sequential", k_max=3)
        probs = step_probabilities(make_instance(0.3), sched, "ideal")
        est, single = sample_and_recover(sched, probs, np.random.SeedSequence(9))
        again, single_again = sample_and_recover(sched, probs, np.random.SeedSequence(9))
        assert est == again and np.array_equal(single, single_again)
        _, counts = sample_and_recover(sched, probs, np.random.SeedSequence(9), trials=3)
        assert np.array_equal(counts[0], single)

    @pytest.mark.parametrize("backend,strategy", [("ideal", "full_sequential"),
                                                  ("analytic", "full_parallel")])
    def test_single_run_is_trial_zero_of_a_batch(self, backend, strategy):
        # one sampler path: a single run's counts and estimate are trial 0
        # of the batch at its seed, bit for bit, with float fields
        def bits(x):
            return np.float64(x).tobytes()

        sched = build_schedule(strategy=strategy, k_max=5,
                               l_table=PARALLEL_L_TABLE_PLUS[:5])
        probs = step_probabilities(make_instance(0.3), sched, backend)
        for seed in (0, 7, 2024):
            est, counts = sample_and_recover(sched, probs, seed)
            batch, batch_counts = sample_and_recover(sched, probs, seed, trials=13)
            assert counts.shape == (5, 2) and np.array_equal(counts, batch_counts[0])
            assert isinstance(est.a_hat, float) and isinstance(est.phi_hat, float)
            assert all(isinstance(t, float) for t in est.trajectory)
            assert bits(est.a_hat) == bits(batch.a_hat[0])
            assert bits(est.phi_hat) == bits(batch.phi_hat[0])
            assert [bits(t) for t in est.trajectory] == [bits(t[0]) for t in batch.trajectory]

    def test_statevector_builds_one_oracle_per_instance(self, monkeypatch):
        # one oracle per instance and call, one stage call per register size
        # of a mixed batch, asking it for every distinct (t, l) once; every
        # row equals the per-setting route bit for bit
        from pae import MeasurementSetting, ParallelCircuit
        built, stages = [], []

        def counting(log, fn):
            def wrapper(*args, **kwargs):
                log.append(args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(circuit, "build_explicit_oracle",
                            counting(built, circuit.build_explicit_oracle))
        monkeypatch.setattr(circuit, "statevector_stage",
                            counting(stages, circuit.statevector_stage))
        sched = build_schedule(strategy="general", k_max=4, parallelism=2)
        insts = [make_instance(0.3, 3), make_instance(0.5, 2), make_instance(0.8, 3)]
        probs = step_probabilities(insts, sched, "statevector")
        assert len(built) == len(insts)
        distinct_tl = list(dict.fromkeys((st.t, st.l) for st in sched))
        assert len(distinct_tl) < sched.K
        assert sorted(len(wq) for _, wq in stages) == [1, 2]
        for requests, _ in stages:
            assert [(spec.T, spec.L) for spec, _ in requests] == distinct_tl
        for inst, rows in zip(insts, probs):
            for st, row in zip(sched, rows):
                pc = ParallelCircuit(P=st.p, spec=synthesize_shifter(st.t, st.l),
                                     S=st.s, instance=inst)
                assert row.tolist() == [circuit.statevector_even_parity_probability(
                    pc, setting) for setting in MeasurementSetting]

    def test_statevector_builds_each_size_when_its_group_runs(self, monkeypatch):
        # a register size's blocks are built only after the stage of the
        # size before it ran, so two sizes' blocks are never held at once
        events = []
        for name in ("controlled_grover_blocks", "statevector_stage"):
            def recording(*args, _name=name, _fn=getattr(circuit, name)):
                events.append(_name)
                return _fn(*args)
            monkeypatch.setattr(circuit, name, recording)
        sched = build_schedule(strategy="general", k_max=4, parallelism=2)
        insts = [make_instance(0.3, 2), make_instance(0.5, 3), make_instance(0.8, 2)]
        step_probabilities(insts, sched, "statevector")
        assert events == ["controlled_grover_blocks", "statevector_stage"] * 2

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_one_synthesis_batch_precedes_every_stage(self, backend, monkeypatch):
        # every distinct (t, l) of the steps, repeats and repetition counts
        # included, in one batch, before the first stage or oracle
        events = []
        batch = qsp.synthesize_shifters

        def recording(keys):
            keys = list(keys)
            events.append(("synthesize_shifters", keys))
            return batch(keys)

        monkeypatch.setattr(qsp, "synthesize_shifters", recording)
        for name in ("controlled_grover_blocks", "analytic_stage", "statevector_stage"):
            def stage(*args, _name=name, _fn=getattr(circuit, name)):
                events.append((_name, None))
                return _fn(*args)
            monkeypatch.setattr(circuit, name, stage)
        steps = [ScheduleStep(k=k, p=p, t=t, s=s, nu=1, l=l)
                 for k, p, t, s, l in ((1, 1, 1.0, 1, 10), (2, 2, 1.0, 1, 12), (2, 1, 1.0, 2, 10),
                                       (3, 1, 4.0, 1, 22), (3, 4, 1.0, 1, 10))]
        step_probabilities([make_instance(0.3, 2), make_instance(0.6, 3)], steps, backend)
        assert events[0] == ("synthesize_shifters", [(1.0, 10), (1.0, 12), (4.0, 22)])
        assert [name for name, _ in events].count("synthesize_shifters") == 1

    def test_statevector_guard_precedes_synthesis(self, monkeypatch):
        # a batch the guard refuses synthesizes nothing
        def refuse(keys):
            raise AssertionError("synthesize_shifters called past the guard")

        monkeypatch.setattr(qsp, "synthesize_shifters", refuse)
        sched = build_schedule(strategy="full_sequential", k_max=3)
        with pytest.raises(circuit.CapacityError):
            step_probabilities([make_instance(0.3, 11)], sched, "statevector")

    def test_statevector_guard_precedes_any_work(self, refused_allocation):
        # an n = 2 amplitude fits, but one of n = 11 (five blocks of 2^24
        # complex entries) refuses the whole batch before any oracle is
        # built or any shifter applied
        sched = build_schedule(strategy="full_sequential", k_max=7)
        with pytest.raises(circuit.CapacityError,
                           match="^statevector blocks at n = 11 for 1 amplitude need 1.25 GiB, "
                                 "over the 1 GiB guard$"):
            step_probabilities([make_instance(0.3, 2), make_instance(0.3, 11)], sched,
                               "statevector")
        assert refused_allocation == []

    def test_statevector_guard_counts_blocks_and_adjoints(self, refused_allocation):
        # the guard charges each amplitude's block and its adjoint, whatever
        # the query length: at n = 10 one amplitude fits even at T = 64
        # (L = 188), and seven amplitudes, 17 blocks of 2048^2 complex
        # entries, are refused before any work
        sched = build_schedule(strategy="full_sequential", k_max=7)
        assert sched.steps[-1].l == 188
        circuit.check_capacity([10])
        with pytest.raises(circuit.CapacityError,
                           match="at n = 10 for 7 amplitudes need 1.06 GiB"):
            step_probabilities([make_instance(0.1 * i, 10) for i in range(7)], sched,
                               "statevector")
        assert refused_allocation == []

    def test_statevector_full_sequential_at_n8(self):
        # T = 64 (L = 188) around 512 x 512 blocks: the dense stacks that
        # the guard used to charge for 2 L rotations came to 1.47 GiB
        sched = build_schedule(strategy="full_sequential", k_max=7)
        assert (sched.steps[-1].t, sched.steps[-1].l) == (64.0, 188)
        insts = [make_instance(a, 8) for a in (0.3, 0.8)]
        pv = step_probabilities(insts, sched, "statevector")
        pa = step_probabilities(insts, sched, "analytic")
        assert np.max(np.abs(pv - pa)) <= 1e-10

    def test_statevector_full_parallel_at_256_branches(self):
        # 3 * 256 qubits, far past any full register
        sched = build_schedule(strategy="full_parallel", k_max=9,
                               l_table=PARALLEL_L_TABLE_PLUS)
        insts = [make_instance(a, 2) for a in (0.1, 0.5, 0.9)]
        pv = step_probabilities(insts, sched, "statevector")
        pa = step_probabilities(insts, sched, "analytic")
        assert np.max(np.abs(pv - pa)) <= 1e-10

    def test_statevector_mixed_register_sizes_equal_separate_calls(self):
        sched = build_schedule(strategy="general", k_max=4, parallelism=2)
        insts = [make_instance(0.3, 2), make_instance(0.3, 3), make_instance(0.8, 2)]
        probs = step_probabilities(insts, sched, "statevector")
        for inst, rows in zip(insts, probs):
            assert np.array_equal(rows, step_probabilities(inst, sched, "statevector"))

    def test_statevector_empty_batch(self):
        sched = build_schedule(strategy="general", k_max=4, parallelism=2)
        assert step_probabilities([], sched, "statevector").shape == (0, sched.K, 2)

    def test_analytic_empty_batch(self):
        sched = build_schedule(strategy="general", k_max=4, parallelism=2)
        assert step_probabilities([], sched, "analytic").shape == (0, sched.K, 2)

    @pytest.mark.parametrize("backend", ["analytic", "statevector", "ideal"])
    def test_empty_schedule(self, backend, refused_allocation):
        # no step, nothing to contract: an empty table, and no oracle built
        insts = [make_instance(0.3, 2), make_instance(0.8, 3)]
        assert step_probabilities(insts, [], backend).shape == (2, 0, 2)
        assert step_probabilities(insts[0], [], backend).shape == (0, 2)
        assert refused_allocation == []

    def test_shared_blocks_equal_per_step_rows(self):
        # steps with the same (t, l) share one stage call: every row equals
        # the step's own stage call at its s contracted for its p, bit for
        # bit
        sched = build_schedule(strategy="full_parallel", k_max=9,
                               l_table=PARALLEL_L_TABLE_PLUS)
        insts = [make_instance(float(a)) for a in np.linspace(0.0, 1.0, 101)]
        thetas = [inst.theta for inst in insts]
        probs = step_probabilities(insts, sched, "analytic")
        for i, st in enumerate(sched):
            blocks = circuit.analytic_stage([(synthesize_shifter(st.t, st.l), [st.s])], thetas)[0]
            rows = circuit.parity_probabilities(blocks[st.s][None], [st.p])[0]
            assert np.array_equal(probs[:, i], rows)

    @pytest.mark.parametrize("backend", ["analytic", "statevector", "ideal"])
    def test_repeated_steps_are_evaluated_once(self, backend, monkeypatch):
        # a repeated step reads its first occurrence's column: the table of
        # a schedule passed twice is two copies of its own table, and the
        # work is that of one copy, one stage call asking each distinct
        # (t, l) once for the powers of its steps
        calls = {"oracle": 0, "blocks": 0, "shifters": 0}
        requested = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name != "oracle":
                    requested.append([(spec.T, spec.L, set(ss)) for spec, ss in args[0]])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(circuit, "build_explicit_oracle",
                            counted("oracle", circuit.build_explicit_oracle))
        monkeypatch.setattr(circuit, "analytic_stage",
                            counted("blocks", circuit.analytic_stage))
        monkeypatch.setattr(circuit, "statevector_stage",
                            counted("shifters", circuit.statevector_stage))
        sched = build_schedule(strategy="general", k_max=4, parallelism=2)
        insts = [make_instance(0.3, 3), make_instance(0.8, 3)]
        once = step_probabilities(insts, sched, backend)
        calls.update(oracle=0, blocks=0, shifters=0)
        requested.clear()
        twice = step_probabilities(insts, list(sched) * 2, backend)
        assert np.array_equal(twice, np.concatenate([once, once], axis=1))
        distinct_tl = list(dict.fromkeys((st.t, st.l) for st in sched))
        assert len(distinct_tl) < sched.K
        assert calls == {"oracle": len(insts) if backend == "statevector" else 0,
                         "blocks": 1 if backend == "analytic" else 0,
                         "shifters": 1 if backend == "statevector" else 0}
        expected = [(t, l, {st.s for st in sched if (st.t, st.l) == (t, l)})
                    for t, l in distinct_tl]
        assert requested == ([expected] if backend != "ideal" else [])

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_repetition_counts_share_one_shifter(self, backend, monkeypatch):
        # general P=4, K=7: steps (8, 34, S=1) and (8, 34, S=2) share one
        # shifter, asked for the powers {1, 2} in the run's one stage call:
        # the certified row raised in closed form per S, or one pass of the
        # shifter to S = 2.  No shifter is multiplied out layer by layer,
        # all steps are contracted in one call, and every row equals its
        # own step's batch-of-one stage call at its S contracted for its p,
        # bit for bit
        stage = f"{backend}_stage"
        calls = {"rotation_product": 0, stage: 0, "parity_probabilities": 0}
        powers = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == stage:
                    powers.extend((spec.T, set(ss)) for spec, ss in args[0])
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            module = qsp if name == "rotation_product" else circuit
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        sched = build_schedule(strategy="general", k_max=7, parallelism=4)
        insts = [make_instance(a, 3) for a in (0.0, 0.3, 0.8)]
        probs = step_probabilities(insts, sched, backend)
        distinct_tl = len({(st.t, st.l) for st in sched})
        assert (distinct_tl, len({(st.t, st.l, st.s) for st in sched})) == (4, 5)
        assert calls == {"rotation_product": 0, stage: 1, "parity_probabilities": 1}
        assert powers == [(1.0, {1}), (2.0, {1}), (4.0, {1}), (8.0, {1, 2})]
        operand = ([inst.theta for inst in insts] if backend == "analytic"
                   else circuit.controlled_grover_blocks(insts))
        for i, st in enumerate(sched):
            spec = synthesize_shifter(st.t, st.l)
            blocks = getattr(circuit, stage)([(spec, [st.s])], operand)[0]
            assert np.array_equal(probs[:, i],
                                  circuit.parity_probabilities(blocks[st.s][None], [st.p])[0])

    @pytest.mark.parametrize("backend,contractions", [("analytic", 1), ("statevector", 2)])
    def test_one_contraction_per_register_size(self, backend, contractions, monkeypatch):
        # a batch mixing n = 3, 2, 3 is one stage call and one contraction
        # of every step on the analytic backend, and one of each per
        # register size on the statevector one: each stage call asks for
        # every distinct (t, l), each contraction is a stack of the
        # distinct (p, t, s, l)
        stacks, stages = [], []
        contract, stage = circuit.parity_probabilities, getattr(circuit, f"{backend}_stage")

        def recording(blocks, P):
            stacks.append((blocks.shape[0], list(P)))
            return contract(blocks, P)

        def staging(requests, operand):
            stages.append([(spec.T, spec.L) for spec, _ in requests])
            return stage(requests, operand)

        monkeypatch.setattr(circuit, "parity_probabilities", recording)
        monkeypatch.setattr(circuit, f"{backend}_stage", staging)
        sched = build_schedule(strategy="general", k_max=5, parallelism=2)
        keys = list(dict.fromkeys((st.p, st.t, st.s, st.l) for st in sched))
        insts = [make_instance(0.3, 3), make_instance(0.5, 2), make_instance(0.8, 3)]
        step_probabilities(insts, sched, backend)
        assert stacks == [(len(keys), [p for p, _, _, _ in keys])] * contractions
        assert stages == [list(dict.fromkeys((t, l) for _, t, _, l in keys))] * contractions

    @staticmethod
    def pinned_table_digest(backend: str) -> str:
        # steps raised to S up to 16, (t, l) shared across s and p, and one
        # batch mixing register sizes
        insts = [make_instance(a, n) for a, n in ((0.0, 2), (0.3, 3), (0.8, 2), (1.0, 3))]
        digest = hashlib.sha256()
        for sched in (build_schedule(strategy="general", k_max=7, parallelism=2, t_cap=2),
                      build_schedule(strategy="general", k_max=7, parallelism=4),
                      build_schedule(strategy="full_parallel", k_max=5,
                                     l_table=PARALLEL_L_TABLE_PLUS)):
            digest.update(step_probabilities(insts, sched, backend).tobytes())
        return digest.hexdigest()[:16]

    def test_probability_table_pinned(self):
        # a change that moves any analytic probability, even at rounding
        # level, shows here
        assert self.pinned_table_digest("analytic") == "d42c33b3d7b959d0"

    def test_statevector_probability_table_pinned(self):
        # the same table on the statevector backend, pinned apart so that a
        # change to its arithmetic alone moves only this digest
        assert self.pinned_table_digest("statevector") == "eaa56912c376f862"

    @pytest.mark.parametrize("backend", ["analytic", "statevector", "ideal"])
    @pytest.mark.parametrize("m,p,s", [(1, 1, 0), (1, 1, -1), (4, 1, 1), (1, -1, -1),
                                       (0, 0, 1)])
    def test_impossible_step_is_refused(self, backend, m, p, s, refused_allocation,
                                        monkeypatch):
        # s = 0 used to give the identity shifter's probabilities, s = -1
        # the inverse shifter's, and m = 4 with p t s = 1 a different step
        # on each backend; now the step refuses to exist (k = 3 for m = 4,
        # k = 0 for m = 0), naming the count it refuses, and a lazily made
        # schedule fails inside step_probabilities before the valid step
        # ahead of it is synthesized or any oracle is built
        def refuse(*args):
            refused_allocation.append("synthesize_shifters")
            raise AssertionError("synthesize_shifters called past the check")

        monkeypatch.setattr(qsp, "synthesize_shifters", refuse)
        k = m.bit_length()
        message = {(1, 1, 0): "step 1: repetition count must be >= 1, got 0",
                   (1, 1, -1): "step 1: repetition count must be >= 1, got -1",
                   (4, 1, 1): "step 3: P*T*S = 1*1*1 must equal 2^(k-1) = 4",
                   (1, -1, -1): "step 1: branch count must be >= 1, got -1",
                   (0, 0, 1): "step index must be >= 1, got 0"}[m, p, s]
        message = f"^{re.escape(message)}$"
        with pytest.raises(DomainError, match=message):
            ScheduleStep(k=k, p=p, t=1.0, s=s, nu=1, l=10)
        steps = (ScheduleStep(k=k_, p=p_, t=1.0, s=s_, nu=1, l=10)
                 for k_, p_, s_ in ((1, 1, 1), (k, p, s)))
        with pytest.raises(DomainError, match=message):
            step_probabilities(make_instance(0.3), steps, backend)
        assert refused_allocation == []

    def test_ideal_column_equals_setting_probability(self):
        # bit for bit against the scalar closed form of each setting
        def scalar_closed_form(m, phi):
            angle = m * phi
            return [(1.0 + math.cos(angle)) / 2.0, (1.0 + math.sin(angle)) / 2.0]

        sched = build_schedule(strategy="full_parallel", k_max=9)
        insts = [make_instance(float(a)) for a in np.linspace(0.0, 1.0, 101)]
        probs = step_probabilities(insts, sched, "ideal")
        for inst, rows in zip(insts, probs):
            for st, row in zip(sched, rows):
                assert row.tolist() == scalar_closed_form(st.m, inst.phi)

    def test_seeded_stream_is_unchanged(self):
        # counts recorded when the stream became one generator per trial
        # seed with one binomial draw over the (K, 2) probabilities
        sched = build_schedule(strategy="full_sequential", k_max=4)
        inst = make_instance(0.3)
        est, _, counts = run(inst, sched, seed=11, backend="ideal")
        assert [(st.k, st.nu) for st in sched] == [(1, 19), (2, 15), (3, 11), (4, 7)]
        assert counts.tolist() == [[18, 16], [8, 15], [0, 8], [7, 5]]
        assert est.a_hat == 0.29099759082922905
        nu = np.array([[st.nu] for st in sched])
        direct = np.random.default_rng(11).binomial(
            nu, step_probabilities(inst, sched, "ideal"))
        assert np.array_equal(direct, counts)
        sched = build_schedule(strategy="full_parallel", k_max=4,
                               l_table=PARALLEL_L_TABLE_PLUS[:4])
        est, _, counts = run(make_instance(math.sin(math.pi / 8) ** 2), sched,
                             seed=5, backend="analytic")
        assert [(st.k, st.nu) for st in sched] == [(1, 19), (2, 15), (3, 11), (4, 7)]
        assert counts.tolist() == [[9, 19], [0, 11], [11, 2], [5, 0]]
        assert est.a_hat == 0.14373543519220755


class TestHlReference:
    def test_values(self):
        assert hl_reference(2) == pytest.approx(math.pi / 2)
        assert hl_reference(1001) == pytest.approx(math.pi / 2000)

    def test_monotone(self):
        vals = [hl_reference(n) for n in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            hl_reference(1)


class TestTheoremResources:
    def test_sequential_limit_depth(self):
        # P = 1: the deepest step folds the full multiplier into T*S
        eps = 0.1
        K = math.ceil(math.log2(1 / eps)) + 6
        n, depth = theorem_resources(eps, 1)
        sched = build_schedule(strategy="general", k_max=K, parallelism=1,
                               nu_variant="theoretical")
        assert depth == max(st.s * st.l for st in sched)
        assert depth >= 2 ** (K - 1) // 8       # Theta(1/eps) oracle depth

    def test_parallel_limit_depth(self):
        # P = 2^(K-1): strength stays 1, depth is a constant plus GHZ layers
        eps = 0.1
        K = math.ceil(math.log2(1 / eps)) + 6
        n, depth = theorem_resources(eps, 2 ** (K - 1))
        assert depth == select_L_empirical(1.0) + (K - 1)

    def test_query_total_matches_schedule(self):
        n, _ = theorem_resources(0.05, 4)
        sched = build_schedule(strategy="general", k_max=11, parallelism=4,
                               nu_variant="theoretical")
        assert n == query_count(sched)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_target_error_outside_unit_interval(self, eps):
        with pytest.raises(DomainError,
                           match=f"^target error must lie in \\(0, 1\\), got {eps}$"):
            theorem_resources(eps, 1)
