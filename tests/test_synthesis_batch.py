"""One batch synthesizes every shifter of a run: each spec is bit for bit
the one its key gets alone, a failing key fails the batch as it fails
alone, and the batch shares the peel's layers and the product tree's
levels of all its shifters."""

import contextlib
import inspect
import math
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pae import (PARALLEL_L_TABLE_PLUS, DomainError, SynthesisError,  # noqa: E402
                 select_L_empirical, solve_angles, synthesize_shifter, synthesize_shifters)
from pae import qsp  # noqa: E402

LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
PLUS = [(1.0, L) for L in sorted(set(PARALLEL_L_TABLE_PLUS))]
# the calibrated lengths of the ladder, the plus lengths at T = 1, and two
# strengths whose peel cuts its core: T = 160 at L = 450 and T = 256 at its
# calibrated 710 peel cores of degree 224 and 354
KEYS = ([(float(T), select_L_empirical(T)) for T in LADDER] + PLUS
        + [(160.0, 450), (256.0, select_L_empirical(256.0))])


@contextlib.contextmanager
def cold_cache():
    """Run the block on an empty shifter cache, putting the old one back."""
    kept = dict(qsp._shifter_cache)
    qsp._shifter_cache.clear()
    try:
        yield qsp._shifter_cache
    finally:
        qsp._shifter_cache.clear()
        qsp._shifter_cache.update(kept)


_alone = {}


def alone(key):
    """The key synthesized by itself on a cold cache, once per session."""
    if key not in _alone:
        with cold_cache():
            _alone[key] = synthesize_shifter(*key)
    return _alone[key]


def same_bits(a, b):
    # the row is what the analytic stage evaluates
    return (a.T == b.T and a.L == b.L and a.angles.xi.tobytes() == b.angles.xi.tobytes()
            and a.angles.row.tobytes() == b.angles.row.tobytes()
            and a.angles.residual == b.angles.residual and a.eps_oc == b.eps_oc)


def test_cut_cores_are_drawn():
    # the two strong keys reach the peel's shorter core
    for T, L in KEYS[-2:]:
        p = qsp.complete_target([qsp.truncate_target(T, qsp._solve_length(T, L))])[0]
        assert len(qsp._complemented_cores([p])[0]) < len(p)


@settings(max_examples=25, deadline=None)
@given(keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=8),
       cached=st.lists(st.sampled_from(KEYS), max_size=3))
def test_batch_equals_each_key_alone(keys, cached):
    # random order, repeats, and some keys cached before the batch: every
    # spec has the bits of its key alone, and a key met twice, or cached,
    # is one shared object
    with cold_cache() as cache:
        before = {key: synthesize_shifter(*key) for key in cached}
        specs = synthesize_shifters(keys)
        assert list(specs) == list(dict.fromkeys(keys))
        for key, spec in specs.items():
            assert same_bits(spec, alone(key)), key
            assert cache[key] is spec
            if key in before:
                assert spec is before[key]
        again = synthesize_shifters(list(reversed(keys)))
        assert all(again[key] is specs[key] for key in keys)


def test_one_row_stacks_give_the_same_bits(monkeypatch):
    # the plus keys share the 1024- and 2048-point grids, the ladder keys
    # (whose T = 1 key is the plus table's (1.0, 10)) some of theirs, and
    # T = 160 peels a cut core: with every transform cut down to one row
    # the batch makes more calls, and every spec keeps its bits
    keys = PLUS + [(float(T), select_L_empirical(T)) for T in LADDER[1:]] + [(160.0, 450)]
    for key in keys:
        alone(key)
    ranks = counted_rfft(monkeypatch)
    with cold_cache():
        stacked = synthesize_shifters(keys)
    calls = len(ranks)
    monkeypatch.setattr(qsp, "_STACK_BYTES", 1)
    with cold_cache():
        one_row = synthesize_shifters(keys)
    assert len(ranks) - calls > calls
    for key in keys:
        assert same_bits(stacked[key], alone(key)), key
        assert same_bits(one_row[key], alone(key)), key


def test_empty_batch():
    assert synthesize_shifters([]) == {}
    assert solve_angles([], []) == []


def test_solve_angles_batch_equals_each_target_alone():
    # the public solver takes the same lists: a whole core, one padded up
    # to a longer sequence and a cut one
    targets = [qsp.complete_target([qsp.truncate_target(T, L)])[0]
               for T, L in ((8.0, 34), (1.0, 10), (256.0, 710))]
    lengths = [34, 20, 710]
    alone = [solve_angles([p], [L])[0] for p, L in zip(targets, lengths)]
    batch = solve_angles(targets, lengths)
    assert [s.xi.tobytes() for s in batch] == [s.xi.tobytes() for s in alone]
    assert [s.residual for s in batch] == [s.residual for s in alone]


def counted_rfft(monkeypatch):
    """Count the calls of ``np.fft.rfft``, recording each input's rank."""
    rfft, ranks = np.fft.rfft, []

    def counting(a, *args, **kwargs):
        ranks.append(np.ndim(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return ranks


class TestFailureInABatch:
    @pytest.mark.parametrize("bad", [(1.0, 11), (1.0, 1), (1.0, 0), (0.0, 10), (0, 10),
                                     (math.nan, 10), (-2.0, 14), (math.inf, 14)])
    def test_bad_key_raises_as_alone_before_any_transform(self, bad, monkeypatch):
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        with pytest.raises(DomainError) as alone_err:
            synthesize_shifter(*bad)
        ranks = counted_rfft(monkeypatch)
        with pytest.raises(DomainError) as batch_err:
            synthesize_shifters([PLUS[0], (48.0, 146), bad, PLUS[1]])
        assert str(batch_err.value) == str(alone_err.value)
        assert ranks == [] and qsp._shifter_cache == {}

    def test_failing_complement_names_its_shifter(self):
        # |P|^2 = 1.28 at pi/2, so no complement exists: the residual, the
        # only gate, refuses the middle target of a batch between two good
        # ones, with its index and the message it gets alone
        good = qsp.complete_target([qsp.truncate_target(8.0, 34)])[0]
        bad = np.array([0.05, -0.4, 0.9, 0.4, 0.05])     # A = (0.9, 0, 0.1), C = (0, 0.8, 0)
        with pytest.raises(SynthesisError) as alone_err:
            solve_angles([bad], [4])
        with pytest.raises(SynthesisError) as batch_err:
            solve_angles([good, bad, good], [34, 4, 34])
        assert batch_err.value.target == 1
        assert str(batch_err.value) == str(alone_err.value)
        assert str(alone_err.value).startswith("angles miss the target: residual 0.392, ")

    def test_first_failing_key_in_batch_order_is_named(self, monkeypatch):
        # a negative tolerance refuses every length before any work: the
        # batch names its first key, (8.0, 34), as alone
        monkeypatch.setattr(qsp, "_RESIDUAL_TOL", -1.0)
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        keys = [(8.0, 34), (1.0, 10), (1.0, 12), (4.0, 22)]
        with pytest.raises(SynthesisError) as alone_err:
            synthesize_shifter(*keys[0])
        with pytest.raises(SynthesisError) as batch_err:
            synthesize_shifters(keys)
        assert str(batch_err.value) == str(alone_err.value)
        assert str(batch_err.value).startswith("shifter T=8.0, L=34 (solve length 34): "
                                               "angles miss the target: residual")
        assert qsp._shifter_cache == {}

    def test_failing_truncation_or_completion_names_the_first_key(self, monkeypatch):
        # (0.5, 2) fails its completion and (100.0, 10) its truncation: the
        # batch truncates before it completes, and still names the first
        # failing key in batch order, as alone
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        alone_errors = {}
        for key in ((0.5, 2), (100.0, 10)):
            with pytest.raises(SynthesisError) as err:
                synthesize_shifter(*key)
            alone_errors[key] = str(err.value)
        for keys in ([(0.5, 2), (100.0, 10)], [(1.0, 10), (100.0, 10), (0.5, 2)]):
            with pytest.raises(SynthesisError) as err:
                synthesize_shifters(keys)
            first = next(key for key in keys if key in alone_errors)
            assert str(err.value) == alone_errors[first]
        assert qsp._shifter_cache == {}

    def test_failing_residual_names_its_shifter(self, monkeypatch):
        # peeled angles that miss only at length 34, each moved by 1e-3,
        # fail the residual after the peel, and the batch with that key's
        # name, as it fails alone
        peel = qsp._solve_layer_peel
        monkeypatch.setattr(qsp, "_solve_layer_peel", lambda rows, lengths: [
            xi + 1e-3 if len(xi) == 34 else xi for xi in peel(rows, lengths)])
        monkeypatch.setattr(qsp, "_shifter_cache", {})
        with pytest.raises(SynthesisError) as alone_err:
            synthesize_shifter(8.0, 34)
        with pytest.raises(SynthesisError) as batch_err:
            synthesize_shifters([(1.0, 10), (8.0, 34), (4.0, 22)])
        assert str(batch_err.value) == str(alone_err.value)
        assert str(alone_err.value).startswith(
            "shifter T=8.0, L=34 (solve length 34): angles miss")


def peel_layers_and_tree_levels(monkeypatch, synthesize):
    """Run ``synthesize()`` and count the peel's layer iterations, the lines
    ``r += step`` executed in ``_solve_layer_peel``, and the product tree's
    levels: its direct levels, the calls of ``_direct_products``, and its
    transform pairs, the real FFTs of its rank-3 stacks."""
    lines, first = inspect.getsourcelines(qsp._solve_layer_peel)
    step_line = first + [line.strip() for line in lines].index("r += step")
    code, layers = qsp._solve_layer_peel.__code__, []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == step_line:
            layers.append(1)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    direct, direct_levels = qsp._direct_products, []

    def counting(left, right):
        direct_levels.append(left.shape[2])
        return direct(left, right)

    monkeypatch.setattr(qsp, "_direct_products", counting)
    ranks = counted_rfft(monkeypatch)
    monkeypatch.setattr(qsp, "_shifter_cache", {})
    sys.settrace(tracer)
    try:
        synthesize()
    finally:
        sys.settrace(None)
    return len(layers), len(direct_levels), ranks.count(3)


def test_batch_shares_layers_and_levels(monkeypatch):
    # the six plus shifters peel 10 + 12 + ... + 20 = 90 layers and take
    # 4 + 4 + 4 + 4 + 5 + 5 = 26 tree levels one at a time, the four of
    # widths 2 to 9 direct and the fifth, at 18 and 20 factors, one
    # transform pair; as one batch the longest sets both, 20 layers and 5
    # levels, 4 direct and 1 transform pair
    alone_counts = [peel_layers_and_tree_levels(monkeypatch,
                                                lambda key=key: synthesize_shifter(*key))
                    for key in PLUS]
    layers, direct, fft = (sum(c) for c in zip(*alone_counts))
    assert [layers, direct + fft] == [90, 26]
    assert (direct, fft) == (24, 2)
    assert peel_layers_and_tree_levels(monkeypatch,
                                       lambda: synthesize_shifters(PLUS)) == (20, 4, 1)


def misaligned_copy(xi, offset):
    """A copy of ``xi`` that starts ``offset`` bytes into a fresh buffer."""
    raw = np.zeros(8 * len(xi) + offset, np.uint8)
    copy = raw[offset:].view(np.float64)
    copy[:] = xi
    return copy


@pytest.mark.parametrize("L", [10, 34, 146])
def test_product_row_bits_do_not_depend_on_the_batch(L):
    # a sequence's row has the same bits alone, between a longer and a
    # shorter sequence, which change every level's stack, and from copies
    # of its angles 8 and 1 bytes off alignment: a level whose sums went
    # through BLAS, blocked by the stack's size, would fail here
    rng = np.random.default_rng(L)
    xi = rng.uniform(-np.pi, np.pi, L)
    longer, shorter = rng.uniform(-np.pi, np.pi, 4 * L), rng.uniform(-np.pi, np.pi, 4)
    want = [row.tobytes() for row in qsp._product_row([xi])[0]]
    rows = [qsp._product_row([longer, xi, shorter])[1],
            qsp._product_row([shorter, longer, xi])[2]]
    for offset in (8, 1):
        copy = misaligned_copy(xi, offset)
        assert copy.ctypes.data % 16 != 0 and np.array_equal(copy, xi)
        rows.append(qsp._product_row([copy])[0])
    for row in rows:
        assert [part.tobytes() for part in row] == want
