"""Instances, the noisy channel, query accounting, and the determinism contract."""

import math
import multiprocessing
import os
import pickle
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyquery import harness, oracles
from noisyquery.errors import ContractViolation
from noisyquery.oracles import (
    _BLOCK,
    _BUF_CAP,
    _PREFIX,
    _PREFIX_LEN,
    _REPORTS,
    _REPORTS_CAP,
    _SET_UP,
    _block_states,
    _generator,
    _lattice,
    _margins,
    BitInstance,
    NoisyOracle,
    StopReport,
    TrialDraws,
    ValueInstance,
    make_instance_max,
    make_instance_or,
)
from noisyquery.primitives import check_bit, check_bit_log, noisy_compare, noisy_compare_log, vote_threshold_log
from recording import RecordingOracle, ScriptedOracle


class TestInstances:
    def test_bit_truth(self):
        assert BitInstance(bits=(0, 0, 0)).truth() == 0
        assert BitInstance(bits=(0, 1, 0)).truth() == 1

    def test_bit_validation(self):
        with pytest.raises(ContractViolation):
            BitInstance(bits=())
        with pytest.raises(ContractViolation):
            BitInstance(bits=(0, 2))

    def test_value_truth_is_argmax(self):
        assert ValueInstance(values=(2.5, 7.0, -1.0)).truth() == 2

    def test_value_ties_rejected(self):
        with pytest.raises(ContractViolation):
            ValueInstance(values=(1.0, 2.0, 1.0))

    def test_value_needs_entries(self):
        with pytest.raises(ContractViolation):
            ValueInstance(values=())

    def test_value_nan_rejected(self):
        # NaN compares false both ways, so it would leave the argmax undefined;
        # infinities are ordered and stay allowed.
        for values in [(math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(ContractViolation):
                ValueInstance(values=values)
        assert ValueInstance(values=(1.0, math.inf)).truth() == 2
        assert ValueInstance(values=(1.0, -math.inf)).truth() == 1


class TestInstanceFactories:
    def test_all_zero(self):
        assert make_instance_or("all_zero", 3).bits == (0, 0, 0)

    def test_single_one(self):
        assert make_instance_or("single_one", 3, index=2).bits == (0, 1, 0)

    def test_literal_bits(self):
        assert make_instance_or("literal", bits=(1, 1, 0)).bits == (1, 1, 0)

    def test_single_one_range(self):
        with pytest.raises(ContractViolation):
            make_instance_or("single_one", 3, index=4)

    @pytest.mark.parametrize(
        "make, family, kwargs, reason",
        [
            (make_instance_or, "all_zero", {"n": None}, "all_zero requires n >= 1, got None"),
            (make_instance_or, "all_zero", {"n": 0}, "all_zero requires n >= 1, got 0"),
            (make_instance_or, "single_one", {"n": None, "index": 1}, "single_one requires n >= 1, got None"),
            (make_instance_or, "single_one", {"n": 0, "index": 1}, "single_one requires n >= 1, got 0"),
            (make_instance_or, "literal", {}, "literal requires bits"),
            (make_instance_max, "sorted", {"n": 0}, "sorted requires n >= 1, got 0"),
            (make_instance_max, "permuted", {"n": 0, "seed": 1}, "permuted requires n >= 1, got 0"),
            (make_instance_max, "permuted", {"n": 3}, "permuted requires a seed"),
            (make_instance_max, "literal", {}, "literal requires values"),
        ],
    )
    def test_refuses_a_missing_size_or_payload(self, make, family, kwargs, reason):
        with pytest.raises(ContractViolation, match=f"^{re.escape(reason)}$"):
            make(family, **kwargs)

    def test_sorted(self):
        inst = make_instance_max("sorted", 4)
        assert inst.values == (1.0, 2.0, 3.0, 4.0)
        assert inst.truth() == 4

    def test_relocated(self):
        inst = make_instance_max("relocated", 4, index=2)
        assert inst.values == (1.0, 4.0, 2.0, 3.0)
        assert inst.truth() == 2

    def test_relocated_range(self):
        with pytest.raises(ContractViolation):
            make_instance_max("relocated", 4, index=4)

    def test_unknown_family(self):
        with pytest.raises(ContractViolation):
            make_instance_or("mystery", 3)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50)
    def test_permuted_is_permutation(self, n, seed):
        inst = make_instance_max("permuted", n, seed=seed)
        assert sorted(inst.values) == [float(k) for k in range(1, n + 1)]
        assert inst.values[inst.truth() - 1] == float(n)

    def test_permuted_deterministic(self):
        a = make_instance_max("permuted", 50, seed=9)
        b = make_instance_max("permuted", 50, seed=9)
        assert a.values == b.values

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40)
    def test_relocated_truth_everywhere(self, n, i):
        if n < 2 or i > n - 1:
            return
        inst = make_instance_max("relocated", n, index=i)
        assert inst.truth() == i


class TestChannelContracts:
    @pytest.mark.parametrize("p", [-0.1, 0.0, 0.5, 0.7])
    def test_p_range(self, p):
        with pytest.raises(ContractViolation):
            NoisyOracle(BitInstance(bits=(1,)), p)

    def test_noiseless_reads_exact(self):
        oracle = ScriptedOracle(BitInstance(bits=(1, 0)))
        assert [oracle.read_bit(1), oracle.read_bit(2)] == [1, 0]

    def test_index_range(self):
        oracle = NoisyOracle(BitInstance(bits=(1, 0)), 0.25)
        with pytest.raises(ContractViolation):
            oracle.read_bit(0)
        with pytest.raises(ContractViolation):
            oracle.read_bit(3)

    def test_compare_contracts(self):
        oracle = ScriptedOracle(ValueInstance(values=(1.0, 2.0)))
        assert oracle.compare(1, 2) is True
        assert oracle.compare(2, 1) is False
        with pytest.raises(ContractViolation):
            oracle.compare(1, 1)
        with pytest.raises(ContractViolation):
            oracle.compare(1, 3)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_answer_types(self, noisy):
        # A bit read answers 0 or 1 as an int, a comparison as a bool,
        # whatever the flip buffer holds.
        make = (lambda instance: NoisyOracle(instance, 0.25, 3)) if noisy else ScriptedOracle
        bits = make(BitInstance(bits=(1, 0)))
        values = make(ValueInstance(values=(1.0, 2.0)))
        for _ in range(600):  # past the first refill
            assert type(bits.read_bit(1)) is int and type(bits.read_bit(2)) is int
            assert type(values.compare(1, 2)) is bool and type(values.compare(2, 1)) is bool

    def test_model_mismatch(self):
        bit_oracle = NoisyOracle(BitInstance(bits=(1,)), 0.25)
        with pytest.raises(ContractViolation):
            bit_oracle.compare(1, 2)
        value_oracle = NoisyOracle(ValueInstance(values=(1.0, 2.0)), 0.25)
        with pytest.raises(ContractViolation):
            value_oracle.read_bit(1)


class TestScriptedFlips:
    def test_scripted_flip_on_zero_bit(self):
        oracle = ScriptedOracle(BitInstance(bits=(0,)), [True])
        assert oracle.read_bit(1) == 1
        assert oracle.queries == 1

    def test_scripted_compare(self):
        oracle = ScriptedOracle(ValueInstance(values=(1.0, 2.0)), [True])
        assert oracle.compare(1, 2) is False

    def test_script_consumed_in_order(self):
        oracle = ScriptedOracle(BitInstance(bits=(0, 0)), [True, False, True])
        assert [oracle.read_bit(1), oracle.read_bit(2), oracle.read_bit(1)] == [1, 0, 1]
        assert oracle.read_bit(1) == 0  # no flip past the script


class TestQueryCount:
    def test_every_query_counted_once(self):
        oracle = RecordingOracle(BitInstance(bits=(0, 1, 0)), 0.25, master_seed=5)
        for _ in range(4):
            oracle.read_bit(1)
        oracle.read_bit(3)
        assert oracle.walks == [(1, None, 1, 1)] * 4 + [(3, None, 1, 1)]
        assert oracle.queries == 5
        oracle = RecordingOracle(ValueInstance(values=(1.0, 2.0, 3.0)), 0.25, master_seed=5)
        oracle.compare(1, 2)
        oracle.compare(2, 1)
        oracle.compare(3, 1)
        assert oracle.walks == [(1, 2, 1, 1), (2, 1, 1, 1), (3, 1, 1, 1)]
        assert oracle.queries == 3

    @pytest.mark.parametrize("n", [4, 1000])
    def test_count_after_mixed_walks(self, n):
        # Walks in both orders of a pair, then one single comparison, at n = 1000 too.
        rng = np.random.default_rng(n)
        oracle = NoisyOracle(make_instance_max("permuted", n, seed=1), 0.3, master_seed=2)
        expected = 0
        for _ in range(200):
            i, j = (int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
            expected += oracle.walk(i, j, int(rng.integers(1, 8)))[1]
        oracle.compare(n, 1)
        assert oracle.queries == expected + 1

    def test_counted_even_when_flipped(self):
        oracle = ScriptedOracle(BitInstance(bits=(0,)), [True, True])
        assert [oracle.read_bit(1), oracle.read_bit(1)] == [1, 1]
        assert oracle.queries == 2


class TestChannelStatistics:
    def test_bit_flip_rate_calibration(self):
        # 10^6 reads of a fixed bit at p = 0.25; flip frequency within
        # 3 sigma = 3 sqrt(p(1-p)/N) of p.
        n_reads = 1_000_000
        oracle = NoisyOracle(BitInstance(bits=(1, 0)), 0.25, master_seed=123, trial_index=0)
        flips = 0
        for _ in range(n_reads):
            flips += oracle.read_bit(1) == 0
        rate = flips / n_reads
        sigma = math.sqrt(0.25 * 0.75 / n_reads)
        assert abs(rate - 0.25) < 3 * sigma

    def test_compare_rate_calibration(self):
        # values[2] < values[3] is true, so the true-rate should be 1 - p.
        n_reads = 100_000
        oracle = NoisyOracle(
            ValueInstance(values=(3.0, 1.0, 2.0)), 0.1, master_seed=77, trial_index=0
        )
        trues = sum(oracle.compare(2, 3) for _ in range(n_reads))
        rate = trues / n_reads
        sigma = math.sqrt(0.9 * 0.1 / n_reads)
        assert abs(rate - 0.9) < 4 * sigma

    def test_low_p_calibration(self):
        n_reads = 200_000
        oracle = NoisyOracle(BitInstance(bits=(0,)), 0.05, master_seed=3, trial_index=1)
        flips = sum(oracle.read_bit(1) for _ in range(n_reads))
        sigma = math.sqrt(0.05 * 0.95 / n_reads)
        assert abs(flips / n_reads - 0.05) < 4 * sigma


class TestDeterminism:
    def _transcript(self, seed, trial, count=400):
        oracle = NoisyOracle(BitInstance(bits=(0, 1)), 0.3, master_seed=seed, trial_index=trial)
        return [oracle.read_bit(1 + (k % 2)) for k in range(count)]

    def test_replay_is_bit_identical(self):
        assert self._transcript(9, 4) == self._transcript(9, 4)

    def test_trials_are_distinct_streams(self):
        assert self._transcript(9, 4) != self._transcript(9, 5)
        assert self._transcript(9, 4) != self._transcript(10, 4)

    def test_trial_order_does_not_matter(self):
        # Build oracles in scrambled creation order; per-trial streams are unchanged.
        forward = {t: self._transcript(1, t, 50) for t in range(6)}
        scrambled = {}
        for t in (3, 0, 5, 2, 4, 1):
            scrambled[t] = self._transcript(1, t, 50)
        assert forward == scrambled

    def test_prefix_replay_stability(self):
        # Consuming a prefix never changes later draws: reading 100 then 300
        # more equals reading 400 in one go.
        oracle_a = NoisyOracle(BitInstance(bits=(0,)), 0.3, master_seed=2, trial_index=7)
        first = [oracle_a.read_bit(1) for _ in range(400)]
        oracle_b = NoisyOracle(BitInstance(bits=(0,)), 0.3, master_seed=2, trial_index=7)
        prefix = [oracle_b.read_bit(1) for _ in range(100)]
        rest = [oracle_b.read_bit(1) for _ in range(300)]
        assert prefix + rest == first

    def test_algorithm_rng_independent_of_channel(self):
        oracle_a = NoisyOracle(BitInstance(bits=(0,)), 0.3, master_seed=2, trial_index=7)
        draws_before = oracle_a.algorithm_rng.random(5).tolist()
        oracle_b = NoisyOracle(BitInstance(bits=(0,)), 0.3, master_seed=2, trial_index=7)
        for _ in range(250):
            oracle_b.read_bit(1)
        draws_after = oracle_b.algorithm_rng.random(5).tolist()
        assert draws_before == draws_after

    # The seed and trial of each case come from one key tuple of the kinds
    # SeedSequence splits differently: one word, a word's edge, several words.
    KEY_TUPLES = [(0,), (2**32 - 1,), (2**32,), (2**64 + 5,), (0, 0, 0), (7, 2**32 - 1, 1), (2**40 + 3, 0, 2**33), (5, 2**70, 0)]
    EDGE_TRIALS = [0, 1, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2**32 - _BLOCK, 2**32 - 1, 2**32, 2**32 + _BLOCK, 2**64 + 5, 2**70]

    @staticmethod
    def _assert_row_is_seed_sequence(seed, trial, stream):
        expected = np.random.SeedSequence((seed, trial, stream)).generate_state(4, np.uint64)
        row = _block_states(seed, stream, trial // _BLOCK)[trial % _BLOCK]
        assert row.dtype == np.uint64
        assert row.tolist() == expected.tolist(), (seed, trial, stream)

    @pytest.mark.numpy_mirror
    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("keys", KEY_TUPLES)
    def test_block_row_matches_seed_sequence(self, keys, stream):
        self._assert_row_is_seed_sequence(keys[0], keys[1] if len(keys) > 1 else keys[0], stream)

    @pytest.mark.numpy_mirror
    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("seed", [0, 9, 2**32, 2**64 + 5, 2**70])
    def test_block_rows_match_at_block_and_word_edges(self, seed, stream):
        for trial in self.EDGE_TRIALS:
            self._assert_row_is_seed_sequence(seed, trial, stream)

    @pytest.mark.numpy_mirror
    def test_every_row_of_a_block_matches(self):
        block = 2**22 + 3  # its indices take two words each
        table = _block_states(41, 1, block)
        assert table.shape == (_BLOCK, 4)
        for b in range(_BLOCK):
            expected = np.random.SeedSequence((41, block * _BLOCK + b, 1)).generate_state(4, np.uint64)
            assert table[b].tolist() == expected.tolist(), b

    @pytest.mark.numpy_mirror
    @given(
        seed=st.integers(min_value=0, max_value=2**80),
        trial=st.one_of(st.integers(min_value=0, max_value=4 * _BLOCK), st.integers(min_value=0, max_value=2**80)),
        stream=st.sampled_from([0, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_row_matches_seed_sequence_for_any_key(self, seed, trial, stream):
        self._assert_row_is_seed_sequence(seed, trial, stream)

    @pytest.mark.numpy_mirror
    @pytest.mark.parametrize("seed, trial", [(3, _BLOCK + 7), (2**33, 2**32)])
    def test_both_streams_are_the_seed_sequence_generators(self, seed, trial):
        oracle = NoisyOracle(BitInstance(bits=(0,)), 0.3, master_seed=seed, trial_index=trial)
        for stream, rng in enumerate([_generator(seed, trial, 0), oracle.algorithm_rng]):
            expected = np.random.default_rng(np.random.SeedSequence((seed, trial, stream))).random(16)
            assert rng.random(16).tolist() == expected.tolist()

    def test_a_stream_pickles(self):
        rng = NoisyOracle(BitInstance(bits=(0,)), 0.3, master_seed=4, trial_index=9).algorithm_rng
        copy = pickle.loads(pickle.dumps(rng))
        assert copy.random(8).tolist() == rng.random(8).tolist()

    @pytest.mark.numpy_mirror
    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (3, -(2**40)), (-(2**40), 5)])
    def test_negative_seed_or_trial_is_refused_before_any_draw(self, seed, trial, monkeypatch):
        # SeedSequence refuses the key, and so does the mirror's generator;
        # a trial's draws refuse it as a caller's fault, before they build one.
        with pytest.raises(ValueError):
            np.random.SeedSequence((seed, trial, 0))
        with pytest.raises(ValueError):
            _generator(seed, trial, 0)
        monkeypatch.setattr(oracles, "_generator", None)  # a draw would raise TypeError
        message = f"seed and trial must be non-negative, got {seed} and {trial}"
        for build in [
            lambda: TrialDraws(seed, trial),
            lambda: NoisyOracle(BitInstance(bits=(0,)), 0.3, master_seed=seed, trial_index=trial),
            lambda: next(TrialDraws.block(seed, trial, trial + 1, [0.3])),
        ]:
            with pytest.raises(ContractViolation) as refused:
                build()
            assert str(refused.value) == message

    @pytest.mark.numpy_mirror
    def test_negative_block_key_is_refused(self):
        for key in [(-1, 0, 0), (0, 0, -1)]:
            with pytest.raises(ValueError):
                _block_states(*key)

    @pytest.mark.numpy_mirror
    @pytest.mark.parametrize("seed, trial, p", [(0, 0, 0.25), (9, 4, 0.1), (2**33, 7, 0.45)])
    def test_flip_stream_is_the_generator_stream(self, seed, trial, p):
        # Pins the channel independently of its chunking: answer t of a
        # 0-bit is flip t of one uninterrupted draw of doubles.
        n = 40_000
        oracle = NoisyOracle(BitInstance(bits=(0,)), p, master_seed=seed, trial_index=trial)
        flips = np.random.default_rng(np.random.SeedSequence((seed, trial, 0))).random(n) < p
        assert [oracle.read_bit(1) for _ in range(n)] == flips.astype(int).tolist()

    def test_flip_rate_unaffected_by_buffer_boundaries(self):
        # The growth schedule of the internal noise buffer must not skew
        # flips near refill points; compare two read counts bracketing one.
        first = _PREFIX[0]
        a = NoisyOracle(BitInstance(bits=(0,)), 0.25, master_seed=41, trial_index=0)
        seq = [a.read_bit(1) for _ in range(first + 66)]
        b = NoisyOracle(BitInstance(bits=(0,)), 0.25, master_seed=41, trial_index=0)
        assert [b.read_bit(1) for _ in range(first)] == seq[:first]
        assert [b.read_bit(1) for _ in range(66)] == seq[first:]


@given(bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=32))
@settings(max_examples=40, deadline=None)
def test_noiseless_channel_reads_truth(bits):
    oracle = ScriptedOracle(BitInstance(bits=tuple(bits)))
    observed = [oracle.read_bit(i) for i in range(1, len(bits) + 1)]
    assert observed == list(bits)


# ---------------------------------------------------------------------------
# NoisyOracle.walk against the loop of single queries it replaces
# ---------------------------------------------------------------------------

BIT_INSTANCE = BitInstance(bits=(0, 1, 0, 1))
VALUE_INSTANCE = ValueInstance(values=(3.0, 1.0, 4.0, 2.0))
# Refill boundaries of the flip stream: shared chunks of 128, 448 and 4096
# flips, then private chunks of 8192; the last two are private refills.
REFILL_AT = (128, 128 + 448, 128 + 448 + 4096, 128 + 448 + 4096 + 8192, 128 + 448 + 4096 + 2 * 8192)


def _loop_walk(oracle, i, j, k):
    """The reference: one read_bit/compare call per query until |net vote| = k."""
    d = t = 0
    while -k < d < k:
        t += 1
        answer = oracle.read_bit(i) if j is None else oracle.compare(i, j)
        d += 1 if answer else -1
    return d > 0, t


def _twins(instance, p=0.25, seed=0, trial=0):
    return NoisyOracle(instance, p, seed, trial), NoisyOracle(instance, p, seed, trial)


def _place(oracle, flips):
    """Moves a fresh oracle to flip ``flips``, where that many single queries leave it: on a chunk's end, not refilled."""
    while flips > len(oracle._buf):
        flips -= len(oracle._buf)
        oracle._refill()
    oracle._pos = flips


def _single(oracle, j):
    return oracle.read_bit(1) if j is None else oracle.compare(1, 2)


def _assert_walks_match(fast, slow, walks):
    """Run the same (i, j, k) walks on both twins; returns the query count after each."""
    totals = []
    for i, j, k in walks:
        assert fast.walk(i, j, k) == _loop_walk(slow, i, j, k)
        assert fast.queries == slow.queries
        totals.append(fast.queries)
    # Both twins left the flip stream at the same position.
    j = walks[-1][1]
    assert [_single(fast, j) for _ in range(3)] == [_single(slow, j) for _ in range(3)]
    return totals


class TestWalkMatchesQueryLoop:
    @pytest.mark.parametrize("k", [1, 2, 5, 60])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_walks(self, k, seed):
        fast, slow = _twins(BIT_INSTANCE, 0.3, seed, 4)
        _assert_walks_match(fast, slow, [(1 + w % 4, None, k) for w in range(40)])

    @pytest.mark.parametrize("k", [1, 2, 5, 60])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_compare_walks(self, k, seed):
        pairs = [(1, 2), (2, 1), (3, 4), (4, 1), (2, 3)]
        fast, slow = _twins(VALUE_INSTANCE, 0.3, seed, 4)
        _assert_walks_match(fast, slow, [(*pairs[w % 5], k) for w in range(40)])

    @pytest.mark.parametrize("instance, j", [(BIT_INSTANCE, None), (VALUE_INSTANCE, 3)])
    def test_long_walks_straddle_every_refill(self, instance, j):
        # K = 150 at p = 0.4 takes ~750 queries a walk, so walks cross each boundary.
        fast, slow = _twins(instance, 0.4, 11, 2)
        walks = [(1, j, 150)] * 90
        totals = _assert_walks_match(fast, slow, walks)
        starts = [0] + totals[:-1]
        for boundary in REFILL_AT:
            assert any(s < boundary < e for s, e in zip(starts, totals)), boundary

    @pytest.mark.parametrize("boundary", (0, *REFILL_AT))
    @pytest.mark.parametrize("k", [1, 2, 150])
    @pytest.mark.parametrize("j", [None, 2])
    def test_walks_starting_and_ending_at_a_refill(self, boundary, k, j):
        # Both twins of a trial are put a lead of flips before a refill
        # edge; walks then start at it, end on it, or cross it.  Edge 0 is a
        # fresh oracle, which has no draws yet.  One more trial and lead are
        # found at which the first walk ends on the edge, which a walk of k
        # or more flips can do only at an edge at least k flips in.
        instance = BIT_INSTANCE if j is None else VALUE_INSTANCE
        cases = [(0, 0)] if boundary == 0 else [(lead, lead) for lead in range(12)]  # (trial, lead)
        if k <= boundary:
            leads = range(k, min(boundary, 3 * k + 12) + 1, 2)  # a walk's flips have k's parity
            ending = ((t, lead) for t in range(50) for lead in leads if self._ends_on(instance, j, k, boundary, t, lead))
            cases.append(next(ending))
        for trial, lead in cases:
            fast, slow = _twins(instance, 0.25, 5, trial)
            _place(fast, boundary - lead)
            _place(slow, boundary - lead)
            _assert_walks_match(fast, slow, [(1, j, k)] * 4)

    @staticmethod
    def _ends_on(instance, j, k, boundary, trial, lead):
        probe = NoisyOracle(instance, 0.25, 5, trial)
        _place(probe, boundary - lead)
        return probe.walk(1, j, k).queries_used == lead

    @pytest.mark.parametrize("k, p", [(600, 0.02), (600, 0.05), (5000, 0.02), (5000, 0.05), (9000, 0.02)])
    @pytest.mark.parametrize("instance, j", [(BIT_INSTANCE, None), (VALUE_INSTANCE, 3)])
    def test_walks_longer_than_a_buffer(self, k, p, instance, j):
        # One jump of k flips spans the 128- and 448-flip first chunks, at
        # K = 5000 a 4096-flip one too, and at K = 9000 an 8192-flip one.
        fast, slow = _twins(instance, p, 13, 6)
        walks = [(1, j, k)] * (2 if k == 600 else 5)
        totals = _assert_walks_match(fast, slow, walks)
        assert totals[0] >= k
        if k >= 5000:
            assert totals[0] > REFILL_AT[2] and totals[-1] > REFILL_AT[3]
        if k == 9000:
            assert totals[-1] > REFILL_AT[4]

    @pytest.mark.parametrize("boundary", REFILL_AT[:2])
    @pytest.mark.parametrize("j", [None, 2])
    def test_jump_landing_on_the_end_of_the_buffer(self, boundary, j):
        # From margin 0 the first jump takes k flips, so a walk started k
        # flips before a boundary lands exactly on it; it either stops there
        # (no refill) or goes on into the next buffer.
        instance = BIT_INSTANCE if j is None else VALUE_INSTANCE
        k = 3
        outcomes = set()
        for trial in range(16):
            fast, slow = _twins(instance, 0.25, 9, trial)
            for _ in range(boundary - k):
                assert _single(fast, j) == _single(slow, j)
            totals = _assert_walks_match(fast, slow, [(1, j, k), (1, j, k)])
            outcomes.add(totals[0] == boundary)
        assert outcomes == {True, False}

    @given(
        p=st.sampled_from([0.05, 0.25, 0.45]),
        seed=st.integers(min_value=0, max_value=2**20),
        walks=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(1, 40)), min_size=1, max_size=25
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_walk_sequences(self, p, seed, walks):
        bit_walks = [(i, None, k) for i, _, k in walks]
        _assert_walks_match(*_twins(BIT_INSTANCE, p, seed), bit_walks)
        cmp_walks = [(i, j, k) for i, j, k in walks if j not in (0, i)]
        if cmp_walks:
            _assert_walks_match(*_twins(VALUE_INSTANCE, p, seed), cmp_walks)


class TestWalkScriptedAndNoiseless:
    @pytest.mark.parametrize("instance, j", [(BIT_INSTANCE, None), (VALUE_INSTANCE, 2)])
    def test_scripted_walk_takes_exactly_its_answers(self, instance, j):
        # The truth is 0 (False) for both queries, so each answer is its flip.
        flips = [True, False, False, True, False, False, True, True, True]
        fast, slow = ScriptedOracle(instance, flips), ScriptedOracle(instance, flips)
        # Net votes +1 0 -1 0 -1 -2: absorbed at -2 after six answers.
        assert fast.walk(1, j, 2) == _loop_walk(slow, 1, j, 2) == (False, 6)
        assert fast.queries == slow.queries == 6
        assert _single(fast, j) == _single(slow, j) == 1  # the next answer read is flip 6

    @pytest.mark.parametrize("k", [1, 9, 600])  # 600 > the 128- and 448-flip first chunks
    def test_noiseless_walk_takes_exactly_k(self, k):
        oracle = ScriptedOracle(BIT_INSTANCE)
        assert oracle.walk(2, None, k) == (True, k)
        assert oracle.walk(1, None, k) == (False, k)
        assert oracle.queries == 2 * k
        oracle = ScriptedOracle(VALUE_INSTANCE)
        assert oracle.walk(2, 4, k) == (True, k)
        assert oracle.walk(4, 2, k) == (False, k)
        assert oracle.queries == 2 * k


class TestWalkContracts:
    @pytest.mark.parametrize(
        "instance, i, j, k",
        [
            (BIT_INSTANCE, 0, None, 3),  # bit index below range
            (BIT_INSTANCE, 5, None, 3),  # bit index above range
            (BIT_INSTANCE, 1, 2, 3),  # comparison on a bit instance
            (BIT_INSTANCE, 1, 0, 3),  # 0 is an index out of range, not a bit read
            (VALUE_INSTANCE, 1, None, 3),  # bit read on a value instance
            (VALUE_INSTANCE, 1, 0, 3),  # pair out of range
            (VALUE_INSTANCE, 2, 2, 3),  # i == j
            (VALUE_INSTANCE, 1, 5, 3),  # pair out of range
            (VALUE_INSTANCE, -1, 2, 3),  # pair out of range
            (BIT_INSTANCE, 1, None, 0),  # vote threshold below 1
            (VALUE_INSTANCE, 1, 2, 0),  # vote threshold below 1
        ],
    )
    def test_bad_arguments_raise_before_anything_moves(self, instance, i, j, k):
        oracle, fresh = _twins(instance, 0.25, 3, 1)
        with pytest.raises(ContractViolation):
            oracle.walk(i, j, k)
        assert oracle.queries == 0
        j_ok = None if isinstance(instance, BitInstance) else 2
        assert [_single(oracle, j_ok) for _ in range(5)] == [_single(fresh, j_ok) for _ in range(5)]

    def test_same_messages_as_single_queries(self):
        bits, values = NoisyOracle(BIT_INSTANCE, 0.25), NoisyOracle(VALUE_INSTANCE, 0.25)
        for walk, single in [
            (lambda: bits.walk(9, None, 2), lambda: bits.read_bit(9)),
            (lambda: bits.walk(1, 2, 2), lambda: bits.compare(1, 2)),
            (lambda: values.walk(1, None, 2), lambda: values.read_bit(1)),
            (lambda: values.walk(1, 0, 2), lambda: values.compare(1, 0)),
            (lambda: values.walk(3, 3, 2), lambda: values.compare(3, 3)),
            (lambda: values.walk(1, 7, 2), lambda: values.compare(1, 7)),
        ]:
            with pytest.raises(ContractViolation) as from_walk:
                walk()
            with pytest.raises(ContractViolation) as from_single:
                single()
            assert str(from_walk.value) == str(from_single.value)


# ---------------------------------------------------------------------------
# Runs of walks at one threshold against an independent referee
# ---------------------------------------------------------------------------

PAIRS = [(1, 2), (2, 1), (3, 4), (4, 1), (2, 3)]


def _referee(instance, p, seed, trial, ops):
    """Expected (decision, queries) of each op, and the queries of all of them; uses no oracle code.

    An op is (i, j, k): a walk, or a single query when k is None.  Flip t
    of the channel is draw t of default_rng(SeedSequence((seed, trial, 0)))
    .random(...) < p, and a walk takes answers one at a time until its
    net vote reaches +k or -k.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial, 0)))
    flips: list[bool] = []
    pos = 0
    results = []
    for i, j, k in ops:
        if j is None:
            truth = instance.bits[i - 1] == 1
        else:
            truth = instance.values[i - 1] < instance.values[j - 1]
        d = t = 0
        while -(k or 1) < d < (k or 1):
            if pos == len(flips):
                flips.extend((rng.random(1 << 16) < p).tolist())  # the same stream drawn in blocks
            d += 1 if truth != flips[pos] else -1
            pos += 1
            t += 1
        results.append((d > 0, t))
    return results, pos


def _assert_matches_referee(instance, p, seed, trial, ops, named=False, draws=None):
    """Runs ``ops`` on a fresh oracle, single queries through read_bit/compare; returns the referee's results.

    With ``named``, each stretch of walks at one k is named as a run and
    its walks are taken in turn.  ``draws`` is a TrialDraws to share.
    """
    oracle = NoisyOracle(instance, p, seed, trial, draws)
    ops = list(ops) + [(1, None if isinstance(instance, BitInstance) else 2, None)] * 3  # where the stream is left
    expected, queries = _referee(instance, p, seed, trial, ops)
    totals = np.cumsum([t for _, t in expected]).tolist()
    n = 0
    while n < len(ops):
        i, j, k = ops[n]
        end = n + 1
        if k is None:
            got = [(bool(oracle.read_bit(i) if j is None else oracle.compare(i, j)), 1)]
        elif named:
            while end < len(ops) and ops[end][2] == k:
                end += 1
            run = ops[n:end]
            oracle.name_run(np.array([w[0] for w in run]), None if j is None else np.array([w[1] for w in run]), k)
            got = []
            for w, (i, j, _) in enumerate(run):
                report = oracle.take(i, j)
                assert type(report.decision) is (int if j is None else bool)
                assert oracle.queries == totals[n + w], (n + w, (i, j, k))
                got.append((bool(report.decision), report.queries_used))
            assert not oracle.pending
        else:
            got = [oracle.walk(i, j, k)]
        assert got == expected[n:end], (n, (i, j, k))
        assert oracle.queries == totals[end - 1]
        n = end
    assert oracle.queries == queries
    return expected


def _read_past_the_prefix(instance, p, seed, trial):
    """A TrialDraws whose prefix another oracle, at crossover p, has read to its end and past."""
    draws = TrialDraws(seed, trial)
    reader = NoisyOracle(instance, p, seed, trial, draws)
    while reader.queries <= _PREFIX_LEN:
        reader.walk(*_run(instance, 7, 1)[0])
    return draws


def _run(instance, k, count, start=0):
    """``count`` walks at threshold k over varying indices (or pairs)."""
    if isinstance(instance, BitInstance):
        return [(1 + (start + w) % 4, None, k) for w in range(count)]
    return [(*PAIRS[(start + w) % 5], k) for w in range(count)]


def _single_op(instance):
    return (2, None, None) if isinstance(instance, BitInstance) else (3, 4, None)


_CHANNELS = [BIT_INSTANCE, VALUE_INSTANCE]


_SEGMENTS = st.lists(
    st.tuples(
        st.sampled_from(["run", "single", "walk"]),
        st.one_of(st.sampled_from([2, 3, 5, 9, 20, 60, 100]), st.integers(1, 600)),
        st.one_of(st.integers(1, 400), st.sampled_from([100, 400])),
    ),
    min_size=1,
    max_size=12,
)


def _ops(instance, p, segments):
    """Runs of up to 400 walks at one k, broken by single queries and by walks at other thresholds."""
    ops: list = []
    for kind, k, count in segments:
        if kind == "single":
            ops.append(_single_op(instance))
        else:
            # About 12,000 flips a run at most; a lone walk is one walk.
            count = 1 if kind == "walk" else min(count, max(1, int(12_000 * (1 - 2 * p) / k)))
            ops += _run(instance, k, count, start=len(ops))
    return ops


@pytest.fixture(params=[False, True], ids=["alone", "named"])
def named(request):
    """Whether a test's stretches of walks at one k are walked alone or named as runs and taken."""
    return request.param


class TestRunsMatchReferee:
    @given(
        segments=_SEGMENTS,
        instance=st.sampled_from(_CHANNELS),
        p=st.sampled_from([0.02, 0.1, 0.25, 0.33, 0.45]),
        seed=st.integers(0, 2**20),
        named=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_run_sequences(self, segments, instance, p, seed, named):
        _assert_matches_referee(instance, p, seed, 3, _ops(instance, p, segments), named)

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("instance", _CHANNELS)
    @pytest.mark.parametrize(
        "k, p",
        [(1, 0.1), (2, 0.02), (5, 0.25), (9, 0.45), (17, 0.25), (20, 0.25), (60, 0.1), (100, 0.33), (150, 0.25)],
    )
    def test_long_runs_across_every_refill(self, instance, k, p, named, shared):
        flips = k / (1 - 2 * p) * math.tanh(k * math.log((1 - p) / p) / 2)  # a walk's expected flips
        count = int(1.3 * REFILL_AT[-1] / flips) + 1
        draws = _read_past_the_prefix(instance, 0.3, 8, 1) if shared else None
        results = _assert_matches_referee(instance, p, 8, 1, _run(instance, k, count), named, draws)
        assert sum(t for _, t in results) > REFILL_AT[-1]

    @pytest.mark.parametrize("instance", _CHANNELS)
    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_runs_broken_by_single_queries_and_other_thresholds(self, instance, k, named):
        single = _single_op(instance)
        ops = _run(instance, k, 300)
        for w in range(1, 12):
            ops += [single] * (w % 3) + _run(instance, k, 40 * w) + _run(instance, k + w, w % 2)
        _assert_matches_referee(instance, 0.25, 4, 2, ops, named)

    @pytest.mark.parametrize("instance", _CHANNELS)
    @pytest.mark.parametrize("breaker", ["single", "walk"])
    def test_runs_broken_across_a_refill(self, instance, breaker, named):
        # A run is under way when single queries or long walks at another
        # threshold cross the refill at REFILL_AT[2]; the run then resumes.
        ops = _run(instance, 5, 200)
        results, _ = _referee(instance, 0.25, 6, 0, ops)
        before = REFILL_AT[2] - sum(t for _, t in results)
        if breaker == "single":
            ops += [_single_op(instance)] * before
        else:
            ops += _run(instance, 700, 2)
        ops += _run(instance, 5, 400)
        results = _assert_matches_referee(instance, 0.25, 6, 0, ops, named)
        ends = np.cumsum([t for _, t in results])
        assert ends[199] < REFILL_AT[2] <= ends[-404]

    @pytest.mark.parametrize("boundary", REFILL_AT)
    @pytest.mark.parametrize("instance", _CHANNELS)
    def test_runs_starting_on_a_chunk_boundary(self, boundary, instance, named):
        ops = [_single_op(instance)] * boundary + _run(instance, 5, 300)
        _assert_matches_referee(instance, 0.25, 2, 5, ops, named)

    @pytest.mark.parametrize("boundary", REFILL_AT[1:])
    @pytest.mark.parametrize("instance", _CHANNELS)
    def test_runs_ending_on_a_chunk_boundary(self, boundary, instance, named):
        # A run of K = 3 walks starts 300 flips before the boundary; over
        # trials, one of its late walks (one a pass may list) ends exactly on it.
        ops = [_single_op(instance)] * (boundary - 300) + _run(instance, 3, 160)
        hits = 0
        for trial in range(30):
            results, _ = _referee(instance, 0.25, 1, trial, ops)
            ends = np.cumsum([t for _, t in results])[boundary - 300 + 40 :].tolist()
            if boundary in ends:
                hits += 1
                _assert_matches_referee(instance, 0.25, 1, trial, ops + _run(instance, 3, 100), named)
        assert hits >= 3


# ---------------------------------------------------------------------------
# Named runs against twin oracles that walk the same walks one call at a time
# ---------------------------------------------------------------------------


def _spliced(entries, changes):
    """A copy of ``entries`` with entry w set to changes[w]."""
    out = list(entries)
    for w, x in changes.items():
        out[w] = x
    return out


def _name(oracle, walks, k):
    """Names ``walks``, a list of (i, j), as one run at threshold k."""
    oracle.name_run(np.array([i for i, _ in walks]), None if walks[0][1] is None else np.array([j for _, j in walks]), k)


def _assert_run_matches_walks(named, alone, walks, k):
    """Names ``walks`` on one twin and walks them alone on the other; returns the query count after each."""
    _name(named, walks, k)
    totals = []
    for i, j in walks:
        report = named.take(i, j)
        assert report == alone.walk(i, j, k)
        assert named.queries == alone.queries
        totals.append(alone.queries)
    assert not named.pending
    # Both twins left the flip stream at the same position.
    j = walks[0][1]
    assert [_single(named, j) for _ in range(3)] == [_single(alone, j) for _ in range(3)]
    return totals


def _walks(instance, count):
    return [(i, j) for i, j, _ in _run(instance, 1, count)]


class TestNamedRuns:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("instance", _CHANNELS)
    def test_every_threshold_across_the_prefix(self, instance, shared):
        # From K = 1 (one run of about 10,500 walks) to K = 150, each
        # run crosses the refills at 128 and 576 flips, the end of the shared
        # prefix at 4,672 flips, and a refill of the private generator.
        p = 0.25
        for k in range(1, 151):
            flips = k / (1 - 2 * p) * math.tanh(k * math.log((1 - p) / p) / 2)  # a walk's expected flips
            draws = _read_past_the_prefix(instance, 0.1, 4, k) if shared else None
            named, alone = NoisyOracle(instance, p, 4, k, draws), NoisyOracle(instance, p, 4, k)
            totals = _assert_run_matches_walks(named, alone, _walks(instance, int(1.2 * REFILL_AT[3] / flips)), k)
            assert totals[-1] > REFILL_AT[3], k

    @pytest.mark.parametrize("k, p", [(600, 0.02), (5000, 0.02), (5000, 0.05), (9000, 0.02)])
    @pytest.mark.parametrize("instance", _CHANNELS)
    def test_thresholds_beyond_a_chunk(self, instance, k, p):
        named, alone = _twins(instance, p, 13, 6)
        totals = _assert_run_matches_walks(named, alone, _walks(instance, 10 if k == 600 else 5), k)
        assert totals[0] >= k and totals[-1] > REFILL_AT[2 if k < 9000 else 4]

    @pytest.mark.parametrize("boundary", REFILL_AT)
    @pytest.mark.parametrize("instance", _CHANNELS)
    def test_runs_from_just_before_a_refill(self, instance, boundary):
        # Single queries bring both twins to within a few flips of a
        # boundary; a run of walks then starts there and crosses it.  From
        # one flip before it, the first walk of K >= 2 straddles it.
        j = _walks(instance, 1)[0][1]
        for k in (1, 2, 5, 17, 150):
            for lead in range(1, 12):
                named, alone = _twins(instance, 0.25, 5, lead)
                for _ in range(boundary - lead):
                    assert _single(named, j) == _single(alone, j)
                totals = _assert_run_matches_walks(named, alone, _walks(instance, 60), k)
                assert totals[-1] > boundary, (k, lead)
                if k > 1 and lead == 1:
                    assert totals[0] > boundary, k

    @pytest.mark.parametrize("instance", _CHANNELS)
    def test_runs_of_the_algorithms_shapes(self, instance):
        # One index against many (the MAX champion loop), and rounds that
        # halve down to a single match (a tournament), at rising k.
        named, alone = _twins(instance, 0.3, 9, 2)
        if isinstance(instance, BitInstance):
            _assert_run_matches_walks(named, alone, [(2, None)] * 400, 5)
        else:
            _assert_run_matches_walks(named, alone, [(3, u) for u in (1, 2, 4)] * 130, 5)
        for r, k in zip((64, 32, 16, 8, 4, 2, 1), range(7, 100, 14)):
            _assert_run_matches_walks(named, alone, _walks(instance, r), k)

    def test_primitives_take_the_named_walks(self):
        bits, values = RecordingOracle(BIT_INSTANCE, 0.25, 2), RecordingOracle(VALUE_INSTANCE, 0.25, 2)
        _name(bits, [(2, None), (1, None)], 7)
        _name(values, [(1, 2), (3, 4)], 7)
        # The run's threshold stands, whatever tolerance the primitive is given.
        reports = [check_bit(bits, 2, 0.01), check_bit(bits, 1, 1e-20)]
        reports += [noisy_compare(values, 1, 2, 0.01), noisy_compare(values, 3, 4, 1e-20)]
        assert all(type(r) is StopReport for r in reports)
        assert [type(r.decision) for r in reports] == [int, int, bool, bool]
        assert [w[2] for w in bits.walks + values.walks] == [7] * 4
        assert [w[3] for w in bits.walks + values.walks] == [r.queries_used for r in reports]

    @pytest.mark.parametrize("dtype", [np.intp, np.int32, np.uint16, np.uint64])
    @pytest.mark.parametrize("count", [10, 700, 2600])
    def test_a_champion_run_named_from_arrays_is_the_lone_walks(self, count, dtype):
        # The MAX champion comparisons name their run from the index arrays
        # they hold: the champion against each unsampled index, in order.
        # Runs of about 10 walks (each taken by the jump loop, as a run's last 31
        # are), 700 and 2,600, each checked in numpy and read whole.
        champion, rng = 1234, np.random.default_rng(count)
        others = np.flatnonzero(rng.random(3000) < count / 3000) + 1
        others = others[others != champion].astype(dtype)
        named, alone = _twins(make_instance_max("sorted", 3000), 0.25, 7, 3)
        named.name_run(np.full(len(others), champion, dtype=dtype), others, 5)
        for u in others.tolist():
            report = named.take(champion, u)
            assert report == alone.walk(champion, u, 5) and type(report.decision) is bool
            assert named.queries == alone.queries
        assert not named.pending and (named._chunk, named._pos) == (alone._chunk, alone._pos)
        assert [_single(named, 2) for _ in range(3)] == [_single(alone, 2) for _ in range(3)]

    def test_a_batch_gathers_the_shared_reports_by_code(self):
        # Codes up to 16,383 are read off a dense table; past it, built afresh.
        for codes in ([20, 21, 4 * 4095 + 3], [22, 4 * 17_500 + 1, 23]):
            reports = _REPORTS.gather(np.array(codes)[::-1])
            assert reports == [_REPORTS[code] for code in reversed(codes)]
            assert [type(r) for r in reports] == [StopReport] * 3
            assert [type(r.decision) for r in reports] == [bool if c & 2 else int for c in reversed(codes)]
        assert len(_REPORTS._dense) == 1 << 14

    def test_a_code_keeps_one_report_object(self):
        # A code at or past the cap gets a report that is not stored, so the
        # dict never fills up and clears: the dict and the dense table keep
        # one object per code.
        _REPORTS.gather(np.array([401]))
        for code in range(_REPORTS_CAP, 2 * _REPORTS_CAP + 1):
            assert _REPORTS[code] == (bool(code & 1) if code & 2 else code & 1, code >> 2)
        assert _REPORTS[5] is _REPORTS._dense[5]
        assert len(_REPORTS) <= _REPORTS_CAP

    @pytest.mark.parametrize("instance", _CHANNELS)
    def test_log_primitives_walk_alone_and_are_refused_during_a_named_run(self, instance):
        # A tournament match is never a run's walk.  While a run has walks
        # left, walk refuses the _log form, and nothing moves.
        named, alone = RecordingOracle(instance, 0.25, 3, 1), NoisyOracle(instance, 0.25, 3, 1)
        walks = _walks(instance, 3)
        i, j = walks[0]

        def log_walk(oracle):
            if j is None:
                return check_bit_log(oracle, i, -50.0, 0.25)
            return noisy_compare_log(oracle, i, j, -50.0, 0.25)

        _name(named, walks, 4)
        with pytest.raises(ContractViolation, match="named run has 3 walks left"):
            log_walk(named)
        assert named.queries == 0 and len(named.pending) == 3 and named.walks == []
        for a, b in walks:
            assert named.take(a, b) == alone.walk(a, b, 4)
        # With the run over, it walks alone at its own threshold.
        k = vote_threshold_log(0.25, -50.0)
        assert log_walk(named) == alone.walk(i, j, k)
        assert named.walks[-1] == (i, j, k, named.queries - sum(w[3] for w in named.walks[:-1]))


class TestNamedRunContracts:
    @pytest.mark.parametrize("instance", _CHANNELS)
    def test_a_walk_not_next_raises_before_anything_moves(self, instance):
        named, alone = _twins(instance, 0.25, 3, 1)
        walks = _walks(instance, 6)
        _name(named, walks, 4)
        i, j = walks[0]
        assert named.take(i, j) == alone.walk(i, j, 4)
        i, j = walks[1]
        wrong = [
            lambda: named.take(walks[2][0], walks[2][1]),  # a later walk of the run
            lambda: named.take(i, 3 if j is None else None),  # the other channel
            lambda: named.take(1 + i % 4, j),  # another first index
            lambda: named.take(i, 1 + j % 4 if j else 4),  # another second index, or a comparison
            lambda: named.walk(i, j, 4),  # the same walk, alone
            lambda: named.read_bit(1) if j is None else named.compare(1, 2),
            lambda: _name(named, walks, 4),  # another run
        ]
        for call in wrong:
            with pytest.raises(ContractViolation):
                call()
            assert named.queries == alone.queries and len(named.pending) == 5
        for i, j in walks[1:]:
            assert named.take(i, j) == alone.walk(i, j, 4)
            assert named.queries == alone.queries
        with pytest.raises(ContractViolation):
            named.take(i, j)  # the run is over
        assert [_single(named, j) for _ in range(3)] == [_single(alone, j) for _ in range(3)]

    @pytest.mark.parametrize("instance, firsts, seconds", [
        (BIT_INSTANCE, np.empty(0, dtype=np.intp), None),
        (BIT_INSTANCE, np.arange(1, 1), None),
        (VALUE_INSTANCE, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint16)),
    ])
    def test_an_empty_run_is_a_no_op(self, instance, firsts, seconds):
        oracle, fresh = _twins(instance, 0.25, 3, 1)
        oracle.name_run(firsts, seconds, 5)
        assert oracle.queries == 0 and not oracle.pending
        j = None if seconds is None else 2
        assert oracle.walk(1, j, 3) == fresh.walk(1, j, 3)  # a lone walk is not refused
        assert [_single(oracle, j) for _ in range(5)] == [_single(fresh, j) for _ in range(5)]

    @pytest.mark.parametrize(
        "instance, firsts, seconds, k, bad",
        [
            (BIT_INSTANCE, [1, 2], None, 0, None),  # vote threshold below 1
            (VALUE_INSTANCE, [1, 2], [2], 3, None),  # fewer second indices than walks
            (BIT_INSTANCE, [1, 0, 2], None, 3, (0, None)),  # bit index below range
            (BIT_INSTANCE, [1, 2, 5], None, 3, (5, None)),  # bit index above range
            (BIT_INSTANCE, [1, 2], [2, 3], 3, (1, 2)),  # comparisons on a bit instance
            (VALUE_INSTANCE, [1, 2], None, 3, (1, None)),  # bit reads on a value instance
            (VALUE_INSTANCE, [1, 2, 3], [2, 2, 4], 3, (2, 2)),  # i == j
            (VALUE_INSTANCE, [1, 2], [2, 7], 3, (2, 7)),  # pair out of range
            (BIT_INSTANCE, [1, 2, 3, 4] * 400 + [9], None, 3, (9, None)),  # bad index at walk 1,600, the run's last
            (VALUE_INSTANCE, [1, 2] * 800, [2, 1] * 799 + [3, 0], 3, (2, 0)),  # the same, for pairs
            # Runs long enough for a numpy pass, bad from their first walk, last walk, or channel.
            (BIT_INSTANCE, [0] + [1, 2] * 200, None, 3, (0, None)),
            (VALUE_INSTANCE, [1, 2] * 200, [2, 1] * 199 + [2, 2], 3, (2, 2)),
            (BIT_INSTANCE, [1, 2] * 200, [2, 1] * 200, 3, (1, 2)),
            (VALUE_INSTANCE, [1, 2] * 200, None, 3, (1, None)),
            # Runs of 2,000 walks, bad early and again past walk 1,024: the early walk's message.
            (BIT_INSTANCE, _spliced([1, 2, 3, 4] * 500, {3: 0, 1200: 5000}), None, 3, (0, None)),
            (VALUE_INSTANCE, [1, 2] * 1000, _spliced([2, 1] * 1000, {5: 2, 1500: 9999}), 3, (2, 2)),
            # Comparisons on a bit instance, with a pair out of range past walk 0: walk 0's message.
            (BIT_INSTANCE, _spliced([1, 2] * 20, {5: 6}), _spliced([2, 1] * 20, {5: 500}), 3, (1, 2)),
            # A uint64 index past intp, short and long runs: the first bad walk's message.
            (BIT_INSTANCE, np.array([1, 2**63, 2], np.uint64), None, 3, (2**63, None)),
            (make_instance_or("all_zero", 100), np.array([2**63, *range(1, 40)], np.uint64), None, 5, (2**63, None)),
            (VALUE_INSTANCE, [1, 2] * 20, np.array(_spliced([2, 1] * 20, {10: 2**63}), np.uint64), 3, (1, 2**63)),
            (
                VALUE_INSTANCE, _spliced([1, 2] * 20, {3: 3}),
                np.array(_spliced([2, 1] * 20, {3: 3, 10: 2**63}), np.uint64), 3, (3, 3),
            ),
        ],
    )
    def test_bad_runs_raise_before_anything_moves(self, instance, firsts, seconds, k, bad):
        # Lists here stand for the int64 arrays they convert to.
        firsts, seconds = np.asarray(firsts), None if seconds is None else np.asarray(seconds)
        oracle, fresh = _twins(instance, 0.25, 3, 1)
        with pytest.raises(ContractViolation) as from_run:
            oracle.name_run(firsts, seconds, k)
        if bad is not None:  # the message is the bad walk's own
            with pytest.raises(ContractViolation) as alone:
                fresh.walk(*bad, 3)
            assert str(from_run.value) == str(alone.value)
        assert oracle.queries == 0 and not oracle.pending
        assert (oracle._chunk, oracle._pos) == (fresh._chunk, fresh._pos)
        j_ok = None if isinstance(instance, BitInstance) else 2
        assert [_single(oracle, j_ok) for _ in range(5)] == [_single(fresh, j_ok) for _ in range(5)]

    @pytest.mark.parametrize(
        "instance, firsts, seconds, got",
        [
            (BIT_INSTANCE, [1, 2], None, "list"),
            (BIT_INSTANCE, [], None, "list"),
            (BIT_INSTANCE, range(1, 3), None, "range"),
            (VALUE_INSTANCE, np.array([1, 2]), [2, 1], "list"),
            (BIT_INSTANCE, np.array([1.0, 2.0]), None, "a 1-d array of float64"),
            (BIT_INSTANCE, np.array([1.0, 2.0] * 20), None, "a 1-d array of float64"),
            (VALUE_INSTANCE, np.array([1, 2] * 20), np.array([2.0, 1.0] * 20), "a 1-d array of float64"),
            (VALUE_INSTANCE, np.array([True, True]), np.array([2, 3]), "a 1-d array of bool"),
            (BIT_INSTANCE, np.array([2**70, 1], dtype=object), None, "a 1-d array of object"),
            # Integer arrays of another shape, every index in range: numpy would broadcast them.
            (BIT_INSTANCE, np.array(1), None, "a 0-d array of int64"),
            (make_instance_or("all_zero", 10), np.arange(1, 7).reshape(2, 3), None, "a 2-d array of int64"),
            (VALUE_INSTANCE, np.array([1, 2]), np.array([[2], [3]]), "a 2-d array of int64"),
        ],
    )
    def test_a_run_of_anything_but_integer_arrays_is_refused(self, instance, firsts, seconds, got):
        oracle, fresh = _twins(instance, 0.25, 3, 1)
        with pytest.raises(ContractViolation) as refused:
            oracle.name_run(firsts, seconds, 3)
        assert str(refused.value) == f"a run's indices must be a 1-d integer array, got {got}"
        assert oracle.queries == 0 and oracle.pending == ()
        assert (oracle._chunk, oracle._pos) == (fresh._chunk, fresh._pos)
        j = None if isinstance(instance, BitInstance) else 2
        assert [_single(oracle, j) for _ in range(5)] == [_single(fresh, j) for _ in range(5)]


# ---------------------------------------------------------------------------
# The trial's shared prefix of draws against an oracle's private draws
# ---------------------------------------------------------------------------


class TestSharedDraws:
    def test_prefix_is_the_first_three_chunks(self):
        assert _PREFIX_LEN == REFILL_AT[2] == 4672

    def test_no_chunk_is_longer_than_the_lattice_reaches(self):
        # A pass reads a chunk's margins as offsets into _lattice(k), which
        # spans _BUF_CAP either way; from a longer chunk it would index the
        # mask with negative offsets, which numpy wraps silently.
        oracle = NoisyOracle(BIT_INSTANCE, 0.25, 3, 1)
        lengths = [len(oracle._buf)]  # an oracle starts on chunk 0's table
        for _ in REFILL_AT[1:]:
            oracle._refill()
            lengths.append(len(oracle._buf))
        assert lengths == np.diff((0, *REFILL_AT)).tolist()
        assert max(lengths) <= _BUF_CAP == 8192
        for k in (1, 2, 5, 17, 150, 9000):
            assert len(_lattice(k)) == 2 * _BUF_CAP + 1, k

    @pytest.mark.numpy_mirror
    @pytest.mark.parametrize("shape", [(128,), (448,), (4096,), (8192,), (_SET_UP, 128)])
    @pytest.mark.parametrize("p", [0.02, 0.25, 0.45])
    def test_margins_are_a_running_sum_of_votes(self, shape, p):
        # A table is one accumulate whose input and output are one array.
        draws = np.random.default_rng(shape[-1]).random(shape)
        draws.reshape(-1)[::5] = p  # a draw equal to p leaves its answer unflipped
        # Every answer flipped, then none (each draw equal to p): the rows end at -len and +len.
        for case, last in [(draws, None), (np.zeros(shape), -shape[-1]), (np.full(shape, p), shape[-1])]:
            margin = _margins(case, p)
            assert margin.dtype == np.intp and not margin.flags.writeable
            assert np.array_equal(margin, np.cumsum(np.where(case >= p, 1, -1), axis=-1))
            assert last is None or (margin[..., -1] == last).all()

    @pytest.mark.numpy_mirror
    def test_advance_matches_drawing_the_prefix(self):
        # Each double takes one PCG64 output, so the trial's generator, seated
        # past the prefix by PCG64.advance, draws what the stream draws after
        # 4,672 doubles; seated back, by a step that wraps round, it draws
        # the stream's first doubles again.
        for seed in range(50):
            trial = 977 * seed + _BLOCK * (seed % 3)
            drawn = _generator(seed, trial, 0).random(_PREFIX_LEN + 2 * _BUF_CAP)
            draws = TrialDraws(seed, trial)
            for chunk, start, size in [(4, _PREFIX_LEN + _BUF_CAP, _BUF_CAP), (3, _PREFIX_LEN, _BUF_CAP), (0, 0, 128)]:
                want = np.cumsum(np.where(drawn[start : start + size] < 0.25, -1, 1))
                assert np.asarray(draws.table(0.25, chunk)).tolist() == want.tolist(), (seed, chunk)
            assert draws._chunks[0].tolist() == drawn[:128].tolist(), seed

    @pytest.mark.parametrize("instance", _CHANNELS)
    @pytest.mark.parametrize("p, others", [(0.25, (0.1, 0.4)), (0.1, (0.25,)), (0.45, (0.02, 0.25))])
    def test_shared_and_private_twins_match(self, instance, p, others):
        seed, trial = 3, 11
        shared = TrialDraws(seed, trial)
        for q in others:  # the prefix is already read at other p, to its end
            reader = NoisyOracle(instance, q, seed, trial, shared)
            while reader.queries <= _PREFIX_LEN:
                reader.walk(*_run(instance, 7, 1)[0])
        crossed = set()
        for k in range(1, 151):
            a = NoisyOracle(instance, p, seed, trial, shared)
            b = NoisyOracle(instance, p, seed, trial)
            ends = [0]
            # A walk takes at least k flips, so these walks run past the prefix.
            for i, j, _ in _run(instance, k, _PREFIX_LEN // k + 3):
                assert a.walk(i, j, k) == b.walk(i, j, k), (k, len(ends))
                assert a.queries == b.queries
                crossed.update(r for r in REFILL_AT[:3] if ends[-1] < r < b.queries)
                ends.append(b.queries)
            assert b.queries > _PREFIX_LEN
            # Both twins left the flip stream at the same position.
            assert [_single(a, j) for _ in range(3)] == [_single(b, j) for _ in range(3)], k
        assert crossed == set(REFILL_AT[:3])

    @pytest.mark.parametrize("instance", _CHANNELS)
    @pytest.mark.parametrize("ps", [(0.25, 0.1), (0.25, 0.25), (0.1, 0.45)])
    @pytest.mark.parametrize("k, turns", [(5, (400, 400)), (1, (700, 1100))])
    def test_two_rows_read_past_the_prefix(self, instance, ps, k, turns):
        # Two rows of one TrialDraws take turns of walks until each reads
        # three chunks past the prefix; each must match its twin with draws
        # of its own, walk for walk, and at k = 1 flip for flip.  Turns of
        # two lengths have each row cross chunk ends while the other stands
        # elsewhere in the stream.  Both rows' chunks past the prefix come
        # from the generator that drew it.
        seed, trial = 6, 9
        shared = TrialDraws(seed, trial)
        rows = [NoisyOracle(instance, p, seed, trial, shared) for p in ps]
        twins = [NoisyOracle(instance, p, seed, trial) for p in ps]
        prefix_rng = shared._rng
        while min(row.queries for row in rows) <= REFILL_AT[4]:
            for row, twin, turn in zip(rows, twins, turns):
                for i, j, _ in _run(instance, k, turn, start=row.queries):
                    assert row.walk(i, j, k) == twin.walk(i, j, k)
                    assert row.queries == twin.queries
        assert shared._rng is prefix_rng

    @pytest.mark.parametrize("instance", _CHANNELS)
    def test_an_oracle_reading_on_builds_one_generator(self, instance, monkeypatch):
        # Counted once a block has set up its trial: a lone oracle builds and
        # seats its trial's stream-0 generator once, at chunk 0; the block's
        # oracle builds none; and neither seats it again past the prefix.
        blocked = NoisyOracle(instance, 0.25, 5, 3, next(TrialDraws.block(5, 3, 4, [0.25])))
        seats, built, seat, generator = [], [], TrialDraws._seat, oracles._generator
        monkeypatch.setattr(TrialDraws, "_seat", lambda draws, at: (seats.append(at), seat(draws, at))[1])
        monkeypatch.setattr(oracles, "_generator", lambda *key: (built.append(key), generator(*key))[1])
        lone = NoisyOracle(instance, 0.25, 5, 3)
        i, j, _ = _run(instance, 50, 1)[0]
        while lone._chunk < len(_PREFIX) + 3:  # reading chunk 5, the third past the prefix
            assert lone.walk(i, j, 50) == blocked.walk(i, j, 50)
        assert lone.queries == blocked.queries and blocked._chunk == lone._chunk
        assert seats == [0] and built == [(5, 3, 0)]

    def test_a_chunk_past_the_prefix_streams_on_from_the_prefix_generator(self, monkeypatch):
        # The chunk after the last one drawn is read where the generator
        # stands; any other is seated first.  A chunk past the prefix asked
        # for before chunks 1 and 2 are drawn leaves their draws be.
        seats, seat = [], TrialDraws._seat
        monkeypatch.setattr(TrialDraws, "_seat", lambda draws, at: (seats.append(at), seat(draws, at))[1])
        for seed in range(20):
            drawn = _generator(seed, seed, 0).random(_PREFIX_LEN + 2 * _BUF_CAP)

            def margin(start, size):
                return np.cumsum(np.where(drawn[start : start + size] < 0.25, -1, 1)).tolist()

            draws, seats[:] = TrialDraws(seed, seed), []
            draws.table(0.25, 2)  # draws the whole prefix
            rng = draws._rng
            first, again = draws.table(0.25, 3), draws.table(0.25, 3)
            assert first.obj is not again.obj  # drawn for each caller, and not kept
            for table in (first, again):
                assert np.asarray(table).tolist() == margin(_PREFIX_LEN, _BUF_CAP), seed
            assert draws._rng is rng and seats == [0, _PREFIX_LEN]
            draws, fresh, seats[:] = TrialDraws(seed, seed), TrialDraws(seed, seed), []
            draws.table(0.25, 0)
            assert np.asarray(draws.table(0.25, 4)).tolist() == margin(_PREFIX_LEN + _BUF_CAP, _BUF_CAP), seed
            for chunk in (1, 2):
                assert np.asarray(draws.table(0.25, chunk)).tolist() == np.asarray(fresh.table(0.25, chunk)).tolist()
            assert [c.tolist() for c in draws._chunks] == [c.tolist() for c in fresh._chunks], seed
            assert seats == [0, _PREFIX_LEN + _BUF_CAP, _PREFIX[0], 0]  # the last is fresh's

    def test_oracles_at_one_p_share_its_tables(self):
        shared = TrialDraws(1, 2)
        a, b, c = (NoisyOracle(BIT_INSTANCE, p, 1, 2, shared) for p in (0.25, 0.25, 0.1))
        for oracle in (a, b, c):
            oracle.read_bit(1)
        assert a._buf.obj is b._buf.obj
        assert c._buf.obj is not a._buf.obj

    def test_draws_of_another_trial_are_refused(self):
        for seed, trial in [(3, 12), (4, 11)]:
            with pytest.raises(ContractViolation):
                NoisyOracle(BIT_INSTANCE, 0.25, 3, 11, TrialDraws(seed, trial))


def assert_block_twin(draws, seed, trial, ps, late=False):
    """``draws``, handed out by a block built at ``ps``, draws and tabulates as ``TrialDraws(seed, trial)``.

    Every prefix chunk's table is compared at each p of ``ps`` and at one
    p not in it, then the first two chunks past the prefix, twice; the
    lone draws are asked in that order.  With ``late`` the second chunk
    past the prefix is asked for first, before chunks 1 and 2 are drawn.
    """
    lone = TrialDraws(seed, trial)
    assert (draws.master_seed, draws.trial_index) == (seed, trial)
    assert draws._chunks[0].tolist() == _generator(seed, trial, 0).random(_PREFIX[0]).tolist()
    asked = [(p, chunk) for p in (*ps, 0.3) for chunk in range(3)] + [(0.3, 3), (0.3, 4)] * 2
    want = [np.asarray(lone.table(p, chunk)) for p, chunk in asked]
    for w in [len(asked) - 1] * late + list(range(len(asked))):
        got = np.asarray(draws.table(*asked[w]))
        assert got.dtype == want[w].dtype and got.tolist() == want[w].tolist(), (trial, asked[w])
        assert not got.flags.writeable


class TestBlockDraws:
    """A block's draws are each its trial's lone draws, set up _SET_UP trials at a pass."""

    @pytest.mark.parametrize(
        "start, stop",
        [(37, 45), (0, _SET_UP), (250, 262), (37, 37 + 2 * _SET_UP + 5), (_BLOCK - 100, _BLOCK + 200)],
    )
    def test_each_trial_is_its_lone_twin(self, start, stop):
        seed, ps = 7, (0.25, 0.1, 0.4)
        trials = list(range(start, stop))
        for trial, draws in zip(trials, TrialDraws.block(seed, start, stop, ps), strict=True):
            assert_block_twin(draws, seed, trial, ps, late=trial % 3 == 0)

    def test_the_tables_are_rows_of_one_array_per_p(self):
        draws = list(TrialDraws.block(2, 10, 14, [0.25, 0.25, 0.4]))
        assert draws[0].table(0.25, 0).obj.base is draws[3].table(0.25, 0).obj.base
        assert {key for key in draws[0]._tables} == {(0.25, 0), (0.4, 0)}

    def test_the_trial_ranges_of_two_worker_jobs(self, monkeypatch):
        # --workers 2 splits 600 trials into jobs of 37, off the _SET_UP grid.
        jobs = []

        class RecordingPool:  # records the jobs and runs none
            def __init__(self, size):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, args, chunksize=1):
                jobs.extend(args)
                return []

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=RecordingPool))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        row = harness.ExperimentConfig("checkbit", "single_one:1", 1, 0.25, 0.05, 600, seed=3)
        harness._run_rows([row, replace(row, p=0.4)], 2)
        ranges = [(start, stop) for _, start, stop in jobs]
        assert ranges[:2] == [(0, 37), (37, 74)] and ranges[-1] == (592, 600)
        for start, stop in ranges:
            for trial, draws in zip(range(start, stop), TrialDraws.block(3, start, stop, (0.25, 0.4)), strict=True):
                assert_block_twin(draws, 3, trial, (0.25, 0.4), late=trial % 5 == 0)

    @pytest.mark.parametrize("instance", _CHANNELS)
    @pytest.mark.parametrize("p", [0.1, 0.4])
    def test_an_oracle_starts_on_its_chunk_0_table(self, instance, p, monkeypatch):
        # A walk that ends in chunk 0 builds no table: _margins would raise.
        draws = next(TrialDraws.block(3, 8, 9, (p, 0.25)))
        table = draws.table(p, 0)
        oracle = NoisyOracle(instance, p, 3, 8, draws)
        assert oracle._buf.obj is table.obj and oracle._chunk == 1 and oracle._pos == 0
        monkeypatch.setattr(oracles, "_margins", None)
        i, j, _ = _run(instance, 1, 1)[0]
        while oracle.queries < _PREFIX[0]:
            oracle.walk(i, j, 1)
        assert set(draws._tables) == {(p, 0), (0.25, 0)} and len(draws._chunks) == 1
        # Without a table at its p an oracle tabulates the drawn chunk 0 when built.
        monkeypatch.undo()
        lone = NoisyOracle(instance, 0.3, 3, 8, draws)
        assert lone._buf.obj is draws._tables[(0.3, 0)].obj and lone._chunk == 1 and len(draws._chunks) == 1

    @pytest.mark.parametrize("instance", _CHANNELS)
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
    def test_oracles_on_chunk_0_tables_match_their_lone_twins(self, instance, p):
        # From flip 0 at K = 1..150: a lone walk, a single query then a walk,
        # and a named run of 1..40 walks, whose passes start after one jump.
        seed, ks = 6, range(1, 151)
        for k, draws in zip(ks, TrialDraws.block(seed, ks.start, ks.stop, (p, 0.3)), strict=True):
            walks = _walks(instance, 40 - (k - 1) % 40)  # 40 walks down to 1: long runs at the smallest K
            i, j = walks[0]
            started, lone = NoisyOracle(instance, p, seed, k, draws), NoisyOracle(instance, p, seed, k)
            assert started._chunk == 1
            _assert_walks_match(started, lone, [(i, j, k)])
            started, lone = NoisyOracle(instance, p, seed, k, draws), NoisyOracle(instance, p, seed, k)
            assert _single(started, j) == _single(lone, j)
            _assert_walks_match(started, lone, [(i, j, k)])
            started, lone = NoisyOracle(instance, p, seed, k, draws), NoisyOracle(instance, p, seed, k)
            _assert_run_matches_walks(started, lone, walks, k)

    def test_an_empty_range_hands_out_nothing(self):
        assert list(TrialDraws.block(2, 5, 5, [0.25])) == []

    def test_at_most_one_trial_keeps_its_later_chunks(self):
        # Each trial draws its 4,608 later doubles and their tables, 72 kB;
        # were they all kept, a block would hold 18 MB.
        list(TrialDraws.block(4, 0, 2, [0.25]))  # imports numpy.random and fills the seed tables
        tracemalloc.start()
        try:
            for draws in TrialDraws.block(4, 0, _SET_UP, [0.25]):
                draws.table(0.25, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
