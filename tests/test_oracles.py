"""Instances, the noisy channel, query accounting, and the determinism contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyquery.errors import ContractViolation
from noisyquery.oracles import (
    BitInstance,
    ForcedResponseStream,
    NoisyOracle,
    ValueInstance,
    make_instance_max,
    make_instance_or,
)


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
    def test_noiseless_needs_flag(self):
        with pytest.raises(ContractViolation):
            NoisyOracle(BitInstance(bits=(1,)), 0.0)

    @pytest.mark.parametrize("p", [-0.1, 0.5, 0.7])
    def test_p_range(self, p):
        with pytest.raises(ContractViolation):
            NoisyOracle(BitInstance(bits=(1,)), p)

    def test_noiseless_reads_exact(self):
        oracle = NoisyOracle(BitInstance(bits=(1, 0)), 0.0, allow_noiseless=True)
        assert [oracle.read_bit(1), oracle.read_bit(2)] == [1, 0]

    def test_index_range(self):
        oracle = NoisyOracle(BitInstance(bits=(1, 0)), 0.25)
        with pytest.raises(ContractViolation):
            oracle.read_bit(0)
        with pytest.raises(ContractViolation):
            oracle.read_bit(3)

    def test_compare_contracts(self):
        oracle = NoisyOracle(ValueInstance(values=(1.0, 2.0)), 0.0, allow_noiseless=True)
        assert oracle.compare(1, 2) is True
        assert oracle.compare(2, 1) is False
        with pytest.raises(ContractViolation):
            oracle.compare(1, 1)
        with pytest.raises(ContractViolation):
            oracle.compare(1, 3)

    def test_model_mismatch(self):
        bit_oracle = NoisyOracle(BitInstance(bits=(1,)), 0.25)
        with pytest.raises(ContractViolation):
            bit_oracle.compare(1, 2)
        value_oracle = NoisyOracle(ValueInstance(values=(1.0, 2.0)), 0.25)
        with pytest.raises(ContractViolation):
            value_oracle.read_bit(1)


class TestForcedResponses:
    def test_scripted_flip_on_zero_bit(self):
        oracle = NoisyOracle(
            BitInstance(bits=(0,)), 0.25, forced=ForcedResponseStream([True])
        )
        assert oracle.read_bit(1) == 1
        assert oracle.ledger.total == 1

    def test_scripted_compare(self):
        oracle = NoisyOracle(
            ValueInstance(values=(1.0, 2.0)), 0.25, forced=ForcedResponseStream([False])
        )
        assert oracle.compare(1, 2) is False

    def test_script_consumed_in_order(self):
        oracle = NoisyOracle(
            BitInstance(bits=(0, 0)), 0.25, forced=ForcedResponseStream([True, False, True])
        )
        assert [oracle.read_bit(1), oracle.read_bit(2), oracle.read_bit(1)] == [1, 0, 1]

    def test_exhaustion_is_contract_violation(self):
        oracle = NoisyOracle(BitInstance(bits=(0,)), 0.25, forced=ForcedResponseStream([True]))
        oracle.read_bit(1)
        with pytest.raises(ContractViolation):
            oracle.read_bit(1)


class TestLedger:
    def test_counts_and_conservation(self):
        oracle = NoisyOracle(BitInstance(bits=(0, 1, 0)), 0.25, master_seed=5)
        for _ in range(4):
            oracle.read_bit(1)
        oracle.read_bit(3)
        ledger = oracle.ledger
        assert ledger.total == 5
        assert ledger.per_index == {1: 4, 3: 1}
        assert ledger.component_total() == ledger.total

    def test_pair_keys_unordered(self):
        oracle = NoisyOracle(ValueInstance(values=(1.0, 2.0, 3.0)), 0.25, master_seed=5)
        oracle.compare(1, 2)
        oracle.compare(2, 1)
        oracle.compare(3, 1)
        assert oracle.ledger.per_pair == {(1, 2): 2, (1, 3): 1}
        assert oracle.ledger.component_total() == 3

    def test_ledger_incremented_even_when_forced(self):
        oracle = NoisyOracle(BitInstance(bits=(0,)), 0.25, forced=ForcedResponseStream([True, True]))
        oracle.read_bit(1)
        oracle.read_bit(1)
        assert oracle.ledger.per_index == {1: 2}


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

    def test_flip_rate_unaffected_by_buffer_boundaries(self):
        # The growth schedule of the internal noise buffer must not skew
        # flips near refill points; compare two read counts bracketing one.
        a = NoisyOracle(BitInstance(bits=(0,)), 0.25, master_seed=41, trial_index=0)
        seq = [a.read_bit(1) for _ in range(130)]
        b = NoisyOracle(BitInstance(bits=(0,)), 0.25, master_seed=41, trial_index=0)
        assert [b.read_bit(1) for _ in range(64)] == seq[:64]
        assert [b.read_bit(1) for _ in range(66)] == seq[64:]


@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=32),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=40, deadline=None)
def test_noiseless_channel_reads_truth(bits, seed):
    oracle = NoisyOracle(BitInstance(bits=tuple(bits)), 0.0, seed, allow_noiseless=True)
    observed = [oracle.read_bit(i) for i in range(1, len(bits) + 1)]
    assert observed == list(bits)


# ---------------------------------------------------------------------------
# NoisyOracle.walk against the loop of single queries it replaces
# ---------------------------------------------------------------------------

BIT_INSTANCE = BitInstance(bits=(0, 1, 0, 1))
VALUE_INSTANCE = ValueInstance(values=(3.0, 1.0, 4.0, 2.0))
# Refill boundaries of the flip stream: buffers of 512, 4096, then 16384 flips.
REFILL_AT = (512, 512 + 4096, 512 + 4096 + 16384, 512 + 4096 + 2 * 16384)


def _loop_walk(oracle, i, j, k):
    """The reference: one read_bit/compare call per query until |net vote| = k."""
    d = t = 0
    while -k < d < k:
        t += 1
        answer = oracle.read_bit(i) if j == 0 else oracle.compare(i, j)
        d += 1 if answer else -1
    return d > 0, t


def _twins(instance, p=0.25, seed=0, trial=0, **kwargs):
    return (NoisyOracle(instance, p, seed, trial, **kwargs), NoisyOracle(instance, p, seed, trial, **kwargs))


def _ledger(oracle):
    ledger = oracle.ledger
    return ledger.total, ledger.per_index, ledger.per_pair


def _single(oracle, j):
    return oracle.read_bit(1) if j == 0 else oracle.compare(1, 2)


def _assert_walks_match(fast, slow, walks):
    """Run the same (i, j, k) walks on both twins; returns the ledger total after each."""
    totals = []
    for i, j, k in walks:
        assert fast.walk(i, j, k) == _loop_walk(slow, i, j, k)
        assert _ledger(fast) == _ledger(slow)
        totals.append(fast.ledger.total)
    # Both twins left the flip stream at the same position.
    j = walks[-1][1]
    assert [_single(fast, j) for _ in range(3)] == [_single(slow, j) for _ in range(3)]
    return totals


class TestWalkMatchesQueryLoop:
    @pytest.mark.parametrize("k", [1, 2, 5, 60])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_walks(self, k, seed):
        fast, slow = _twins(BIT_INSTANCE, 0.3, seed, 4)
        _assert_walks_match(fast, slow, [(1 + w % 4, 0, k) for w in range(40)])

    @pytest.mark.parametrize("k", [1, 2, 5, 60])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_compare_walks(self, k, seed):
        pairs = [(1, 2), (2, 1), (3, 4), (4, 1), (2, 3)]
        fast, slow = _twins(VALUE_INSTANCE, 0.3, seed, 4)
        _assert_walks_match(fast, slow, [(*pairs[w % 5], k) for w in range(40)])

    @pytest.mark.parametrize("instance, j", [(BIT_INSTANCE, 0), (VALUE_INSTANCE, 3)])
    def test_long_walks_straddle_every_refill(self, instance, j):
        # K = 150 at p = 0.4 takes ~750 queries a walk, so walks cross each boundary.
        fast, slow = _twins(instance, 0.4, 11, 2)
        walks = [(1, j, 150)] * 90
        totals = _assert_walks_match(fast, slow, walks)
        starts = [0] + totals[:-1]
        for boundary in REFILL_AT:
            assert any(s < boundary < e for s, e in zip(starts, totals)), boundary

    @pytest.mark.parametrize("boundary", REFILL_AT[:2])
    @pytest.mark.parametrize("j", [0, 2])
    def test_walks_starting_and_ending_at_a_refill(self, boundary, j):
        # Single queries bring both twins to just before a boundary; short
        # walks then start at it, end on it, or cross it.
        instance = BIT_INSTANCE if j == 0 else VALUE_INSTANCE
        ended_on_boundary = False
        for lead in range(12):
            fast, slow = _twins(instance, 0.25, 5, lead)
            for _ in range(boundary - lead):
                assert _single(fast, j) == _single(slow, j)
            totals = _assert_walks_match(fast, slow, [(1, j, 2)] * 4)
            ended_on_boundary |= boundary in totals
        assert ended_on_boundary

    @given(
        p=st.sampled_from([0.05, 0.25, 0.45]),
        seed=st.integers(min_value=0, max_value=2**20),
        walks=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(1, 40)), min_size=1, max_size=25
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_walk_sequences(self, p, seed, walks):
        bit_walks = [(i, 0, k) for i, _, k in walks]
        _assert_walks_match(*_twins(BIT_INSTANCE, p, seed), bit_walks)
        cmp_walks = [(i, j, k) for i, j, k in walks if j not in (0, i)]
        if cmp_walks:
            _assert_walks_match(*_twins(VALUE_INSTANCE, p, seed), cmp_walks)


class TestWalkForcedAndNoiseless:
    @pytest.mark.parametrize("instance, j", [(BIT_INSTANCE, 0), (VALUE_INSTANCE, 2)])
    def test_forced_walk_takes_exactly_its_answers(self, instance, j):
        script = [True, False, False, True, False, False, True, True, True]
        stream = ForcedResponseStream(script)
        fast = NoisyOracle(instance, 0.25, forced=stream)
        slow = NoisyOracle(instance, 0.25, forced=ForcedResponseStream(script))
        # Net votes +1 0 -1 0 -1 -2: absorbed at -2 after six answers.
        assert fast.walk(1, j, 2) == _loop_walk(slow, 1, j, 2) == (False, 6)
        assert stream.remaining == 3
        assert _ledger(fast) == _ledger(slow)
        assert _single(fast, j) == _single(slow, j) == 1

    @pytest.mark.parametrize("instance, j", [(BIT_INSTANCE, 0), (VALUE_INSTANCE, 2)])
    def test_forced_exhaustion_raises_and_counts_like_the_loop(self, instance, j):
        fast = NoisyOracle(instance, 0.25, forced=ForcedResponseStream([True, False, True]))
        slow = NoisyOracle(instance, 0.25, forced=ForcedResponseStream([True, False, True]))
        with pytest.raises(ContractViolation, match="exhausted"):
            fast.walk(1, j, 3)
        with pytest.raises(ContractViolation, match="exhausted"):
            _loop_walk(slow, 1, j, 3)
        assert _ledger(fast) == _ledger(slow)
        assert fast.ledger.total == 4

    @pytest.mark.parametrize("k", [1, 9])
    def test_noiseless_walk_takes_exactly_k(self, k):
        oracle = NoisyOracle(BIT_INSTANCE, 0.0, allow_noiseless=True)
        assert oracle.walk(2, 0, k) == (True, k)
        assert oracle.walk(1, 0, k) == (False, k)
        assert oracle.ledger.per_index == {1: k, 2: k}
        oracle = NoisyOracle(VALUE_INSTANCE, 0.0, allow_noiseless=True)
        assert oracle.walk(2, 4, k) == (True, k)
        assert oracle.walk(4, 2, k) == (False, k)
        assert oracle.ledger.per_pair == {(2, 4): 2 * k}
        assert oracle.ledger.total == 2 * k


class TestWalkContracts:
    @pytest.mark.parametrize(
        "instance, i, j, k",
        [
            (BIT_INSTANCE, 0, 0, 3),  # bit index below range
            (BIT_INSTANCE, 5, 0, 3),  # bit index above range
            (BIT_INSTANCE, 1, 2, 3),  # comparison on a bit instance
            (VALUE_INSTANCE, 1, 0, 3),  # bit read on a value instance
            (VALUE_INSTANCE, 2, 2, 3),  # i == j
            (VALUE_INSTANCE, 1, 5, 3),  # pair out of range
            (VALUE_INSTANCE, -1, 2, 3),  # pair out of range
            (BIT_INSTANCE, 1, 0, 0),  # vote threshold below 1
            (VALUE_INSTANCE, 1, 2, 0),  # vote threshold below 1
        ],
    )
    def test_bad_arguments_raise_before_anything_moves(self, instance, i, j, k):
        oracle, fresh = _twins(instance, 0.25, 3, 1)
        with pytest.raises(ContractViolation):
            oracle.walk(i, j, k)
        assert _ledger(oracle) == (0, {}, {})
        j_ok = 0 if isinstance(instance, BitInstance) else 2
        assert [_single(oracle, j_ok) for _ in range(5)] == [_single(fresh, j_ok) for _ in range(5)]

    def test_same_messages_as_single_queries(self):
        bits, values = NoisyOracle(BIT_INSTANCE, 0.25), NoisyOracle(VALUE_INSTANCE, 0.25)
        for walk, single in [
            (lambda: bits.walk(9, 0, 2), lambda: bits.read_bit(9)),
            (lambda: bits.walk(1, 2, 2), lambda: bits.compare(1, 2)),
            (lambda: values.walk(1, 0, 2), lambda: values.read_bit(1)),
            (lambda: values.walk(3, 3, 2), lambda: values.compare(3, 3)),
            (lambda: values.walk(1, 7, 2), lambda: values.compare(1, 7)),
        ]:
            with pytest.raises(ContractViolation) as from_walk:
                walk()
            with pytest.raises(ContractViolation) as from_single:
                single()
            assert str(from_walk.value) == str(from_single.value)
