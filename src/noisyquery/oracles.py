"""Ground-truth instances and the noisy query channel.

A :class:`NoisyOracle` wraps one hidden instance for one trial.  Every
answered query passes through a binary symmetric channel with crossover
probability ``p`` and is counted in :attr:`NoisyOracle.queries` before
the answer is returned.  Randomness is fully determined by
``(master_seed, trial_index)``, so trials replay bit-identically and can
be scheduled in any order.

Each trial's two streams, the channel (stream 0) and the algorithm's own
draws (stream 1), are the PCG64 generators of
``SeedSequence((master_seed, trial_index, stream))``.  Their seed states
are hashed for a block of 1024 trial indices in one numpy pass and kept
for the last few blocks, so a stream costs a table row, not a
SeedSequence.

Indices are 1-based throughout, matching the usual [n] convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "BitInstance",
    "NoisyOracle",
    "ValueInstance",
    "make_instance_max",
    "make_instance_or",
]

_BUF_CAP = 4096
_SCAN_MIN = 256
_SCAN_MAX_K = 100
_WORD = 0xFFFFFFFF
_BLOCK = 1024  # trial indices seeded in one pass; divides 2**32


@lru_cache(maxsize=256)
def _lattice(k: int) -> np.ndarray:
    """Mask over the margin offsets -_BUF_CAP.._BUF_CAP, from index 0: True at multiples of k."""
    mask = np.zeros(2 * _BUF_CAP + 1, dtype=bool)
    mask[_BUF_CAP % k :: k] = True
    return mask


def _words(key: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    if key < 0:
        raise ValueError(f"expected non-negative integer, got {key}")
    words = [key & _WORD]
    while key > _WORD:
        key >>= 32
        words.append(key & _WORD)
    return words


@lru_cache(maxsize=4)  # both streams of two blocks: 128 KiB
def _block_states(master_seed: int, stream: int, block: int) -> np.ndarray:
    """Row b is ``SeedSequence((master_seed, block * _BLOCK + b, stream)).generate_state(4, np.uint64)``.

    The (_BLOCK, 4) uint64 table mirrors numpy's SeedSequence hash over
    all of a block's trial indices at once, in uint32 arithmetic that
    wraps.  _BLOCK divides 2**32, so the indices of a block differ only in
    their lowest word.
    """
    first = block * _BLOCK
    high = _words(first >> 32) if first >> 32 else []
    columns = [*_words(master_seed), (first & _WORD) + np.arange(_BLOCK, dtype=np.uint32), *high, *_words(stream)]
    entropy = [np.broadcast_to(np.uint32(c), (_BLOCK,)) for c in columns]
    hash_const = 0x43B0D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * 0x931E8875 & _WORD
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return result ^ (result >> 16)

    # SeedSequence.mix_entropy: the first four words (zeros past the last)
    # fill a pool of four, every pool word is mixed into every other, then
    # each later word into each pool word; hashmix's constant runs on
    # through all of it.
    zero = np.zeros(_BLOCK, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, np.uint64): eight uint32 words hashed
    # off the pool in turn, paired little-endian into uint64.
    state = np.empty((_BLOCK, 8), dtype="<u4")
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * 0x58F38DED & _WORD
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> 16)
    table = state.view("<u8").astype(np.uint64, copy=False)
    table.flags.writeable = False  # the cache hands the same table to every caller
    return table


class _RowSeed:
    """A seed sequence whose state is one row of :func:`_block_states`."""

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray) -> None:
        self.row = row

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.row  # PCG64 asks for 4 uint64 words, all it ever asks for


@lru_cache(maxsize=1)
def _row_seed() -> type[_RowSeed]:
    """:class:`_RowSeed`, registered as an ISeedSequence, which PCG64 requires; imports numpy.random at first use."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_RowSeed)
    return _RowSeed


def _generator(master_seed: int, trial_index: int, stream: int) -> np.random.Generator:
    """``default_rng(SeedSequence((master_seed, trial_index, stream)))``, its state read off a block table."""
    if master_seed < 0 or trial_index < 0:
        raise ValueError(f"expected non-negative seed and trial, got {master_seed} and {trial_index}")
    block, row = divmod(trial_index, _BLOCK)
    return np.random.Generator(np.random.PCG64(_row_seed()(_block_states(master_seed, stream, block)[row])))


@dataclass(frozen=True)
class BitInstance:
    """A hidden vector of bits; the target function is their OR."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) < 1:
            raise ContractViolation("BitInstance needs at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ContractViolation(f"bits must all be 0 or 1, got {self.bits}")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @property
    def n(self) -> int:
        return len(self.bits)

    def truth(self) -> int:
        """The OR of the hidden bits."""
        return 1 if any(self.bits) else 0


@dataclass(frozen=True)
class ValueInstance:
    """A hidden vector of pairwise-distinct reals, none NaN; the target is the argmax index."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ContractViolation("ValueInstance needs at least one value")
        vals = tuple(float(v) for v in self.values)
        if any(math.isnan(v) for v in vals):
            raise ContractViolation("values must not be NaN; the argmax is otherwise ill-defined")
        if len(set(vals)) != len(vals):
            raise ContractViolation("values must be pairwise distinct; the argmax is otherwise ill-defined")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def truth(self) -> int:
        """The 1-based index of the unique maximum."""
        best = max(range(self.n), key=lambda k: self.values[k])
        return best + 1


class NoisyOracle:
    """Answers bit-read or comparison queries through a BSC(p) channel.

    One oracle serves one trial and is not safe for concurrent use;
    distinct trials get distinct oracles and may run fully in parallel.
    Channel noise and algorithm-level randomness come from separate
    streams keyed by ``(master_seed, trial_index)``, so consuming one
    never perturbs the other.  ``queries`` counts every query asked.
    """

    __slots__ = (
        "instance", "p", "master_seed", "trial_index", "queries",
        "_bits", "_values", "_n",  # the hidden instance
        "_rng", "_buf", "_pos",  # the channel's generator, its current chunk, and the next flip
        "_run_k", "_run_from", "_stops",  # the current run of walks at one threshold
        "_alg_rng",
    )  # fmt: skip

    def __init__(
        self, instance: BitInstance | ValueInstance, p: float, master_seed: int = 0, trial_index: int = 0
    ) -> None:
        if not 0.0 < p < 0.5:
            raise ContractViolation(f"p must lie in (0, 1/2), got {p}")
        self.instance = instance
        self.p = p
        self.master_seed = master_seed
        self.trial_index = trial_index
        self._n = instance.n
        self.queries = 0
        if isinstance(instance, BitInstance):
            self._bits: list[bool] | None = [False, *map(bool, instance.bits)]
            self._values: list[float] | None = None
        else:
            self._bits = None
            self._values = [0.0, *instance.values]
        self._rng: np.random.Generator | None = None
        self._buf = memoryview(b"")
        self._pos = 0
        # The current run: its threshold, the position of its first walk in
        # this chunk (negative if in an earlier one), and the stops of its
        # next walks, last first.
        self._run_k = self._run_from = 0
        self._stops: list[int] = []
        self._alg_rng: np.random.Generator | None = None

    # -- randomness plumbing -------------------------------------------------

    def _refill(self) -> None:
        # The channel's generator is created at the first refill; chunk
        # sizes follow a fixed growth schedule (64, 512, then 4096 flips),
        # and the generator draws one double per flip whatever the chunk
        # size, so the flip sequence is a pure function of
        # (master_seed, trial_index).  A chunk is kept as its running
        # margin: entry t is (unflipped - flipped) over flips 0..t of the
        # chunk, so a walk reads the margin of any run of flips as the
        # difference of two entries.
        if self._rng is None:
            self._rng = _generator(self.master_seed, self.trial_index, 0)
        self._run_from -= len(self._buf)
        size = min(max(8 * len(self._buf), 64), _BUF_CAP)
        self._buf = memoryview(np.add.accumulate(np.where(self._rng.random(size) < self.p, -1, 1)))
        self._pos = 0

    @property
    def algorithm_rng(self) -> np.random.Generator:
        """Deterministic stream for algorithm-level randomness (e.g. subsampling)."""
        if self._alg_rng is None:
            self._alg_rng = _generator(self.master_seed, self.trial_index, 1)
        return self._alg_rng

    # -- queries ---------------------------------------------------------------

    def read_bit(self, i: int) -> int:
        """Read bit i through the channel; counts the query, then answers."""
        return int(self.walk(i, None, 1)[0])

    def compare(self, i: int, j: int) -> bool:
        """Ask whether values[i] < values[j] through the channel."""
        return self.walk(i, j, 1)[0]

    def walk(self, i: int, j: int | None, k: int) -> tuple[bool, int]:
        """Repeat one query until the net vote reaches +k or -k: (net vote > 0, queries).

        ``j is None`` reads bit i; otherwise each query asks whether
        values[i] < values[j]; a single query is a walk with k = 1.
        Answers, flip stream and query count end up exactly as after a loop of
        single queries; arguments are checked before anything moves.

        A walk jumps k - |margin| flips at a time over the chunk's
        running-margin table, since it cannot stop sooner, so it costs
        O(jumps).  Consecutive walks at one k form a run, whose later
        walks may each be one read of a stop list (:meth:`_scan`).
        """
        n = self._n
        if j is None:
            if self._bits is None:
                raise ContractViolation("read_bit requires an oracle over a BitInstance")
            if not 1 <= i <= n:
                raise ContractViolation(f"index {i} out of range 1..{n}")
            truth = self._bits[i]
        else:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ContractViolation(f"pair ({i}, {j}) out of range 1..{n}")
            if self._values is None:
                raise ContractViolation("compare requires an oracle over a ValueInstance")
            if i == j:
                raise ContractViolation(f"compare needs two distinct indices, got i = j = {i}")
            truth = self._values[i] < self._values[j]
        if k < 1:
            raise ContractViolation(f"vote threshold must be >= 1, got {k}")

        buf, pos = self._buf, self._pos
        stops = self._stops
        if k != self._run_k:
            # A new run: its first walk takes the jump loop.
            self._run_k, self._run_from = k, pos
            stops = self._stops = []
        elif not stops and 1 < k <= _SCAN_MAX_K:
            stops = self._scan(pos, k)
        end = stops.pop() if stops else 0
        if end:
            # The walk stops at the listed flip, one lattice step from
            # the run's level, the entry before the walk.
            t = end - pos
            self._pos = end
            self.queries += t
            return truth == (buf[end - 1] > buf[pos - 1]), t

        # The margin m = (answers equal to the truth) - (flipped answers)
        # is the net vote when the truth is 1, else its negative.  It is
        # the table entry at a jump's last flip less base, the entry before
        # the walk.  A jump stops short at the end of the chunk, which is
        # refilled only if the walk goes on, exactly where single queries
        # would refill it; the new entries count from 0, so base becomes -m.
        end = len(buf)
        base = buf[pos - 1] if pos else 0
        m = t = 0
        while -k < m < k:
            if pos == end:
                self._refill()
                buf, pos, base = self._buf, 0, -m
                end = len(buf)
            nxt = pos + k - (m if m > 0 else -m)
            if nxt > end:
                nxt = end
            m = buf[nxt - 1] - base
            t += nxt - pos
            pos = nxt
        self._pos = pos
        self.queries += t
        return truth == (m > 0), t

    def _scan(self, pos: int, k: int) -> list[int]:
        """The stops of the run's next walks in one pass, last first; [] if not worth it.

        The margin moves by one a flip, so from the run's level L (the
        entry before ``pos``) each walk stops at the next flip where the
        margin hits a point of L + kZ other than the last one it hit.
        The pass covers twice the flips the run has used, up to the chunk's
        end, once the run has used 4k / (1 - 2p) flips (four walks) and if
        it covers _SCAN_MIN flips; walk calls it for 1 < k <= _SCAN_MAX_K.
        """
        used = pos - self._run_from
        hi = min(len(self._buf), pos + 2 * used)
        if hi - pos < _SCAN_MIN or used * (1 - 2 * self.p) < 4 * k:
            return self._stops
        seg = self._buf.obj[pos - 1 : hi]
        hits = _lattice(k)[seg - (seg[0] - _BUF_CAP)].nonzero()[0]
        levels = seg[hits]
        stops = hits[1:][(levels[1:] != levels[:-1]).nonzero()[0]] + pos
        # A 0 under the stops marks a pass that reached the end of the chunk:
        # the walk after the last stop crosses it, so it takes the jump loop.
        self._stops = ([0] if hi == len(self._buf) else []) + stops[::-1].tolist()
        return self._stops


def make_instance_or(
    family: str,
    n: int | None = None,
    *,
    index: int | None = None,
    bits: Sequence[int] | None = None,
) -> BitInstance:
    """Build a named OR-model instance.

    Families: ``all_zero`` (the hard no-certificate input), ``single_one``
    (exactly one 1 at ``index``), ``literal`` (explicit ``bits``).
    """
    if family == "all_zero":
        if n is None or n < 1:
            raise ContractViolation(f"all_zero requires n >= 1, got {n}")
        return BitInstance(bits=(0,) * n)
    if family == "single_one":
        if n is None or n < 1:
            raise ContractViolation(f"single_one requires n >= 1, got {n}")
        if index is None or not 1 <= index <= n:
            raise ContractViolation(f"single_one requires 1 <= index <= {n}, got {index}")
        return BitInstance(bits=tuple(1 if k == index else 0 for k in range(1, n + 1)))
    if family == "literal":
        if bits is None:
            raise ContractViolation("literal requires bits")
        return BitInstance(bits=tuple(bits))
    raise ContractViolation(f"unknown OR instance family {family!r} (expected all_zero, single_one or literal)")


def make_instance_max(
    family: str,
    n: int | None = None,
    *,
    index: int | None = None,
    seed: int | None = None,
    values: Sequence[float] | None = None,
) -> ValueInstance:
    """Build a named MAX-model instance.

    Families: ``sorted`` is (1, ..., n); ``relocated`` moves the maximum of
    the sorted sequence to position ``index`` (the hard family for
    comparison lower bounds); ``permuted`` is a seeded uniform shuffle of
    (1, ..., n); ``literal`` takes explicit ``values``.
    """
    if family == "sorted":
        if n is None or n < 1:
            raise ContractViolation(f"sorted requires n >= 1, got {n}")
        return ValueInstance(values=tuple(float(k) for k in range(1, n + 1)))
    if family == "relocated":
        if n is None or n < 2:
            raise ContractViolation(f"relocated requires n >= 2, got {n}")
        if index is None or not 1 <= index <= n - 1:
            raise ContractViolation(f"relocated requires 1 <= index <= {n - 1}, got {index}")
        base = [float(k) for k in range(1, n)]
        base.insert(index - 1, float(n))
        return ValueInstance(values=tuple(base))
    if family == "permuted":
        if n is None or n < 1:
            raise ContractViolation(f"permuted requires n >= 1, got {n}")
        if seed is None:
            raise ContractViolation("permuted requires a seed")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n) + 1
        return ValueInstance(values=tuple(float(v) for v in perm))
    if family == "literal":
        if values is None:
            raise ContractViolation("literal requires values")
        return ValueInstance(values=tuple(values))
    raise ContractViolation(
        f"unknown MAX instance family {family!r} (expected sorted, relocated, permuted or literal)"
    )
