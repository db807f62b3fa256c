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

The first 4,672 draws of a trial's channel are held by one
:class:`TrialDraws`, which every oracle of that trial may share: a sweep
runs each of its rows on the trial's one set of draws, whatever p the
row has.  Draws past that prefix come from each oracle's own generator.
A run of trials sets up their first chunks a block at a time
(:meth:`TrialDraws.block`).

A run of walks at one vote threshold is named first (:meth:`NoisyOracle.name_run`),
its stops read in one numpy pass a chunk, and each walk taken as a ready report.

Indices are 1-based throughout, matching the usual [n] convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Collection, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "BitInstance",
    "NoisyOracle",
    "TrialDraws",
    "ValueInstance",
    "make_instance_max",
    "make_instance_or",
]

_BUF_CAP = 4096
_PREFIX = (64, 512, _BUF_CAP)  # the channel's chunk sizes, then _BUF_CAP each; these first chunks are shared
_PREFIX_LEN = sum(_PREFIX)
_PASS_MIN = 32  # a named run's stops are read in numpy passes while it has this many walks left
_BATCH = 1024  # a named run's walks are read this many at a time, so its arrays stay small
_WORD = 0xFFFFFFFF
_BLOCK = 1024  # trial indices seeded in one pass; divides 2**32
_SET_UP = 256  # trials whose first chunks TrialDraws.block draws and tabulates in one pass


@lru_cache(maxsize=256)
def _lattice(k: int) -> np.ndarray:
    """Mask over the margin offsets -_BUF_CAP.._BUF_CAP, from index 0: True at multiples of k."""
    mask = np.zeros(2 * _BUF_CAP + 1, dtype=bool)
    mask[_BUF_CAP % k :: k] = True
    return mask


def _intp(indices: Sequence[int]) -> np.ndarray:
    """Indices as an intp array; a range costs no loop."""
    if isinstance(indices, range):
        return np.arange(indices.start, indices.stop, indices.step)
    return np.fromiter(indices, np.intp, len(indices))


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


class TrialDraws:
    """The first chunks of one trial's channel, shared by every oracle of that trial.

    Chunk c holds the next ``_PREFIX[c]`` doubles of the trial's stream-0
    generator, drawn at first use; :meth:`table` keeps one running-margin
    table per (p, chunk).  So a trial's prefix costs one generator and
    4,672 doubles whatever the number of oracles that read it, plus one
    table a chunk for each distinct p.
    """

    __slots__ = ("master_seed", "trial_index", "_rng", "_chunks", "_tables")

    def __init__(self, master_seed: int, trial_index: int) -> None:
        self.master_seed = master_seed
        self.trial_index = trial_index
        self._rng: np.random.Generator | None = None
        self._chunks: list[np.ndarray] = []
        self._tables: dict[tuple[float, int], memoryview] = {}

    @classmethod
    def block(cls, master_seed: int, start: int, stop: int, ps: Collection[float]) -> Iterator[TrialDraws]:
        """The draws of trials start..stop-1 in turn, each as ``TrialDraws(master_seed, t)`` would give.

        _SET_UP trials at a time, each trial's generator draws its first
        chunk into a row of one array, and each p of ``ps`` has its chunk-0
        tables built for all those rows in one numpy pass.  A trial holds
        its rows; its later chunks are drawn at first use, as alone.
        """
        for lo in range(start, stop, _SET_UP):
            rngs = [_generator(master_seed, t, 0) for t in range(lo, min(lo + _SET_UP, stop))]
            first = np.empty((len(rngs), _PREFIX[0]))
            for rng, row in zip(rngs, first):
                rng.random(out=row)
            first.flags.writeable = False
            tables = []
            for p in ps:
                margin = np.add.accumulate(np.where(first < p, -1, 1), axis=1)
                margin.flags.writeable = False  # every oracle of a trial reads the same row
                tables.append((p, margin))
            for i, t in enumerate(range(lo, lo + len(rngs))):
                draws = cls(master_seed, t)
                draws._rng, rngs[i] = rngs[i], None  # the block keeps no trial's generator once handed out
                draws._chunks.append(first[i])
                draws._tables = {(p, 0): memoryview(margin[i]) for p, margin in tables}
                yield draws

    def table(self, p: float, chunk: int) -> memoryview:
        """Chunk ``chunk``'s running margin at crossover p: entry t is (unflipped - flipped) over its flips 0..t."""
        table = self._tables.get((p, chunk))
        if table is None:
            while len(self._chunks) <= chunk:
                if self._rng is None:
                    self._rng = _generator(self.master_seed, self.trial_index, 0)
                self._chunks.append(self._rng.random(_PREFIX[len(self._chunks)]))
            margin = np.add.accumulate(np.where(self._chunks[chunk] < p, -1, 1))
            margin.flags.writeable = False  # every oracle of the trial reads the same table
            table = self._tables[(p, chunk)] = memoryview(margin)
        return table

    def continuation(self) -> np.random.Generator:
        """A private generator for the draws past the prefix: the trial's stream 0, standing at draw _PREFIX_LEN.

        The first caller once the prefix is drawn gets the generator that
        drew it; any other a new one, advanced: a double takes one output.
        """
        rng = self._rng
        if rng is not None and len(self._chunks) == len(_PREFIX):
            self._rng = None  # every chunk is drawn, so the prefix needs it no more
            return rng
        rng = _generator(self.master_seed, self.trial_index, 0)
        rng.bit_generator.advance(_PREFIX_LEN)
        return rng


class StopReport(NamedTuple):
    """Outcome of one stopped walk: the decision and the queries it consumed."""

    decision: int | bool
    queries_used: int


class _Reports(dict):
    """Shared reports by code 4 * queries + 2 * (a comparison) + decision, built at first use; holds 16,384 at most."""

    def __missing__(self, code: int) -> StopReport:
        if len(self) >= 1 << 14:
            self.clear()
        report = self[code] = tuple.__new__(StopReport, (bool(code & 1) if code & 2 else code & 1, code >> 2))
        return report


_REPORTS = _Reports()


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

    array = cached_property(lambda self: np.array(self.bits, dtype=np.int8))  # built at first use


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

    array = cached_property(lambda self: np.array(self.values))  # built at first use


class NoisyOracle:
    """Answers bit-read or comparison queries through a BSC(p) channel.

    One oracle serves one trial and is not safe for concurrent use;
    distinct trials get distinct oracles and may run fully in parallel.
    Channel noise and algorithm-level randomness come from separate
    streams keyed by ``(master_seed, trial_index)``, so consuming one
    never perturbs the other.  ``queries`` counts every query asked.

    ``draws`` is the trial's shared prefix of channel draws; an oracle
    given none makes its own, so it answers exactly as one that shares.

    A walk is asked alone (:meth:`walk`) or named in a run (:meth:`name_run`)
    and then taken (:meth:`take`); ``pending`` holds the reports not yet taken.
    """

    __slots__ = (
        "instance", "p", "master_seed", "trial_index", "queries",
        "_bits", "_values", "_n",  # the hidden instance
        "_draws", "_rng", "_chunk",  # the shared prefix, the private generator past it, the next chunk's number
        "_buf", "_pos",  # the current chunk and the next flip
        "pending", "_firsts", "_seconds", "_named_k", "_walk",  # the named run, and its next walk's number
        "_alg_rng",
    )  # fmt: skip

    def __init__(
        self,
        instance: BitInstance | ValueInstance,
        p: float,
        master_seed: int = 0,
        trial_index: int = 0,
        draws: TrialDraws | None = None,
    ) -> None:
        if not 0.0 < p < 0.5:
            raise ContractViolation(f"p must lie in (0, 1/2), got {p}")
        if draws is not None and (draws.master_seed, draws.trial_index) != (master_seed, trial_index):
            raise ContractViolation(
                f"draws of seed {draws.master_seed}, trial {draws.trial_index} "
                f"given to an oracle of seed {master_seed}, trial {trial_index}"
            )
        self.instance = instance
        self.p = p
        self.master_seed = master_seed
        self.trial_index = trial_index
        self._n = instance.n
        self.queries = 0
        # The instance's own tuples, read at i - 1: a trial copies nothing of size n.
        if isinstance(instance, BitInstance):
            self._bits: tuple[int, ...] | None = instance.bits
            self._values: tuple[float, ...] | None = None
        else:
            self._bits = None
            self._values = instance.values
        self._draws = TrialDraws(master_seed, trial_index) if draws is None else draws
        self._rng: np.random.Generator | None = None
        self._chunk = 0
        self._buf = memoryview(b"")
        self._pos = 0
        self.pending: list[StopReport] = []  # the reports of the named run's walks not yet taken, last first
        self._firsts, self._seconds, self._named_k, self._walk = (), None, 0, 0
        self._alg_rng: np.random.Generator | None = None

    # -- randomness plumbing -------------------------------------------------

    def _refill(self) -> None:
        # Chunk sizes follow a fixed schedule (64, 512, then 4096 flips),
        # and the channel draws one double per flip whatever the chunk
        # size, so the flip sequence is a pure function of
        # (master_seed, trial_index).  A chunk is kept as its running
        # margin: entry t is (unflipped - flipped) over flips 0..t of the
        # chunk, so a walk reads the margin of any run of flips as the
        # difference of two entries.  The first chunks are the shared
        # prefix's tables; the private generator is created at the first
        # chunk past them.
        chunk = self._chunk
        if chunk < len(_PREFIX):
            buf = self._draws.table(self.p, chunk)
        else:
            if self._rng is None:
                self._rng = self._draws.continuation()
            buf = memoryview(np.add.accumulate(np.where(self._rng.random(_BUF_CAP) < self.p, -1, 1)))
        self._buf = buf
        self._chunk = chunk + 1
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
        return self.walk(i, None, 1)[0]

    def compare(self, i: int, j: int) -> bool:
        """Ask whether values[i] < values[j] through the channel."""
        return self.walk(i, j, 1)[0]

    def walk(self, i: int, j: int | None, k: int) -> StopReport:
        """Repeat one query until the net vote reaches +k or -k; the decision is net vote > 0.

        ``j is None`` reads bit i (an int decision); otherwise each query
        asks whether values[i] < values[j]; a single query is a walk with k = 1.
        Answers, flip stream and query count end up exactly as after a loop of
        single queries; arguments are checked before anything moves, and a
        walk is refused while a named run has walks left.
        """
        truth = self._truth(i, j)
        if k < 1:
            raise ContractViolation(f"vote threshold must be >= 1, got {k}")
        if self.pending:
            raise ContractViolation(f"walk ({i}, {j}) asked while a named run has {len(self.pending)} walks left")
        up, t = self._jump(k)
        self.queries += t
        return _REPORTS[4 * t + (truth == up) + (0 if j is None else 2)]

    def name_run(self, firsts: Sequence[int], seconds: Sequence[int] | None, k: int) -> None:
        """Name the walks (firsts[w], seconds[w] or None for bit reads) at threshold k, to be taken in turn.

        Every walk is checked before anything moves.  The stops of _BATCH
        walks at a time are read ahead, moving the flip stream on, but each
        walk's queries are counted when it is taken.  An empty run does nothing.
        """
        if self.pending:
            raise ContractViolation(f"a run named while the last one has {len(self.pending)} walks left")
        if k < 1:
            raise ContractViolation(f"vote threshold must be >= 1, got {k}")
        if seconds is not None and len(seconds) != len(firsts):
            raise ContractViolation(f"a run of {len(firsts)} walks given {len(seconds)} second indices")
        self._firsts, self._seconds, self._named_k, self._walk = firsts, seconds, k, 0
        for start in range(_BATCH, len(firsts), _BATCH):
            self._batch(start)
        if len(firsts):
            self._batch(0, read=True)

    def take(self, i: int, j: int | None) -> StopReport:
        """The report of the named run's next walk, which must be walk (i, j), else this raises; counts its queries."""
        pending, w, seconds = self.pending, self._walk, self._seconds
        if not pending or i != self._firsts[w] or j != (None if seconds is None else seconds[w]):
            raise ContractViolation(f"walk ({i}, {j}) is not the next walk of a named run")
        self._walk = w + 1
        report = pending.pop()
        self.queries += report[1]
        if not pending and w + 1 < len(self._firsts):
            self._batch(w + 1, read=True)
        return report

    def _batch(self, start: int, read: bool = False) -> None:
        """Check walks start..start + _BATCH of the run, a bad one raising as alone; if ``read``, queue their reports.

        A batch of fewer than _PASS_MIN walks is checked and read a walk at a
        time, since numpy would cost more than it saves.
        """
        k, pairs = self._named_k, self._seconds is not None
        firsts = self._firsts[start : start + _BATCH]
        seconds = self._seconds[start : start + _BATCH] if pairs else [None] * len(firsts)
        if len(firsts) < _PASS_MIN:
            truths = [self._truth(i, j) for i, j in zip(firsts, seconds)]
            stops = [self._jump(k) for _ in truths] if read else []
            codes = [4 * t + (truth == up) + 2 * pairs for truth, (up, t) in zip(truths, stops)][::-1]
        else:
            f, s = _intp(firsts), _intp(seconds) if pairs else None
            bad = (f < 1) | (f > self._n) if s is None else (f < 1) | (f > self._n) | (s < 1) | (s > self._n) | (f == s)
            if bad.any() or (self._bits is None) != pairs:
                w = int(bad.argmax())
                self._truth(int(f[w]), int(s[w]) if pairs else None)  # raises as that walk would alone
            if not read:
                return
            table = self.instance.array
            truths = table[f - 1] if s is None else table[f - 1] < table[s - 1]
            ts, ups = self._run(k, len(f))
            codes = (4 * ts + (truths == ups) + 2 * pairs)[::-1].tolist()
        if read:
            self.pending = list(map(_REPORTS.__getitem__, codes))

    def _truth(self, i: int, j: int | None) -> int | bool:
        """The true answer of bit i, or of values[i] < values[j]; refuses bad arguments."""
        n = self._n
        if j is None:
            if self._bits is None:
                raise ContractViolation("read_bit requires an oracle over a BitInstance")
            if not 1 <= i <= n:
                raise ContractViolation(f"index {i} out of range 1..{n}")
            return self._bits[i - 1]
        if not (1 <= i <= n and 1 <= j <= n):
            raise ContractViolation(f"pair ({i}, {j}) out of range 1..{n}")
        if self._values is None:
            raise ContractViolation("compare requires an oracle over a ValueInstance")
        if i == j:
            raise ContractViolation(f"compare needs two distinct indices, got i = j = {i}")
        return self._values[i - 1] < self._values[j - 1]

    def _jump(self, k: int) -> tuple[bool, int]:
        """One walk from the next flip: (margin ended at +k, flips taken).  Moves the position; counts nothing.

        The margin m = (answers equal to the truth) - (flipped answers), the net
        vote when the truth is 1, is the table entry at a jump's last flip less
        base, the entry before the walk.  The walk cannot stop within k - |m|
        flips, so it jumps that far at a time, stopping short at the chunk's end,
        which is refilled only if the walk goes on, exactly where single queries
        would refill it; the next chunk counts from 0, so base becomes -m.
        """
        buf, pos = self._buf, self._pos
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
        return m > 0, t

    def _run(self, k: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` walks at threshold k from the next flip: each one's flips, and whether it ended at +k.

        Moves the position to the run's end; counts nothing.  From the
        table entry L before its first flip, a walk stops at the next flip
        where the margin hits L + kZ at a point other than the last one it
        hit.  A numpy pass reads those stops off the chunk, over about the
        flips the walks left need, extended if they need more.  A walk that
        crosses the chunk's end takes the jump loop, as do the last
        _PASS_MIN - 1 walks.
        """
        flips = k / (1.0 - 2.0 * self.p)  # a walk's expected flips, at most
        ts: list = []  # each walk's flips, and whether it ended up, a chunk of walks at a time
        ups: list = []
        hi = -1  # the end of the last pass, if it was in this chunk
        while count:
            buf, pos = self._buf, self._pos
            if hi == len(buf) or len(buf) - pos < k or count < _PASS_MIN:
                up, t = self._jump(k)
                ts.append((t,))
                ups.append((up,))
                count, hi = count - 1, -1  # the jump may have refilled: no pass has covered this chunk
                continue
            hi = min(len(buf), max(hi, pos) + int(count * flips) + k)
            seg = buf.obj[pos - 1 : hi]  # pos >= 1: a pass follows a walk in this chunk
            hits = _lattice(k)[seg - (seg[0] - _BUF_CAP)].nonzero()[0]
            levels = seg[hits]
            moves = (levels[1:] != levels[:-1]).nonzero()[0][:count]
            if len(moves):
                # A stop at entry h of seg ends its walk at flip pos + h.
                stops = hits[1:][moves]
                ts.append(stops - np.append(0, stops[:-1]))
                ups.append(levels[1:][moves] > levels[:-1][moves])
                count, self._pos = count - len(stops), pos + int(stops[-1])
        return np.concatenate(ts), np.concatenate(ups)


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
