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

A trial's channel is held by one :class:`TrialDraws`, which every oracle
of that trial may share: a sweep runs each of its rows on the trial's one
set of draws, whatever p the row has.  Its first 4,672 draws, the prefix,
are read in shared chunks of 128, 448 and 4,096 flips; past it, each
oracle is handed private chunks of 8,192, drawn from the trial's one
generator.  An oracle holds a chunk's table and its position in it, no
generator.  A run of trials sets up their first chunks a block at a time
(:meth:`TrialDraws.block`).

A run of walks at one vote threshold is named first (:meth:`NoisyOracle.name_run`),
from integer arrays of indices, taken as they are, and read whole.  Its
stops are read in one numpy pass a chunk into two preallocated arrays, its
reports are one gather off a table of shared reports by code, and each
walk is taken as a ready report, checked against plain lists of the run's
indices.  The caller bounds a run's length; an empty run returns once
checked.

Indices are 1-based throughout, matching the usual [n] convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Collection, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolation

_BUF_CAP = 8192  # the flips of each private chunk, past the prefix; no chunk is longer
_PREFIX = (128, 448, 4096)  # the channel's first chunk sizes, shared by a trial's oracles
_PREFIX_LEN = sum(_PREFIX)
_PASS_MIN = 32  # a named run's stops are read in numpy passes while it has this many walks left
_WORD = 0xFFFFFFFF
_BLOCK = 1024  # trial indices seeded in one pass; divides 2**32
_SET_UP = 256  # trials whose first chunks TrialDraws.block draws and tabulates in one pass


@lru_cache(maxsize=256)
def _lattice(k: int) -> np.ndarray:
    """Mask over the margin offsets ±_BUF_CAP, from index 0: True at multiples of k; no chunk is longer."""
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


def _margins(draws: np.ndarray, p: float) -> np.ndarray:
    """The channel's running margin along the last axis: entry t is (unflipped - flipped) over draws 0..t."""
    margin = (draws >= p).astype(np.intp)  # a draw below p flips its answer
    margin += margin
    margin -= 1  # +1 for an unflipped answer, -1 for a flipped one
    np.add.accumulate(margin, axis=-1, out=margin)
    margin.flags.writeable = False  # a trial's tables are read by every oracle of the trial
    return margin


def _generator(master_seed: int, trial_index: int, stream: int) -> np.random.Generator:
    """``default_rng(SeedSequence((master_seed, trial_index, stream)))``, its state read off a block table."""
    if master_seed < 0 or trial_index < 0:
        raise ValueError(f"expected non-negative seed and trial, got {master_seed} and {trial_index}")
    block, row = divmod(trial_index, _BLOCK)
    return np.random.Generator(np.random.PCG64(_row_seed()(_block_states(master_seed, stream, block)[row])))


class TrialDraws:
    """One trial's channel, stream 0, in chunks; the first three are shared by every oracle of that trial.

    Prefix chunk c holds the next ``_PREFIX[c]`` doubles of the trial's
    stream-0 generator, drawn at first use; :meth:`table` keeps one
    running-margin table per (p, chunk).  So a trial's prefix costs 4,672
    doubles whatever the number of oracles that read it, plus one table a
    chunk for each distinct p.  A chunk past the prefix is drawn for its
    caller alone, from the same generator: asked for the chunk after the
    last one drawn, it streams on; asked for any other, :meth:`_seat`
    moves it there first.  So one oracle reading on builds one generator,
    and as every chunk is read at its own place in the stream, seating it
    past the prefix never moves a prefix chunk not yet drawn.
    """

    __slots__ = ("master_seed", "trial_index", "_rng", "_at", "_chunks", "_tables")

    def __init__(self, master_seed: int, trial_index: int) -> None:
        if master_seed < 0 or trial_index < 0:
            raise ContractViolation(f"seed and trial must be non-negative, got {master_seed} and {trial_index}")
        self.master_seed = master_seed
        self.trial_index = trial_index
        self._rng: np.random.Generator | None = None
        self._at = 0  # the draw _rng stands at
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
            trials = [cls(master_seed, t) for t in range(lo, min(lo + _SET_UP, stop))]
            first = np.empty((len(trials), _PREFIX[0]))
            for draws, row in zip(trials, first):
                draws._rng, draws._at = _generator(master_seed, draws.trial_index, 0), _PREFIX[0]
                draws._rng.random(out=row)
            first.flags.writeable = False
            tables = [(p, _margins(first, p)) for p in ps]
            for i in range(len(trials)):
                draws, trials[i] = trials[i], None  # the block keeps no trial once handed out
                draws._chunks.append(first[i])
                draws._tables = {(p, 0): memoryview(margin[i]) for p, margin in tables}
                yield draws

    def table(self, p: float, chunk: int) -> memoryview:
        """Chunk ``chunk``'s running margin at crossover p: entry t is (unflipped - flipped) over its flips 0..t."""
        table = self._tables.get((p, chunk))
        if table is None:
            if chunk >= len(_PREFIX):  # drawn for its caller, and not kept
                return memoryview(_margins(self._draw(_PREFIX_LEN + (chunk - len(_PREFIX)) * _BUF_CAP, _BUF_CAP), p))
            while len(self._chunks) <= chunk:
                c = len(self._chunks)
                self._chunks.append(self._draw(sum(_PREFIX[:c]), _PREFIX[c]))
            table = self._tables[(p, chunk)] = memoryview(_margins(self._chunks[chunk], p))
        return table

    def _draw(self, at: int, size: int) -> np.ndarray:
        """Draws at..at+size-1 of stream 0: read on if the generator stands at ``at``, else seated there first."""
        if self._rng is None or self._at != at:
            self._seat(at)
        self._at = at + size
        return self._rng.random(size)

    def _seat(self, at: int) -> None:
        """Stands ``_rng``, the trial's stream-0 generator, at draw ``at``: built at first use, else moved from _at."""
        if self._rng is None:
            self._rng, self._at = _generator(self.master_seed, self.trial_index, 0), 0
        self._rng.bit_generator.advance(at - self._at)  # a double takes one output; a step back wraps round


class StopReport(NamedTuple):
    """Outcome of one stopped walk: the decision and the queries it consumed."""

    decision: int | bool
    queries_used: int


_REPORTS_CAP = 1 << 14  # codes below it are shared: the dict and the dense table each hold 16,384 at most


class _Reports(dict):
    """Reports by code 4 * queries + 2 * (a comparison) + decision, one shared object per code below 16,384.

    A code below the cap (a walk of fewer than 4,096 queries) is stored at
    first use, so the dict never holds more than 16,384; a larger code gets
    a fresh report each time.  ``_dense`` holds the stored reports
    themselves as an object array by code, grown on demand to a power of
    two of at most 16,384, so a named run's are one gather.
    """

    _dense = np.empty(0, dtype=object)

    def __missing__(self, code: int) -> StopReport:
        report = tuple.__new__(StopReport, (bool(code & 1) if code & 2 else code & 1, code >> 2))
        if code < _REPORTS_CAP:
            self[code] = report
        return report

    def gather(self, codes: np.ndarray) -> list[StopReport]:
        """The reports of a nonempty array of codes; a code past the dense table's bound is looked up."""
        top = int(codes.max())
        if top >= len(self._dense):
            if top >= _REPORTS_CAP:
                return list(map(self.__getitem__, codes.tolist()))
            size = min(_REPORTS_CAP, 1 << top.bit_length())
            self._dense = np.fromiter(map(self.__getitem__, range(size)), dtype=object, count=size)
        return self._dense[codes].tolist()


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

    ``draws`` is the trial's channel draws, which its oracles may share; an
    oracle given none makes its own, so it answers exactly as one that shares.

    A walk is asked alone (:meth:`walk`) or named in a run (:meth:`name_run`)
    and then taken (:meth:`take`); ``pending`` holds the reports not yet taken.
    """

    __slots__ = (
        "instance", "p", "queries",
        "_bits", "_values", "_n",  # the hidden instance
        "_draws", "_chunk",  # the trial's draws, the next chunk's number
        "_buf", "_pos",  # the current chunk and the next flip
        "pending", "_firsts", "_seconds", "_walk",  # the named run's reports, its indices as lists, its next walk
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
        if draws is not None and (draws.master_seed != master_seed or draws.trial_index != trial_index):
            raise ContractViolation(
                f"draws of seed {draws.master_seed}, trial {draws.trial_index} "
                f"given to an oracle of seed {master_seed}, trial {trial_index}"
            )
        self.instance = instance
        self.p = p
        self.queries = 0
        # The instance's own tuples, read at i - 1: a trial copies nothing of size n.
        if isinstance(instance, BitInstance):
            self._bits: tuple[int, ...] | None = instance.bits
            self._values: tuple[float, ...] | None = None
            self._n = len(instance.bits)
        else:
            self._bits = None
            self._values = instance.values
            self._n = len(instance.values)
        self._draws = draws = TrialDraws(master_seed, trial_index) if draws is None else draws
        # A block's trials hold chunk 0's table at their rows' p; other draws tabulate it now.
        table = draws._tables.get((p, 0))
        self._buf = draws.table(p, 0) if table is None else table
        self._chunk = 1
        self._pos = 0
        # The reports of the named run's walks not yet taken, last first; a shared empty tuple until a run is named.
        self.pending: list[StopReport] | tuple[()] = ()
        self._alg_rng: np.random.Generator | None = None

    # -- randomness plumbing -------------------------------------------------

    def _refill(self) -> None:
        # Chunk sizes follow a fixed schedule (128, 448, 4096, then 8192 flips),
        # and the channel draws one double per flip whatever the chunk
        # size, so the flip sequence is a pure function of
        # (master_seed, trial_index).  A chunk is held as its running
        # margin: entry t is (unflipped - flipped) over flips 0..t of the
        # chunk, so a walk reads the margin of any run of flips as the
        # difference of two entries.  Every table, shared prefix or
        # private chunk past it, comes from the trial's draws; the oracle
        # starts on chunk 0's, so it first refills at chunk 1.
        self._buf = self._draws.table(self.p, self._chunk)
        self._chunk += 1
        self._pos = 0

    @property
    def algorithm_rng(self) -> np.random.Generator:
        """Deterministic stream for algorithm-level randomness (e.g. subsampling)."""
        if self._alg_rng is None:
            self._alg_rng = _generator(self._draws.master_seed, self._draws.trial_index, 1)
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

    def name_run(self, firsts: np.ndarray, seconds: np.ndarray | None, k: int) -> None:
        """Name the walks (firsts[w], seconds[w] or None for bit reads) at threshold k, to be taken in turn.

        The indices are 1-d integer numpy arrays, read as they are.  Every walk is
        checked, in walk order, before anything moves, so a bad run raises its
        first bad walk's message.  The stops of the whole run are then read
        ahead, moving the flip stream on, but each walk's queries are counted
        when it is taken.  The run is checked and read in numpy, whatever its
        length.  Its first and second indices (None for bit reads) are kept as
        plain lists, which :meth:`take` checks each walk against.  An empty
        run returns once its arguments are checked.
        """
        if self.pending:
            raise ContractViolation(f"a run named while the last one has {len(self.pending)} walks left")
        if k < 1:
            raise ContractViolation(f"vote threshold must be >= 1, got {k}")
        for indices in (firsts,) if seconds is None else (firsts, seconds):
            array = isinstance(indices, np.ndarray)
            if not array or indices.dtype.kind not in "iu" or indices.ndim != 1:
                got = f"a {indices.ndim}-d array of {indices.dtype}" if array else type(indices).__name__
                raise ContractViolation(f"a run's indices must be a 1-d integer array, got {got}")
        pairs = seconds is not None
        if pairs and len(seconds) != len(firsts):
            raise ContractViolation(f"a run of {len(firsts)} walks given {len(seconds)} second indices")
        if not len(firsts):
            return
        bad = (firsts < 1) | (firsts > self._n)
        if pairs:
            bad |= (seconds < 1) | (seconds > self._n) | (firsts == seconds)
        wrong_channel = (self._bits is None) != pairs
        if wrong_channel or bad.any():
            w = 0 if wrong_channel else int(bad.argmax())  # on the wrong channel, every walk is bad
            self._truth(int(firsts[w]), int(seconds[w]) if pairs else None)  # raises as that walk would alone
        table = self.instance.array
        truths = table[firsts - 1] if seconds is None else table[firsts - 1] < table[seconds - 1]
        ts, ups = self._run(k, len(firsts))
        pending = _REPORTS.gather((4 * ts + (truths == ups) + 2 * pairs)[::-1])
        self._firsts, self._walk, self.pending = firsts.tolist(), 0, pending
        self._seconds = seconds.tolist() if pairs else [None] * len(firsts)

    def take(self, i: int, j: int | None) -> StopReport:
        """The report of the named run's next walk, which must be walk (i, j), else this raises; counts its queries."""
        pending, w = self.pending, self._walk
        if not pending or i != self._firsts[w] or j != self._seconds[w]:
            raise ContractViolation(f"walk ({i}, {j}) is not the next walk of a named run")
        self._walk = w + 1
        report = pending.pop()
        self.queries += report[1]
        return report

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
        base, the entry before the walk, so the walk stops at entry base ± k.  It
        cannot stop within k - |m| flips, so it jumps that far at a time, stopping
        short at the chunk's end, which is refilled only if the walk goes on, as
        single queries would; a walk from the end refills before its first flip.
        The next chunk counts from 0: base and both bounds drop by the entry at
        the old chunk's end, and the walk's first position by the chunk's length.
        """
        buf, pos = self._buf, self._pos
        end, start = len(buf), pos  # the walk has taken pos - start flips
        m = base = buf[pos - 1] if pos else 0
        lo, hi = base - k, base + k
        while lo < m < hi:
            pos += hi - m if m > base else m - lo
            if pos < end:
                m = buf[pos - 1]
            else:
                pos, m = end, buf[end - 1]
                if lo < m < hi:  # the walk goes on past the chunk's end
                    self._refill()
                    buf, base, lo, hi, start = self._buf, base - m, lo - m, hi - m, start - end
                    end, pos, m = len(buf), 0, 0
        self._pos = pos
        return m > base, pos - start

    def _run(self, k: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` walks at threshold k from the next flip: each one's flips, and whether it ended at +k.

        Moves the position to the run's end; counts nothing.  From the
        table entry L before its first flip, a walk stops at the next flip
        where the margin hits L + kZ at a point other than the last one it
        hit.  A numpy pass reads those stops off the chunk, over about the
        flips the walks left need, extended if they need more.  A walk that
        crosses the chunk's end takes the jump loop, as do a walk from the
        chunk's first flip and the last _PASS_MIN - 1 walks.
        """
        flips = k / (1.0 - 2.0 * self.p)  # a walk's expected flips, at most
        ts = np.empty(count, dtype=np.intp)  # each walk's flips
        ups = np.empty(count, dtype=bool)  # whether each walk ended up
        done = 0
        hi = -1  # the end of the last pass, if it was in this chunk
        while done < count:
            left = count - done
            buf, pos = self._buf, self._pos
            if not pos or hi == len(buf) or len(buf) - pos < k or left < _PASS_MIN:
                ups[done], ts[done] = self._jump(k)
                done, hi = done + 1, -1  # the jump may have refilled: no pass has covered this chunk
                continue
            hi = min(len(buf), max(hi, pos) + int(left * flips) + k)
            seg = buf.obj[pos - 1 : hi]  # pos >= 1: a chunk's first walk takes the jump loop
            hits = _lattice(k)[seg - (seg[0] - _BUF_CAP)].nonzero()[0]
            levels = seg[hits]
            steps = levels[1:] - levels[:-1]  # 0 where the margin hit its last level again, else ±k
            moves = steps.nonzero()[0][:left]
            if len(moves):
                # A stop at entry h of seg ends its walk at flip pos + h.
                stops = hits[1:][moves]
                end = done + len(stops)
                ts[done] = stops[0]
                np.subtract(stops[1:], stops[:-1], out=ts[done + 1 : end])
                np.greater(steps[moves], 0, out=ups[done:end])
                done, self._pos = end, pos + int(stops[-1])
        return ts, ups


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
