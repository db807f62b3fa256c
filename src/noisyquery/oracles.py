"""Ground-truth instances and the noisy query channel.

A :class:`NoisyOracle` wraps one hidden instance for one trial.  Every
answered query passes through a binary symmetric channel with crossover
probability ``p`` and is counted in a :class:`QueryLedger` before the
answer is returned.  Randomness is fully determined by
``(master_seed, trial_index)``, so trials replay bit-identically and can
be scheduled in any order.

Indices are 1-based throughout, matching the usual [n] convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "BitInstance",
    "ForcedResponseStream",
    "NoisyOracle",
    "QueryLedger",
    "ValueInstance",
    "make_instance_max",
    "make_instance_or",
]

_BUF_START = 64
_BUF_CAP = 16384


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
    """A hidden vector of pairwise-distinct reals; the target is the argmax index."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ContractViolation("ValueInstance needs at least one value")
        vals = tuple(float(v) for v in self.values)
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


class QueryLedger:
    """Monotone query counters: total, per index (bit reads), per unordered pair (comparisons)."""

    __slots__ = ("total", "_per_index", "_per_pair")

    def __init__(self, n: int) -> None:
        self.total = 0
        self._per_index = [0] * (n + 1)
        self._per_pair: dict[tuple[int, int], int] = {}

    @property
    def per_index(self) -> dict[int, int]:
        """Read counts by index (indices with zero reads omitted)."""
        return {i: c for i, c in enumerate(self._per_index) if c > 0}

    @property
    def per_pair(self) -> dict[tuple[int, int], int]:
        """Comparison counts by unordered pair, keyed (min, max)."""
        return dict(self._per_pair)

    def component_total(self) -> int:
        """Sum of the per-index and per-pair entries; always equals ``total``."""
        return sum(self._per_index) + sum(self._per_pair.values())


@dataclass
class ForcedResponseStream:
    """Scripted answers consumed in order, replacing the random channel in tests.

    Each entry is the literal answer the oracle will return (``True``/1
    for a bit read of 1 or a "less-than" comparison).  The ledger still
    counts every answer.  Exhausting the script is a contract
    violation: scripted traces must cover every query they provoke.
    """

    answers: Sequence[bool]
    _cursor: int = field(default=0, repr=False)

    def take(self) -> bool:
        if self._cursor >= len(self.answers):
            raise ContractViolation(
                f"forced response stream exhausted after {len(self.answers)} answers"
            )
        ans = bool(self.answers[self._cursor])
        self._cursor += 1
        return ans

    @property
    def remaining(self) -> int:
        return len(self.answers) - self._cursor


class NoisyOracle:
    """Answers bit-read or comparison queries through a BSC(p) channel.

    One oracle serves one trial and is not safe for concurrent use;
    distinct trials get distinct oracles and may run fully in parallel.
    Channel noise and algorithm-level randomness come from separate
    streams keyed by ``(master_seed, trial_index)``, so consuming one
    never perturbs the other.
    """

    __slots__ = (
        "instance",
        "p",
        "master_seed",
        "trial_index",
        "ledger",
        "_bits",
        "_values",
        "_n",
        "_forced",
        "_noiseless",
        "_rng",
        "_buf",
        "_pos",
        "_bufsize",
        "_alg_rng",
    )

    def __init__(
        self,
        instance: BitInstance | ValueInstance,
        p: float,
        master_seed: int = 0,
        trial_index: int = 0,
        *,
        forced: ForcedResponseStream | None = None,
        allow_noiseless: bool = False,
    ) -> None:
        if p == 0.0:
            if not allow_noiseless:
                raise ContractViolation(
                    "p = 0 is a test-only channel; pass allow_noiseless=True to permit it"
                )
        elif not 0.0 < p < 0.5:
            raise ContractViolation(f"p must lie in (0, 1/2), got {p}")
        self.instance = instance
        self.p = p
        self.master_seed = master_seed
        self.trial_index = trial_index
        self._n = instance.n
        self.ledger = QueryLedger(self._n)
        if isinstance(instance, BitInstance):
            self._bits: list[int] | None = [0, *instance.bits]
            self._values: list[float] | None = None
        else:
            self._bits = None
            self._values = [0.0, *instance.values]
        self._forced = forced
        self._noiseless = p == 0.0
        self._rng: np.random.Generator | None = None
        self._buf: list[bool] = []
        self._pos = 0
        self._bufsize = _BUF_START
        self._alg_rng: np.random.Generator | None = None

    # -- randomness plumbing -------------------------------------------------

    def _refill(self) -> None:
        # Channel stream is lazily created so forced/noiseless oracles never
        # touch the RNG; buffer sizes follow a fixed growth schedule, making
        # the flip sequence a pure function of (master_seed, trial_index).
        if self._rng is None:
            self._rng = np.random.default_rng(
                np.random.SeedSequence((self.master_seed, self.trial_index, 0))
            )
        self._bufsize = size = min(self._bufsize * 8, _BUF_CAP)
        self._buf = (self._rng.random(size) < self.p).tolist()
        self._pos = 0

    @property
    def algorithm_rng(self) -> np.random.Generator:
        """Deterministic stream for algorithm-level randomness (e.g. subsampling)."""
        if self._alg_rng is None:
            self._alg_rng = np.random.default_rng(
                np.random.SeedSequence((self.master_seed, self.trial_index, 1))
            )
        return self._alg_rng

    # -- queries ---------------------------------------------------------------

    def read_bit(self, i: int) -> int:
        """Read bit i through the channel; increments the ledger, then answers."""
        bits = self._bits
        if bits is None:
            raise ContractViolation("read_bit requires an oracle over a BitInstance")
        if not 1 <= i <= self._n:
            raise ContractViolation(f"index {i} out of range 1..{self._n}")
        ledger = self.ledger
        ledger.total += 1
        ledger._per_index[i] += 1
        if self._forced is not None:
            return int(self._forced.take())
        if self._noiseless:
            return bits[i]
        pos = self._pos
        if pos >= len(self._buf):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return bits[i] ^ self._buf[pos]

    def compare(self, i: int, j: int) -> bool:
        """Ask whether values[i] < values[j] through the channel."""
        values = self._values
        if values is None:
            raise ContractViolation("compare requires an oracle over a ValueInstance")
        if i == j:
            raise ContractViolation(f"compare needs two distinct indices, got i = j = {i}")
        if not (1 <= i <= self._n and 1 <= j <= self._n):
            raise ContractViolation(f"pair ({i}, {j}) out of range 1..{self._n}")
        ledger = self.ledger
        ledger.total += 1
        key = (i, j) if i < j else (j, i)
        pairs = ledger._per_pair
        pairs[key] = pairs.get(key, 0) + 1
        if self._forced is not None:
            return self._forced.take()
        truth = values[i] < values[j]
        if self._noiseless:
            return truth
        pos = self._pos
        if pos >= len(self._buf):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return truth ^ self._buf[pos]

    def walk(self, i: int, j: int, k: int) -> tuple[bool, int]:
        """Repeat one query until the net vote reaches +k or -k: (net vote > 0, queries).

        ``j == 0`` reads bit i; otherwise each query asks whether
        values[i] < values[j].  Answers, flip stream and ledger end up
        exactly as after the same loop of :meth:`read_bit` or
        :meth:`compare` calls; the ledger is updated once per walk.
        """
        if j == 0:
            bits = self._bits
            if bits is None:
                raise ContractViolation("read_bit requires an oracle over a BitInstance")
            if not 1 <= i <= self._n:
                raise ContractViolation(f"index {i} out of range 1..{self._n}")
            truth = bits[i] == 1
        else:
            values = self._values
            if values is None:
                raise ContractViolation("compare requires an oracle over a ValueInstance")
            if i == j:
                raise ContractViolation(f"compare needs two distinct indices, got i = j = {i}")
            if not (1 <= i <= self._n and 1 <= j <= self._n):
                raise ContractViolation(f"pair ({i}, {j}) out of range 1..{self._n}")
            truth = values[i] < values[j]
        if k < 1:
            raise ContractViolation(f"vote threshold must be >= 1, got {k}")

        if self._forced is not None:
            take = self._forced.take
            d = t = 0
            try:
                while -k < d < k:
                    t += 1
                    d += 1 if take() else -1
            finally:  # an exhausted script still counts the query it failed to answer
                self._count(i, j, t)
            return d > 0, t
        if self._noiseless:
            self._count(i, j, k)
            return truth, k

        # Walk the margin m = (answers equal to the truth) - (flipped answers)
        # over the flip buffer; the net vote is m when the truth is 1, else -m.
        buf, pos = self._buf, self._pos
        end = len(buf)
        start = pos
        t = m = 0
        while -k < m < k:
            if pos == end:
                t += pos - start
                self._refill()
                buf, pos, start = self._buf, 0, 0
                end = len(buf)
            m += -1 if buf[pos] else 1
            pos += 1
        self._pos = pos
        t += pos - start
        self._count(i, j, t)
        return truth == (m > 0), t

    def _count(self, i: int, j: int, t: int) -> None:
        ledger = self.ledger
        ledger.total += t
        if j == 0:
            ledger._per_index[i] += t
        else:
            key = (i, j) if i < j else (j, i)
            pairs = ledger._per_pair
            pairs[key] = pairs.get(key, 0) + t


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
    raise ContractViolation(f"unknown OR instance family {family!r}")


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
    raise ContractViolation(f"unknown MAX instance family {family!r}")
