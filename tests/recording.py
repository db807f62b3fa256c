"""Test doubles of the channel: one that logs every walk it takes, one whose flips are scripted.

Tests watch an algorithm's queries through :class:`RecordingOracle` and
script the channel through :class:`ScriptedOracle`.  Both run the real
``NoisyOracle.walk``, with its argument checks, jump loop and run scan.
"""

import numpy as np

from noisyquery.oracles import NoisyOracle


class RecordingOracle(NoisyOracle):
    """A :class:`NoisyOracle` whose ``walks`` lists each walk as ``(i, j, k, queries)``, in call order.

    ``j`` is None for a bit read, and a single query is a walk with
    k = 1.  A walk that raises is not listed.
    """

    __slots__ = ("walks",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.walks: list[tuple[int, int | None, int, int]] = []

    def walk(self, i: int, j: int | None, k: int) -> tuple[bool, int]:
        decision, queries = super().walk(i, j, k)
        self.walks.append((i, j, k, queries))
        return decision, queries


class _ScriptedDraws:
    """Stands in for the channel's generator: draw t is 0.0 (below any p: a flip) if flip t is scripted, else 1.0."""

    def __init__(self, flips) -> None:
        self.flips = np.asarray(flips, dtype=bool)
        self.drawn = 0

    def random(self, size: int) -> np.ndarray:
        draws = np.ones(size)
        script = self.flips[self.drawn : self.drawn + size]
        draws[: len(script)][script] = 0.0
        self.drawn += size
        return draws


class ScriptedOracle(RecordingOracle):
    """A :class:`RecordingOracle` whose channel flips answer t exactly when ``flips[t]`` is true.

    Each answer is the truth XOR its flip.  Past the end of the script
    no answer is flipped, so ``ScriptedOracle(instance)`` is the
    noiseless channel.  The oracle's p, 0.25, sets only when a run of
    walks is scanned, not which answers flip.
    """

    __slots__ = ()

    def __init__(self, instance, flips=()) -> None:
        super().__init__(instance, 0.25)
        self._rng = _ScriptedDraws(flips)
