"""Test doubles of the channel: one that logs every walk it takes, one whose flips are scripted.

Tests watch an algorithm's queries through :class:`RecordingOracle` and
script the channel through :class:`ScriptedOracle`.  Both run the real
``NoisyOracle`` walks, alone or in named runs, with their argument
checks, jump loop and run passes.
"""

import numpy as np

from noisyquery.oracles import _PREFIX_LEN, NoisyOracle, TrialDraws


class RecordingOracle(NoisyOracle):
    """A :class:`NoisyOracle` whose ``walks`` lists each walk as ``(i, j, k, queries)``, in call order.

    ``j`` is None for a bit read, and a single query is a walk with
    k = 1.  A walk of a named run is listed when it is taken, with the
    run's k.  A walk that raises is not listed.
    """

    __slots__ = ("walks",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.walks: list[tuple[int, int | None, int, int]] = []

    def walk(self, i: int, j: int | None, k: int):
        report = super().walk(i, j, k)
        self.walks.append((i, j, k, report.queries_used))
        return report

    def take(self, i: int, j: int | None):
        k = self._named_k
        report = super().take(i, j)
        self.walks.append((i, j, k, report.queries_used))
        return report


class _ScriptedStream:
    """Stands in for a channel generator: draw t is 0.0 (below any p: a flip) if flip t is scripted, else 1.0."""

    def __init__(self, flips: np.ndarray, drawn: int) -> None:
        self.flips = flips
        self.drawn = drawn

    def random(self, size: int) -> np.ndarray:
        draws = np.ones(size)
        script = self.flips[self.drawn : self.drawn + size]
        draws[: len(script)][script] = 0.0
        self.drawn += size
        return draws


class _ScriptedDraws(TrialDraws):
    """A trial's draws read off a script: the shared prefix from flip 0, the continuation from flip _PREFIX_LEN."""

    __slots__ = ("flips",)

    def __init__(self, flips) -> None:
        super().__init__(0, 0)
        self.flips = np.asarray(flips, dtype=bool)
        self._rng = _ScriptedStream(self.flips, 0)  # the generator the prefix is drawn from

    def continuation(self) -> _ScriptedStream:
        return _ScriptedStream(self.flips, _PREFIX_LEN)


class ScriptedOracle(RecordingOracle):
    """A :class:`RecordingOracle` whose channel flips answer t exactly when ``flips[t]`` is true.

    Each answer is the truth XOR its flip.  Past the end of the script
    no answer is flipped, so ``ScriptedOracle(instance)`` is the
    noiseless channel.  The oracle's p, 0.25, sets only how far a named
    run's passes read, not which answers flip.  The script stands in for
    the oracle's draws, both the trial's shared prefix and the oracle's
    private continuation past it.
    """

    __slots__ = ()

    def __init__(self, instance, flips=()) -> None:
        super().__init__(instance, 0.25, draws=_ScriptedDraws(flips))
