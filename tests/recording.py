"""An oracle that logs every walk it takes, for tests that watch an algorithm's queries."""

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
