"""A bounded least-recently-used memo for worker-local caches.

Worker processes keep a few content-addressed memos (compiled schedule
buffers, seed-free distsim payloads).  Each one holds at most ``limit``
entries and forgets the entry used least recently first, so a long campaign
cannot grow a worker without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUMemo(Generic[K, V]):
    """At most ``limit`` entries; a lookup refreshes, an insert evicts the oldest.

    Values must not be ``None``: :meth:`get` answers ``None`` for a miss.
    Callers own the contract that a stored value is never mutated.
    """

    __slots__ = ("limit", "_entries")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    def get(self, key: K) -> Optional[V]:
        """The value stored under ``key``, now the most recent, or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Store ``value`` as the most recent entry, evicting past ``limit``."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.limit:
            entries.popitem(last=False)

    def clear(self) -> None:
        """Forget every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
