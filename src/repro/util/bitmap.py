"""Entity bitmaps.

Each DHT entry maps a content hash to the *set of entities* believed to hold
a copy of the corresponding block.  The paper stores this set as a bitmap so
that an update's originator can, in principle, compute the exact target bit
(enabling future one-sided RDMA updates).  ``EntityBitmap`` reproduces that
representation: a growable array of 64-bit words indexed by entity ID.

Because an entity may hold *more than one copy* of the same content (the
``num_copies`` query counts copies, not entities), the bitmap is paired with
a sparse overflow table of per-entity reference counts for the rare entities
holding multiple replicas of one block.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

__all__ = ["EntityBitmap"]

_WORD_BITS = 64


class EntityBitmap:
    """A refcounted set of entity IDs with bitmap storage.

    The bitmap answers membership; ``_extra`` holds ``count - 1`` for
    entities with more than one copy, so a plain single-copy entry costs one
    bit and no dict space.
    """

    __slots__ = ("_words", "_count", "_extra")

    def __init__(self, entity_ids: Iterable[int] = ()) -> None:
        self._words = np.zeros(1, dtype=np.uint64)
        self._count = 0  # total copies across all entities
        self._extra: dict[int, int] | None = None
        for eid in entity_ids:
            self.add(eid)

    # -- core set operations ------------------------------------------------

    def _ensure(self, word_idx: int) -> None:
        if word_idx >= len(self._words):
            new = np.zeros(max(word_idx + 1, 2 * len(self._words)), dtype=np.uint64)
            new[: len(self._words)] = self._words
            self._words = new

    def add(self, entity_id: int) -> None:
        """Record one more copy held by ``entity_id``."""
        if entity_id < 0:
            raise ValueError("entity_id must be non-negative")
        w, b = divmod(entity_id, _WORD_BITS)
        self._ensure(w)
        mask = np.uint64(1 << b)
        if self._words[w] & mask:
            if self._extra is None:
                self._extra = {}
            self._extra[entity_id] = self._extra.get(entity_id, 0) + 1
        else:
            self._words[w] |= mask
        self._count += 1

    def discard(self, entity_id: int) -> bool:
        """Drop one copy for ``entity_id``; returns False if it held none."""
        w, b = divmod(entity_id, _WORD_BITS)
        if w >= len(self._words):
            return False
        mask = np.uint64(1 << b)
        if not (self._words[w] & mask):
            return False
        if self._extra and entity_id in self._extra:
            if self._extra[entity_id] == 1:
                del self._extra[entity_id]
            else:
                self._extra[entity_id] -= 1
        else:
            self._words[w] &= ~mask
        self._count -= 1
        return True

    def __contains__(self, entity_id: int) -> bool:
        w, b = divmod(entity_id, _WORD_BITS)
        if w >= len(self._words):
            return False
        return bool(self._words[w] & np.uint64(1 << b))

    def copies(self, entity_id: int) -> int:
        """Number of copies held by one entity."""
        if entity_id not in self:
            return 0
        return 1 + (self._extra.get(entity_id, 0) if self._extra else 0)

    # -- cardinalities --------------------------------------------------------

    @property
    def num_copies(self) -> int:
        """Total copies across all entities (>= num_entities)."""
        return self._count

    @property
    def num_entities(self) -> int:
        """Number of distinct entities holding at least one copy."""
        return int(np.bitwise_count(self._words).sum())

    def __len__(self) -> int:
        return self.num_entities

    def __bool__(self) -> bool:
        return self._count > 0

    # -- bulk/set algebra -----------------------------------------------------

    def _aligned(self, other: EntityBitmap) -> tuple[np.ndarray, np.ndarray]:
        n = max(len(self._words), len(other._words))
        a = np.zeros(n, dtype=np.uint64)
        b = np.zeros(n, dtype=np.uint64)
        a[: len(self._words)] = self._words
        b[: len(other._words)] = other._words
        return a, b

    def intersection_count(self, other: EntityBitmap) -> int:
        """|self ∩ other| over distinct entities (vectorized popcount)."""
        a, b = self._aligned(other)
        return int(np.bitwise_count(a & b).sum())

    def union_count(self, other: EntityBitmap) -> int:
        a, b = self._aligned(other)
        return int(np.bitwise_count(a | b).sum())

    def intersects(self, other: EntityBitmap) -> bool:
        a, b = self._aligned(other)
        return bool(np.any(a & b))

    def members_among(self, entity_ids: Iterable[int]) -> list[int]:
        """Subset of ``entity_ids`` that are members, preserving order."""
        return [eid for eid in entity_ids if eid in self]

    # -- iteration / conversion -----------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_array().tolist())

    def to_array(self) -> np.ndarray:
        """Distinct member entity IDs as a sorted uint64 array."""
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits).astype(np.uint64)

    def to_set(self) -> set[int]:
        return set(self.to_array().tolist())

    # -- sizing (for the allocator model) --------------------------------------

    def storage_bytes(self) -> int:
        """Bytes of payload this bitmap occupies (words + overflow entries)."""
        extra = len(self._extra) * 16 if self._extra else 0
        return self._words.nbytes + extra

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityBitmap):
            return NotImplemented
        a, b = self._aligned(other)
        mine = dict(self._extra or {})
        theirs = dict(other._extra or {})
        return bool(np.array_equal(a, b)) and mine == theirs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ids = self.to_array().tolist()
        shown = ids[:8]
        suffix = "..." if len(ids) > 8 else ""
        return f"EntityBitmap({shown}{suffix}, copies={self._count})"
