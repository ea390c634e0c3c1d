"""Hierarchical range digests over a canonical pair set.

A :class:`PairSetDigest` summarizes a sorted (hash, entity, count) row
set so that the digest of *any* hash range ``[lo, hi)`` — and hence of
any node of the implicit partition-by-prefix tree — is O(log n): each
row is mixed into one 64-bit key (splitmix64 over hash, entity and
count, so a single flipped copy count changes the key completely), and
a prefix sum of the keys (mod 2^64) turns a range digest into two
binary searches and one subtraction.  Two row sets agree on a range iff
their (count, digest) pairs agree — with 64-bit mixed keys a collision
needs an adversarial 2^-64 event, and the byte-identity property tests
pin the end state regardless.

The sorted hash column is exactly what the columnar
:class:`~repro.dht.table.LocalDHT` already maintains (PR 1), so
building a digest is one vectorized pass; :class:`DigestCache` keys it
by shard epoch so steady-state reconciliations reuse it for free.  The
range methods are array-valued: the reconciliation descent summarizes a
whole tree level with one call per side.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.util.hashing import mix64

__all__ = ["PairSetDigest", "DigestCache", "HASH_SPACE"]

_U64 = np.uint64

#: One past the largest u64 hash — the root range is ``[0, HASH_SPACE)``.
HASH_SPACE = 1 << 64


class PairSetDigest:
    """Range-digestable view of canonical (hash, entity, count) rows.

    ``h`` must be sorted ascending (ties broken by entity, as
    :func:`repro.recon.diff.canonical_pairs` emits them).  The range
    methods take arrays of ranges and answer them all with one
    ``searchsorted`` per bound.  A range is given by its first hash
    ``lo`` and its *last* hash ``last`` (inclusive), so the top of the
    u64 space needs no 65-bit bound.
    """

    __slots__ = ("h", "e", "c", "_csum")

    def __init__(self, h: np.ndarray, e: np.ndarray, c: np.ndarray) -> None:
        self.h = np.asarray(h, dtype=_U64)
        self.e = np.asarray(e, dtype=np.int64)
        self.c = np.asarray(c, dtype=np.int64)
        # _csum[k] = sum of the first k row keys (mod 2^64), so a range
        # digest is one subtraction with no empty-prefix special case.
        self._csum = np.zeros(len(self.h) + 1, dtype=_U64)
        if len(self.h):
            key = mix64(self.h ^ mix64(
                (self.e.astype(_U64) << _U64(32)) ^ self.c.astype(_U64)))
            np.cumsum(key, dtype=_U64, out=self._csum[1:])

    def __len__(self) -> int:
        return len(self.h)

    @property
    def total_count(self) -> int:
        return int(self.c.sum()) if len(self.c) else 0

    def _bounds(self, lo, last) -> tuple[np.ndarray, np.ndarray]:
        i = np.searchsorted(self.h, np.asarray(lo, dtype=_U64), side="left")
        j = np.searchsorted(self.h, np.asarray(last, dtype=_U64),
                            side="right")
        return i, j

    def range_summaries(self, lo, last) -> tuple[np.ndarray, np.ndarray]:
        """``(n_rows, digest)`` arrays of the rows with hash in each
        ``[lo[k], last[k]]``; an empty range summarizes to ``(0, 0)``."""
        i, j = self._bounds(lo, last)
        return j - i, self._csum[j] - self._csum[i]

    def range_rows(self, lo, last) \
            -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows with hash in the disjoint ranges ``[lo[k], last[k]]``:
        each range's rows in canonical order, range after range in the
        order given, gathered with one fancy index per column."""
        i, j = self._bounds(lo, last)
        n = j - i
        idx = np.repeat(i - (np.cumsum(n) - n), n) + np.arange(n.sum())
        return self.h[idx], self.e[idx], self.c[idx]


class DigestCache:
    """Per-key digest memo invalidated by a version token.

    The engine keys entries by shard node id with the shard *epoch* as
    the token: every mutation path already bumps the epoch (that is
    what keeps the PR 5 result cache honest), so a hit is guaranteed to
    describe the shard's current rows.
    """

    def __init__(self) -> None:
        self._entries: dict[object, tuple[object, PairSetDigest]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: object, token: object,
            build: Callable[[], PairSetDigest]) -> PairSetDigest:
        hit = self._entries.get(key)
        if hit is not None and hit[0] == token:
            self.hits += 1
            return hit[1]
        self.misses += 1
        digest = build()
        self._entries[key] = (token, digest)
        return digest

    def invalidate(self, key: object) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()
