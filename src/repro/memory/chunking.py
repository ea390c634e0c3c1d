"""Content-defined chunking: Gear rolling-hash boundaries over byte streams.

Fixed ``page_size`` blocks hide redundancy that is not block-aligned: a
byte stream shifted by even one byte shares *zero* fixed blocks with
the original.  A :class:`ContentChunker` instead cuts where a rolling
hash of the last :data:`WINDOW` bytes hits a boundary pattern, so cut
points travel with the content — after an insertion or shift the
boundaries resynchronize within one chunk and everything downstream
matches again (the Shingling paper's motivation, PAPERS.md).

The hash is a vectorized Gear variant: each byte maps through a random
64-bit table and the window is combined by per-offset bit rotations, so
computing the hash at *every* position of an N-byte stream is
``WINDOW`` table-lookup XOR passes over NumPy arrays — no per-byte
Python loop.  Only the sparse boundary-candidate list (expected one per
``avg_size`` bytes) is walked in Python to enforce min/max chunk sizes.

Chunk identity is content-derived (:func:`repro.memory.pagedata.intern_chunk`),
so the same bytes chunk to the same IDs in every process — exactly the
property the DHT, checkpoint restore and the property tests rely on.
"""

from __future__ import annotations

import numpy as np

from repro.memory.pagedata import intern_chunk, materialize_pages

__all__ = ["ContentChunker", "make_chunker", "WINDOW"]

#: Rolling-hash window in bytes: a boundary depends on exactly the
#: WINDOW bytes before it, which is what makes cuts shift-invariant.
WINDOW = 8

_U64 = np.uint64
_M64 = (1 << 64) - 1


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    k &= 63
    if k == 0:
        return x
    return (x << _U64(k)) | (x >> _U64(64 - k))


class ContentChunker:
    """Deterministic content-defined chunker.

    ``avg_size`` must be a power of two (the boundary test masks the
    rolling hash with ``avg_size - 1``, giving a 1/avg_size cut
    probability per position); ``min_size``/``max_size`` clamp the
    pathological tails (all-boundary / no-boundary content).
    """

    def __init__(self, avg_size: int = 4096, min_size: int | None = None,
                 max_size: int | None = None, seed: int = 0x5EED) -> None:
        if avg_size < 64 or avg_size & (avg_size - 1):
            raise ValueError(f"avg_size must be a power of two >= 64, "
                             f"got {avg_size}")
        self.avg_size = avg_size
        self.min_size = max(WINDOW, avg_size // 4) if min_size is None \
            else min_size
        self.max_size = avg_size * 4 if max_size is None else max_size
        if not WINDOW <= self.min_size <= self.max_size:
            raise ValueError(f"need {WINDOW} <= min_size <= max_size, got "
                             f"min={self.min_size} max={self.max_size}")
        self.seed = seed
        self._mask = _U64(avg_size - 1)
        # One rotated copy of the 256-entry gear table per window offset:
        # rotating the table instead of the stream keeps each pass a
        # single fancy-index + XOR over the whole byte array.
        from repro.util.hashing import mix64
        gear = mix64(np.arange(256, dtype=_U64)
                     ^ _U64((seed * 0x9E3779B97F4A7C15) & _M64))
        self._tables = [_rotl(gear, 8 * k) for k in range(WINDOW)]

    # -- boundary detection -------------------------------------------------------

    def cut_points(self, data: bytes) -> list[int]:
        """End offsets of every chunk of ``data`` (last one == len(data))."""
        n = len(data)
        if n == 0:
            return []
        buf = np.frombuffer(data, dtype=np.uint8)
        h = np.zeros(n, dtype=_U64)
        with np.errstate(over="ignore"):
            for k, table in enumerate(self._tables):
                if k == 0:
                    h ^= table[buf]
                else:
                    h[k:] ^= table[buf[:-k]]
        # A hash hit at position i cuts *after* byte i; positions inside
        # the first window have partial context and never cut.
        cand = (np.flatnonzero((h & self._mask) == 0) + 1).tolist()
        cuts: list[int] = []
        last = 0
        for c in cand:
            if c <= WINDOW or c >= n:
                continue
            while c - last > self.max_size:
                cuts.append(last + self.max_size)
                last += self.max_size
            if c - last >= self.min_size:
                cuts.append(c)
                last = c
        while n - last > self.max_size:
            cuts.append(last + self.max_size)
            last += self.max_size
        cuts.append(n)
        return cuts

    def chunk_bytes(self, data: bytes) -> list[bytes]:
        """Split ``data`` into content-defined chunks."""
        out = []
        start = 0
        for end in self.cut_points(data):
            out.append(data[start:end])
            start = end
        return out

    # -- entity integration -------------------------------------------------------

    def chunk_pages(self, pages: np.ndarray, page_size: int) \
            -> tuple[np.ndarray, np.ndarray]:
        """Chunk an entity's materialized byte stream.

        ``pages`` are content IDs; the stream is their materialized
        concatenation (interned byte chunks render verbatim, synthetic
        IDs render as deterministic ``page_size`` pages).  Returns
        ``(chunk_ids, chunk_sizes)`` — the IDs are interned, so the DHT
        rows they produce are stable across processes and restarts.
        """
        stream = b"".join(materialize_pages(pages, page_size))
        chunks = self.chunk_bytes(stream)
        ids = np.fromiter((intern_chunk(ch) for ch in chunks),
                          dtype=_U64, count=len(chunks))
        sizes = np.fromiter((len(ch) for ch in chunks),
                            dtype=np.int64, count=len(chunks))
        return ids, sizes


def make_chunker(scheme: str, page_size: int = 4096,
                 seed: int = 0x5EED) -> ContentChunker | None:
    """``"fixed"`` -> None (per-page hashing, the pre-PR behavior);
    ``"cdc"`` -> a ContentChunker with avg chunk size == page_size."""
    if scheme == "fixed":
        return None
    if scheme == "cdc":
        return ContentChunker(avg_size=page_size, seed=seed)
    raise ValueError(f"unknown chunking scheme {scheme!r}; "
                     f"expected 'fixed' or 'cdc'")
