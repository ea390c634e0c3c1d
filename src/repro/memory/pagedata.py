"""Deterministic materialization of page bytes from content IDs.

The simulation identifies page content by a 64-bit ID.  When an experiment
or example needs *real bytes* — end-to-end checkpoint files on disk, real
zlib compression ratios — this module generates them deterministically from
the ID, so equal IDs always produce equal bytes and distinct IDs produce
distinct bytes (the ID is embedded verbatim in the page header).

Pages are generated with a controllable *compressibility*: a fraction of the
page is a repeating pattern (what gzip removes) and the rest is
PRNG-incompressible.  Workloads pick the fraction matching their character
(e.g. Moldy pages compress moderately, Nasty pages barely).

Content-defined chunking (docs/RECONCILIATION.md) runs the mapping the
other way: real bytes come first and need a content ID.  Those IDs are
*interned* — derived from an MD5 of the bytes with bit 63 set (synthetic
generators all allocate below 2**63, so the bit is a reliable
discriminator) and registered here so :func:`materialize_page` renders
them back verbatim.  Interned chunks may be any length; everything that
assumes ``len == page_size`` must check :func:`is_interned_id` first.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.util.hashing import md5_64

__all__ = [
    "materialize_page", "materialize_pages", "content_id_of_bytes_map",
    "intern_chunk", "is_interned_id", "interned_mask", "interned_bytes",
    "register_chunk",
    "reset_interned",
]

#: Interned content IDs carry this bit; synthetic IDs never do.
CHUNK_ID_BIT = 1 << 63

#: id -> bytes for every interned chunk seen by this process.
_INTERNED: dict[int, bytes] = {}


def intern_chunk(data: bytes) -> int:
    """Content-derived ID for a byte chunk, registered for materialization.

    Deterministic across processes: the same bytes always intern to the
    same ID, so chunked entities produce identical DHT rows wherever
    they are scanned.
    """
    cid = CHUNK_ID_BIT | (md5_64(data) >> 1)
    _INTERNED[cid] = bytes(data)
    return cid


def register_chunk(cid: int, data: bytes) -> None:
    """Re-register a chunk loaded from a checkpoint file (restore path)."""
    _INTERNED[int(cid)] = bytes(data)


def is_interned_id(content_id: int) -> bool:
    return bool(int(content_id) & CHUNK_ID_BIT)


def interned_mask(content_ids: np.ndarray) -> np.ndarray:
    """:func:`is_interned_id` over a ``uint64`` array."""
    return (np.asarray(content_ids, dtype=np.uint64)
            & np.uint64(CHUNK_ID_BIT)) != 0


def interned_bytes(content_id: int) -> bytes | None:
    """The registered bytes for an interned ID (None if never seen)."""
    return _INTERNED.get(int(content_id))


def reset_interned() -> None:
    """Drop the registry (test isolation)."""
    _INTERNED.clear()


# -- page filler: PCG64 seeded exactly as np.random.default_rng(cid) ------------
#
# The filler is pinned as a function of the content ID: the byte stream of
# ``np.random.default_rng(cid).integers(0, 256, n, dtype=np.uint8)``.  For
# the full byte range numpy draws those bytes four at a time from the
# 32-bit halves of PCG64's raw outputs, so they are the little-endian bytes
# of ``PCG64.random_raw``.  The (state, inc) numpy would seed is computed
# here from SeedSequence's hash mix and PCG64's ``srandom`` step, so one
# bit generator is reused for every page and the bytes do not depend on
# numpy's seeding code.  The SeedSequence constants below are numpy's
# (numpy/random/bit_generator.pyx); the multiplier is PCG64's 128-bit one.

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4           # SeedSequence pool size, in 32-bit words
_STATE_WORDS = 8    # PCG64 takes generate_state(4, uint64): 8 x 32 bits


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return out


# hashmix's constant advances once per call, independent of the data: the
# k-th call xors with consts[k] and multiplies by consts[k + 1].
_HC_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_HC_B = _hash_consts(_INIT_B, _MULT_B, _STATE_WORDS)


def _seed_words(lo, hi):
    """``SeedSequence(cid).generate_state(4, uint64)`` as eight 32-bit
    words, for ``cid = hi << 32 | lo``.

    Generic over Python ints (one ID) and ``uint64`` arrays of 32-bit
    values (a batch): every product is masked back to 32 bits, and two
    32-bit factors never overflow a ``uint64``.  SeedSequence coerces an
    ID below 2**32 to one entropy word and pads the pool with zeros, which
    is the same as a zero high word, so every ID takes one path.
    """
    a, b, m32 = _HC_A, _HC_B, _M32
    zero = lo & 0
    pool = [lo, hi, zero, zero]
    k = 0                       # hashmix calls so far
    for i in range(_POOL):
        v = ((pool[i] ^ a[k]) * a[k + 1]) & m32
        pool[i] = v ^ (v >> 16)
        k += 1
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v = ((pool[src] ^ a[k]) * a[k + 1]) & m32
                v ^= v >> 16
                k += 1
                r = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * v) & m32
                pool[dst] = r ^ (r >> 16)
    out = []
    for k in range(_STATE_WORDS):
        v = ((pool[k % _POOL] ^ b[k]) * b[k + 1]) & m32
        out.append(v ^ (v >> 16))
    return out


def _seed_state(cids):
    """PCG64 ``(state, inc)`` inputs: ``generate_state(4, uint64)``'s four
    64-bit words, generic like :func:`_seed_words`."""
    w = _seed_words(cids & _M32, cids >> 32)
    return [w[2 * i] | w[2 * i + 1] << 32 for i in range(4)]


def _srandom(s0: int, s1: int, i0: int, i1: int) -> tuple[int, int]:
    """PCG64's ``srandom`` on Python ints: ``(state, inc)`` for
    ``initstate = s0 << 64 | s1`` and ``initseq = i0 << 64 | i1``."""
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    return ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _M128, inc


def _check_args(page_size: int, compress_fraction: float) -> None:
    if page_size < 16:
        raise ValueError("page_size must be at least 16")
    if not 0.0 <= compress_fraction <= 1.0:
        raise ValueError("compress_fraction must be in [0, 1]")


def _render(cids: np.ndarray, states: Iterable[tuple[int, int, int, int]],
            page_size: int, compress_fraction: float) -> np.ndarray:
    """Synthetic pages for ``uint64`` IDs, one row each.

    Layout: an 8-byte header carrying the ID (guaranteeing distinct IDs
    give distinct bytes), then ``compress_fraction`` of the body as the
    repeated 8-byte word ``id ^ 0xA5..A5``, then the PCG64 filler for
    each row's :func:`_seed_state` words (one bit generator, reseeded per
    row).
    """
    n = len(cids)
    body_len = page_size - 8
    pat_len = int(body_len * compress_fraction)
    pages = np.empty((n, page_size), dtype=np.uint8)
    le = cids.astype("<u8")
    pages[:, :8] = le.view(np.uint8).reshape(n, 8)
    if pat_len:
        pattern = np.repeat((le ^ np.uint64(0xA5A5A5A5A5A5A5A5))[:, None],
                            -(-pat_len // 8), axis=1)
        pages[:, 8:8 + pat_len] = pattern.view(np.uint8)[:, :pat_len]
    rand_len = body_len - pat_len
    if rand_len:
        n_raw = -(-rand_len // 8)
        raw = np.empty((n, n_raw), dtype="<u8")
        bitgen = np.random.PCG64(0)
        inner = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "state": inner,
                "has_uint32": 0, "uinteger": 0}
        for i, words in enumerate(states):
            inner["state"], inner["inc"] = _srandom(*words)
            bitgen.state = full
            raw[i] = bitgen.random_raw(n_raw)
        pages[:, 8 + pat_len:] = raw.view(np.uint8)[:, :rand_len]
    return pages


def materialize_page(content_id: int, page_size: int = 4096,
                     compress_fraction: float = 0.5) -> bytes:
    """Deterministic bytes for one content ID (see :func:`_render` for
    the layout); interned IDs render their registered chunk verbatim."""
    _check_args(page_size, compress_fraction)
    cid = int(content_id) & (2**64 - 1)
    interned = _INTERNED.get(cid)
    if interned is not None:
        # Interned chunks render verbatim; their length is the chunk's
        # own (content-defined) size, not page_size.
        return interned
    return _render(np.array([cid], dtype=np.uint64), [_seed_state(cid)],
                   page_size, compress_fraction)[0].tobytes()


def materialize_pages(content_ids: np.ndarray, page_size: int = 4096,
                      compress_fraction: float = 0.5) -> list[bytes]:
    """Materialize many pages, each distinct ID rendered once per call.

    Equal to ``[materialize_page(c, ...) for c in content_ids]``; the
    synthetic pages are built as one ``(n, page_size)`` array.
    """
    _check_args(page_size, compress_fraction)
    ids = np.asarray(content_ids, dtype=np.uint64)
    uniq, inverse = np.unique(ids, return_inverse=True)
    rendered: list[bytes | None] = [None] * len(uniq)
    for at in np.flatnonzero(interned_mask(uniq)).tolist():
        rendered[at] = _INTERNED.get(int(uniq[at]))
    synthetic = [at for at, page in enumerate(rendered) if page is None]
    cids = uniq[synthetic]
    states = zip(*(w.tolist() for w in _seed_state(cids)))
    rows = _render(cids, states, page_size, compress_fraction)
    for at, row in zip(synthetic, rows):
        rendered[at] = row.tobytes()
    return [rendered[i] for i in inverse.tolist()]


def content_id_of_bytes_map(pages: list[bytes]) -> dict[bytes, int]:
    """Recover the ID embedded in materialized pages (restore-path checks)."""
    return {p: int.from_bytes(p[:8], "little") for p in pages}
