"""Collective checkpointing (paper §6).

Goal: "checkpoint the memory of a set of SEs (processes, VMs) such that
each replicated memory block (e.g., page) is stored exactly once."

Checkpoint format (paper Fig 13): one *shared content file* holds one copy
of each distinct block the collective phase handled; each SE has its own
*checkpoint file* whose per-block entries are either a pointer into the
shared content file or — for content ConCORD was unaware of (the
best-effort gap) — the block's literal content.  ``1:E:3`` means page 1 of
the SE holds content with hash E stored as block 3 of the shared file.

The shared file is an append-only log with atomic multi-writer append, the
only facility §6.1 requires of the parallel filesystem.

Restore walks an SE's checkpoint file, following pointers into the shared
file — implemented here (:func:`restore_entity`) and property-tested to be
the identity under arbitrary staleness.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.command import (ExecMode, NodeContext, ServiceCallbacks,
                                read_blocks)
from repro.core.scope import EntityRole
from repro.memory.entity import Entity
from repro.memory.nsm import BlockRef
from repro.memory.pagedata import (intern_chunk, interned_mask,
                                   is_interned_id, materialize_pages,
                                   register_chunk)
from repro.sim.cluster import Cluster
from repro.util.hashing import page_hashes

__all__ = [
    "SharedContentFile",
    "SECheckpointFile",
    "CheckpointStore",
    "CollectiveCheckpoint",
    "RawCheckpoint",
    "restore_entity",
    "blocks_to_pages",
]

_PTR_RECORD_BYTES = 4 + 8 + 8        # page idx, hash, shared-file offset
_DATA_RECORD_HEADER = 4 + 8 + 4      # page idx, hash, length
_FILE_HEADER_BYTES = 32

#: Pages rendered per ``write`` (and blocks per ``read``) when a container
#: streams its pages: at most 1 MiB of 4 KiB pages in flight.
IO_CHUNK_PAGES = 256

# On-disk layouts (little-endian, packed).
_SHARED_HEADER = struct.Struct("<4sIQ")   # magic, page_size, n_blocks
_SE_HEADER = struct.Struct("<4sIIQ")      # magic, entity, page_size, n_records
_BLOCK_V2 = struct.Struct("<QI")          # v2 shared block: id, length
_DATA_V1 = struct.Struct("<BIQI")         # 1, page idx, hash, length
_DATA_V2 = struct.Struct("<BIQQI")        # 1, page idx, hash, id, length
#: A pointer record, ``<BIQQ``: kind 0, page idx, hash, shared offset.
_PTR = np.dtype([("kind", "u1"), ("idx", "<u4"), ("hash", "<u8"),
                 ("off", "<u8")])
_MIN_RECORD = _DATA_V1.size               # smallest record: empty v1 data

_KIND_CODES = {"ptr": 0, "data": 1}
_KIND_NAMES = ("ptr", "data")
#: Record kind by "is covered" (0 = literal data, 1 = pointer).
_RECORD_KINDS = np.array(["data", "ptr"], dtype=object)


class SharedContentFile:
    """The shared content file: an atomic-append log of distinct blocks."""

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self.blocks: list[int] = []          # content IDs, by offset
        self._offset_of: dict[int, int] = {}  # content hash -> offset

    def append(self, content_hash: int, content_id: int) -> int:
        """Atomically append one block; returns its offset (block index).

        Idempotent per hash: a second append of the same content returns
        the existing offset (the multi-writer log needs no stronger
        guarantee).
        """
        h = int(content_hash)
        existing = self._offset_of.get(h)
        if existing is not None:
            return existing
        offset = len(self.blocks)
        self.blocks.append(int(content_id))
        self._offset_of[h] = offset
        return offset

    def extend(self, hashes: list[int], content_ids: list[int]) -> list[int]:
        """:meth:`append` each block in order; returns their offsets."""
        if (len(set(hashes)) < len(hashes)
                or not self._offset_of.keys().isdisjoint(hashes)):
            return list(map(self.append, hashes, content_ids))
        offsets = list(range(len(self.blocks),
                             len(self.blocks) + len(hashes)))
        self.blocks.extend(content_ids)
        self._offset_of.update(zip(hashes, offsets))
        return offsets

    @classmethod
    def from_blocks(cls, page_size: int, hashes: np.ndarray,
                    content_ids: np.ndarray) -> SharedContentFile:
        """A file holding ``content_ids`` in order, keyed by ``hashes``
        (which must be distinct: see :meth:`append`)."""
        f = cls(page_size)
        f.blocks = content_ids.tolist()
        f._offset_of = dict(zip(hashes.tolist(), range(len(f.blocks))))
        return f

    def offset_of(self, content_hash: int) -> int | None:
        return self._offset_of.get(int(content_hash))

    def read(self, offset: int) -> int:
        return self.blocks[offset]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def size_bytes(self) -> int:
        return _FILE_HEADER_BYTES + self.n_blocks * self.page_size


@dataclass
class SECheckpointFile:
    """One SE's checkpoint file: pointer or content records per block."""

    entity_id: int
    page_size: int
    # ('ptr', page_idx, hash, offset) | ('data', page_idx, hash, content_id)
    records: list[tuple] = field(default_factory=list)

    def add_pointer(self, page_idx: int, content_hash: int, offset: int) -> None:
        self.records.append(("ptr", page_idx, int(content_hash), int(offset)))

    def add_data(self, page_idx: int, content_hash: int, content_id: int) -> None:
        self.records.append(("data", page_idx, int(content_hash), int(content_id)))

    @property
    def n_pointer_records(self) -> int:
        # 'bptr' (incremental base pointers) cost the same as 'ptr'.
        return sum(1 for r in self.records if r[0] in ("ptr", "bptr"))

    @property
    def n_data_records(self) -> int:
        return sum(1 for r in self.records if r[0] == "data")

    @property
    def size_bytes(self) -> int:
        return (_FILE_HEADER_BYTES
                + self.n_pointer_records * _PTR_RECORD_BYTES
                + self.n_data_records * (_DATA_RECORD_HEADER + self.page_size))


class CheckpointStore:
    """A complete collective checkpoint: shared file + per-SE files."""

    def __init__(self, page_size: int = 4096,
                 compress_fraction: float = 0.5) -> None:
        self.page_size = page_size
        self.compress_fraction = compress_fraction
        self.shared = SharedContentFile(page_size)
        self.se_files: dict[int, SECheckpointFile] = {}
        # Backing directory when the store was opened persistent; None
        # for a purely in-memory store (see open_dir / save).
        self.dir: Path | None = None

    @classmethod
    def open_dir(cls, path: str | Path, page_size: int = 4096,
                 compress_fraction: float = 0.5) -> CheckpointStore:
        """Open a directory-backed store: load the checkpoint already
        there (if any), else start empty; either way :meth:`save` writes
        back to the same place.  The persistence entry point the serve
        path uses alongside durable shard storage (docs/STORAGE.md)."""
        d = Path(path)
        if (d / "shared.bin").exists():
            store = cls.load_from_dir(d, compress_fraction)
        else:
            store = cls(page_size, compress_fraction)
        store.dir = d
        return store

    def save(self, canonical: bool = False) -> Path:
        """Write the store back to its backing directory (see
        :meth:`open_dir`); returns the directory.  Raises
        ``RuntimeError`` for an in-memory store."""
        if self.dir is None:
            raise RuntimeError(
                "this CheckpointStore has no backing directory; open it "
                "with CheckpointStore.open_dir(path) or use "
                "write_to_dir(path) explicitly")
        self.write_to_dir(self.dir, canonical=canonical)
        return self.dir

    def se_file(self, entity_id: int) -> SECheckpointFile:
        f = self.se_files.get(entity_id)
        if f is None:
            f = SECheckpointFile(entity_id, self.page_size)
            self.se_files[entity_id] = f
        return f

    # -- sizes (Fig 14's four strategies) ------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return sum(len(f.records) for f in self.se_files.values())

    @property
    def raw_size_bytes(self) -> int:
        """Size of the obvious design: every SE saves every block."""
        return (len(self.se_files) * _FILE_HEADER_BYTES
                + self.total_blocks * (self.page_size + _DATA_RECORD_HEADER))

    @property
    def concord_size_bytes(self) -> int:
        return (self.shared.size_bytes
                + sum(f.size_bytes for f in self.se_files.values()))

    @property
    def compression_ratio(self) -> float:
        """ConCORD checkpoint size over raw size (Fig 14's y-axis)."""
        raw = self.raw_size_bytes
        return 1.0 if raw == 0 else self.concord_size_bytes / raw

    def gzip_sizes_model(self, content_ratio: float) -> tuple[int, int]:
        """(raw+gzip, concord+gzip) sizes under the modelled gzip ratio.

        gzip's 32 KB window removes within-page redundancy (content_ratio)
        but almost none of the page-granularity duplication ConCORD
        targets, so raw-gzip scales with raw size.
        """
        raw_gzip = int(self.raw_size_bytes * content_ratio)
        ptr_bytes = sum(f.n_pointer_records * _PTR_RECORD_BYTES
                        for f in self.se_files.values())
        data_bytes = sum(f.n_data_records * (self.page_size + _DATA_RECORD_HEADER)
                         for f in self.se_files.values())
        concord_gzip = int(self.shared.size_bytes * content_ratio
                           + ptr_bytes + data_bytes * content_ratio)
        return raw_gzip, concord_gzip

    def gzip_sizes_real(self) -> tuple[int, int]:
        """(raw+gzip, concord+gzip) with real zlib over materialized bytes."""
        raw_ids, leftover_ids = [], []
        for f in self.se_files.values():
            for kind, _idx, _h, payload in f.records:
                if kind == "data":
                    raw_ids.append(payload)
                    leftover_ids.append(payload)
                else:
                    raw_ids.append(self.shared.read(payload))

        def render(ids: list[int]) -> bytes:
            return b"".join(materialize_pages(
                np.asarray(ids, dtype=np.uint64), self.page_size,
                self.compress_fraction))

        raw_gzip = len(zlib.compress(render(raw_ids), 6))
        ptr_bytes = sum(f.n_pointer_records * _PTR_RECORD_BYTES
                        for f in self.se_files.values())
        concord_gzip = (len(zlib.compress(render(self.shared.blocks)
                                          + render(leftover_ids), 6))
                        + ptr_bytes)
        return raw_gzip, concord_gzip

    # -- on-disk serialization (byte mode) ----------------------------------------------------
    # v1 (CCSH/CCSE): fixed page_size blocks, content ID recovered from
    # the page header — byte-identical to the pre-chunking format and
    # used whenever no interned (content-defined chunk) ID appears.
    # v2 (CCS2/CCE2): length-prefixed blocks with an explicit content ID,
    # required because interned chunks are variable-sized and carry no
    # embedded ID (docs/RECONCILIATION.md).

    _SHARED_MAGIC = b"CCSH"
    _SHARED_MAGIC_V2 = b"CCS2"
    _SE_MAGIC = b"CCSE"
    _SE_MAGIC_V2 = b"CCE2"

    def _canonical_blocks(self, columns: dict[int, tuple]) \
            -> tuple[np.ndarray, np.ndarray]:
        """(hashes, content ids) of every block any record references,
        sorted by hash.  Blocks appended collectively but never referenced
        by a record (stale handled hashes) are garbage-collected."""
        empty = np.empty(0, dtype=np.uint64)
        hashes = np.concatenate(
            [empty] + [h for _kind, _idx, h, _payload in columns.values()])
        cids = np.concatenate([empty] + [
            _record_ids(self.shared, kind, payload)
            for kind, _idx, _h, payload in columns.values()])
        hashes, first = np.unique(hashes, return_index=True)
        return hashes, cids[first]

    def write_to_dir(self, path: str | Path, canonical: bool = False) -> None:
        """Materialize real bytes and write the checkpoint to a directory.

        With ``canonical=True`` the bytes depend only on the *logical*
        checkpoint — each SE's page contents — not on how it was produced:
        the shared file holds every referenced distinct block exactly once
        in hash order, and every SE record becomes a pointer into it,
        ordered by page index.  Two runs of the same workload therefore
        serialize byte-identically even if one ran degraded (dead shards,
        datagram loss) and covered fewer blocks collectively — the
        fault-tolerance guarantee the integration tests pin down.  The
        default mode writes records as produced (pointers and literal
        data blocks), which round-trips the store exactly.
        """
        d = Path(path)
        d.mkdir(parents=True, exist_ok=True)
        columns = {eid: _record_columns(f.records)
                   for eid, f in self.se_files.items()}
        if canonical:
            hashes, cids = self._canonical_blocks(columns)
            self._write_shared(d / "shared.bin", cids)
            for eid in sorted(columns):
                _kind, idx, h, _payload = columns[eid]
                order = np.argsort(idx, kind="stable")
                h = h[order]
                self._write_se(d / f"entity_{eid}.ckpt", eid, False,
                               np.zeros(len(h), dtype=np.uint8), idx[order],
                               h, np.searchsorted(hashes, h))
            return
        self._write_shared(d / "shared.bin",
                           np.asarray(self.shared.blocks, dtype=np.uint64))
        for eid, (kind, idx, h, payload) in columns.items():
            v2 = bool(interned_mask(payload[kind == 1]).any())
            self._write_se(d / f"entity_{eid}.ckpt", eid, v2, kind, idx, h,
                           payload)

    def _write_shared(self, path: Path, cids: np.ndarray) -> None:
        v2 = bool(interned_mask(cids).any())
        with open(path, "wb") as fh:
            fh.write(_SHARED_HEADER.pack(
                self._SHARED_MAGIC_V2 if v2 else self._SHARED_MAGIC,
                self.page_size, len(cids)))
            for lo in range(0, len(cids), IO_CHUNK_PAGES):
                chunk = cids[lo:lo + IO_CHUNK_PAGES]
                pages = materialize_pages(chunk, self.page_size,
                                          self.compress_fraction)
                if v2:
                    pages = [_BLOCK_V2.pack(c, len(p)) + p
                             for c, p in zip(chunk.tolist(), pages)]
                fh.write(b"".join(pages))

    def _write_se(self, path: Path, eid: int, v2: bool, kind: np.ndarray,
                  idx: np.ndarray, h: np.ndarray, payload: np.ndarray) -> None:
        """Encode one SE file: pointer records through the packed ``_PTR``
        dtype, literal records spliced in at their positions with their
        pages rendered ``IO_CHUNK_PAGES`` at a time."""
        recs = np.empty(len(kind), dtype=_PTR)
        recs["kind"], recs["idx"], recs["hash"], recs["off"] = \
            kind, idx, h, payload
        data_at = np.flatnonzero(kind).tolist()
        with open(path, "wb") as fh:
            fh.write(_SE_HEADER.pack(
                self._SE_MAGIC_V2 if v2 else self._SE_MAGIC, eid,
                self.page_size, len(kind)))
            done = 0                # records encoded so far
            for lo in range(0, len(data_at), IO_CHUNK_PAGES):
                at = data_at[lo:lo + IO_CHUNK_PAGES]
                pages = materialize_pages(payload[at], self.page_size,
                                          self.compress_fraction)
                parts = []
                for i, page, (_k, page_idx, ph, cid) in zip(
                        at, pages, recs[at].tolist()):
                    parts.append(recs[done:i].tobytes())
                    parts.append(
                        _DATA_V2.pack(1, page_idx, ph, cid, len(page)) if v2
                        else _DATA_V1.pack(1, page_idx, ph, len(page)))
                    parts.append(page)
                    done = i + 1
                fh.write(b"".join(parts))
            fh.write(recs[done:].tobytes())

    @classmethod
    def load_from_dir(cls, path: str | Path,
                      compress_fraction: float = 0.5) -> CheckpointStore:
        """Read a checkpoint back.

        v1 files recover each block's content ID from its page header;
        v2 files carry the ID explicitly and re-register interned chunk
        bytes so :func:`materialize_page` renders them again.  Sizes and
        record counts are checked before anything is decoded: a truncated
        or malformed file, a block repeated in the shared file, or a
        pointer past its end raises ``ValueError`` naming the file and
        byte offset.
        """
        d = Path(path)
        store = cls._load_shared(d / "shared.bin", compress_fraction)
        for ckpt in sorted(d.glob("entity_*.ckpt")):
            store._load_se(ckpt)
        return store

    @classmethod
    def _load_shared(cls, path: Path,
                     compress_fraction: float) -> CheckpointStore:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_SHARED_HEADER.size)
            if head[:4] not in (cls._SHARED_MAGIC, cls._SHARED_MAGIC_V2):
                raise ValueError(f"{path}: bad shared content file magic")
            if len(head) < _SHARED_HEADER.size:
                raise _truncated(path, len(head), "file header")
            magic, page_size, n_blocks = _SHARED_HEADER.unpack(head)
            if page_size < 16:
                raise ValueError(f"{path}: page size {page_size} at byte 4 "
                                 "is below the 16-byte minimum")
            v2 = magic == cls._SHARED_MAGIC_V2
            body = size - len(head)
            if (n_blocks * _BLOCK_V2.size > body if v2
                    else n_blocks * page_size != body):
                raise ValueError(
                    f"{path}: header declares {n_blocks} blocks of "
                    f"{page_size} bytes but the file ends at byte {size}")
            if v2:
                cids, starts, chunks = _read_blocks_v2(fh, path, n_blocks,
                                                       size)
            else:
                cids = _read_ids_v1(fh, path, n_blocks, page_size)
                starts = len(head) + page_size * np.arange(n_blocks)
        repeat = _first_repeat(cids)
        if repeat is not None:
            first, again = repeat
            raise ValueError(
                f"{path}: block {again} at byte {starts[again]} repeats "
                f"content {int(cids[again]):#x} of block {first} at byte "
                f"{starts[first]}")
        if v2:
            for cid, data in chunks:
                register_chunk(cid, data)
        store = cls(page_size, compress_fraction)
        store.shared = SharedContentFile.from_blocks(
            page_size, page_hashes(cids), cids)
        return store

    def _load_se(self, path: Path) -> None:
        buf = path.read_bytes()
        if buf[:4] not in (self._SE_MAGIC, self._SE_MAGIC_V2):
            raise ValueError(f"bad SE file magic in {path}")
        if len(buf) < _SE_HEADER.size:
            raise _truncated(path, len(buf), "file header")
        magic, eid, psize, n_records = _SE_HEADER.unpack_from(buf)
        if psize != self.page_size:
            raise ValueError(f"{path}: page size mismatch between files")
        if n_records * _MIN_RECORD > len(buf) - _SE_HEADER.size:
            raise ValueError(
                f"{path}: header declares {n_records} records but the file "
                f"ends at byte {len(buf)}")
        kind, idx, h, payload, chunks = _decode_se(
            buf, n_records, magic == self._SE_MAGIC_V2, self.shared.n_blocks,
            path)
        for cid, data in chunks:
            register_chunk(cid, data)
        self.se_file(eid).records.extend(zip(
            map(_KIND_NAMES.__getitem__, kind.tolist()), idx.tolist(),
            h.tolist(), payload.tolist()))


def _truncated(path: Path, offset: int, what: str) -> ValueError:
    return ValueError(f"{path}: truncated at byte {offset} ({what})")


def _first_repeat(values: np.ndarray) -> tuple[int, int] | None:
    """(first, again): the earliest position whose value already occurred,
    and that value's first position; None when all values are distinct."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    same = np.flatnonzero(ordered[1:] == ordered[:-1])
    if not len(same):
        return None
    again = int(order[same + 1].min())
    return int(np.argmax(values == values[again])), again


def _read_ids_v1(fh, path: Path, n_blocks: int, page_size: int) -> np.ndarray:
    """Block IDs of a v1 shared file, read ``IO_CHUNK_PAGES`` pages at a
    time into one reused buffer: each ID is its page's first 8 bytes, a
    strided column over the chunk."""
    cids = np.empty(n_blocks, dtype=np.uint64)
    chunk = bytearray(min(n_blocks, IO_CHUNK_PAGES) * page_size)
    for lo in range(0, n_blocks, IO_CHUNK_PAGES):
        k = min(IO_CHUNK_PAGES, n_blocks - lo)
        if fh.readinto(memoryview(chunk)[:k * page_size]) < k * page_size:
            raise _truncated(path, fh.tell(), f"block {lo}")
        cids[lo:lo + k] = np.ndarray(k, dtype="<u8", buffer=chunk,
                                     strides=page_size)
    return cids


def _read_blocks_v2(fh, path: Path, n_blocks: int, size: int):
    """Walk a v2 shared file's length-prefixed blocks: (ids, byte offset
    of each block, interned (id, bytes) to register)."""
    cids = np.empty(n_blocks, dtype=np.uint64)
    starts = np.empty(n_blocks, dtype=np.int64)
    chunks = []
    pos = _SHARED_HEADER.size
    for i in range(n_blocks):
        head = fh.read(_BLOCK_V2.size)
        if len(head) < _BLOCK_V2.size:
            raise _truncated(path, pos + len(head), f"block {i} header")
        cid, length = _BLOCK_V2.unpack(head)
        data = fh.read(length)
        if len(data) < length:
            raise _truncated(path, pos + len(head) + len(data),
                             f"block {i} of {length} bytes")
        if is_interned_id(cid):
            chunks.append((cid, data))
        cids[i], starts[i] = cid, pos
        pos += len(head) + length
    if pos != size:
        raise ValueError(f"{path}: {size - pos} stray bytes after the last "
                         f"block at byte {pos}")
    return cids, starts, chunks


def _decode_se(buf: bytes, n_records: int, v2: bool, n_blocks: int,
               path: Path):
    """Decode an SE file's records into (kind, idx, hash, payload) columns
    plus the interned chunks to register; pointers must fall inside the
    ``n_blocks`` of the shared file.

    Runs of pointer records decode with one ``np.frombuffer`` each; a run
    is found by testing kind bytes at the pointer stride over a window
    that doubles while the run continues and resets after a literal
    record, so each byte is examined a bounded number of times.
    """
    kind = np.zeros(n_records, dtype=np.uint8)
    idx = np.empty(n_records, dtype=np.int64)
    h = np.empty(n_records, dtype=np.uint64)
    payload = np.empty(n_records, dtype=np.uint64)
    chunks = []
    data_head = _DATA_V2 if v2 else _DATA_V1
    size, pos, i, window = len(buf), _SE_HEADER.size, 0, 64
    while i < n_records:
        if pos >= size:
            raise _truncated(path, pos, f"record {i} of {n_records}")
        if buf[pos] == 0:
            w = min(window, n_records - i, (size - pos) // _PTR.itemsize)
            if w == 0:
                raise _truncated(path, size, f"pointer record {i}")
            heads = np.frombuffer(buf, dtype=np.uint8, offset=pos,
                                  count=(w - 1) * _PTR.itemsize + 1)
            stop = np.flatnonzero(heads[::_PTR.itemsize])
            r = int(stop[0]) if len(stop) else w
            run = np.frombuffer(buf, dtype=_PTR, count=r, offset=pos)
            past = np.flatnonzero(run["off"] >= n_blocks)
            if len(past):
                j = int(past[0])
                raise ValueError(
                    f"{path}: record {i + j} at byte "
                    f"{pos + j * _PTR.itemsize} points at block "
                    f"{int(run['off'][j])}, past the {n_blocks} blocks of "
                    "the shared content file")
            idx[i:i + r], h[i:i + r], payload[i:i + r] = \
                run["idx"], run["hash"], run["off"]
            window = 2 * window if r == w else 64
            i, pos = i + r, pos + r * _PTR.itemsize
        elif buf[pos] == 1:
            if pos + data_head.size > size:
                raise _truncated(path, size, f"data record {i} header")
            if v2:
                _k, page_idx, ph, cid, length = data_head.unpack_from(buf, pos)
            else:
                _k, page_idx, ph, length = data_head.unpack_from(buf, pos)
            end = pos + data_head.size + length
            if end > size:
                raise _truncated(path, size, f"data record {i} of {length} "
                                 f"bytes at byte {pos}")
            data = buf[pos + data_head.size:end]
            if not v2:
                cid = int.from_bytes(data[:8], "little")
            elif is_interned_id(cid):
                chunks.append((cid, data))
            kind[i], idx[i], h[i], payload[i] = 1, page_idx, ph, cid
            i, pos = i + 1, end
        else:
            raise ValueError(f"{path}: bad record kind {buf[pos]} at byte "
                             f"{pos}")
    if pos != size:
        raise ValueError(f"{path}: {size - pos} stray bytes after the last "
                         f"record at byte {pos}")
    return kind, idx, h, payload, chunks


def _record_columns(records: list[tuple]) -> tuple[np.ndarray, ...]:
    """(kind, idx, hash, payload) columns of an SE file's records; kind is
    0 for a pointer and 1 for literal data."""
    n = len(records)
    kind, idx, h, payload = (itemgetter(i) for i in range(4))
    try:
        kinds = np.fromiter(map(_KIND_CODES.__getitem__, map(kind, records)),
                            dtype=np.uint8, count=n)
    except KeyError as err:
        raise ValueError(
            f"record kind {err.args[0]!r} (incremental checkpoints"
            " serialize with their chain, not standalone)") from None
    return (kinds, np.fromiter(map(idx, records), dtype=np.int64, count=n),
            np.fromiter(map(h, records), dtype=np.uint64, count=n),
            np.fromiter(map(payload, records), dtype=np.uint64, count=n))


def _record_ids(shared: SharedContentFile, kind: np.ndarray,
                payload: np.ndarray) -> np.ndarray:
    """Content ID per record: pointers dereference the shared file."""
    ids = payload.copy()
    ptr = np.flatnonzero(kind == 0)
    ids[ptr] = np.fromiter(map(shared.blocks.__getitem__,
                               payload[ptr].tolist()),
                           dtype=np.uint64, count=len(ptr))
    return ids


def restore_entity(store: CheckpointStore, entity_id: int) -> np.ndarray:
    """Rebuild an SE's memory (content IDs per page) from the checkpoint.

    "To restore an SE's memory from the checkpoint, we need only walk the
    SE's checkpoint file, referencing pointers to the shared content file
    as needed" (paper §6.1).
    """
    f = store.se_files.get(entity_id)
    if f is None:
        raise KeyError(f"no checkpoint file for entity {entity_id}")
    kind, idx, _h, payload = _record_columns(f.records)
    if not len(idx):
        return np.empty(0, dtype=np.uint64)
    repeat = _first_repeat(idx)
    if repeat is not None:
        raise ValueError(f"duplicate record for page {idx[repeat[1]]}")
    n_pages = int(idx.max()) + 1
    if len(idx) < n_pages:
        seen = np.zeros(n_pages, dtype=bool)
        seen[idx] = True
        missing = np.flatnonzero(~seen)[:5].tolist()
        raise ValueError(f"checkpoint incomplete: pages {missing} missing")
    pages = np.empty(n_pages, dtype=np.uint64)
    pages[idx] = _record_ids(store.shared, kind, payload)
    return pages


def blocks_to_pages(block_ids: np.ndarray, page_size: int,
                    compress_fraction: float = 0.5) -> np.ndarray:
    """Re-page restored blocks: the inverse of :meth:`Entity.from_bytes`.

    A checkpoint of a chunked entity stores variable-sized chunk blocks;
    callers that want fixed ``page_size`` pages back (e.g. to rebuild a
    non-chunked replica) concatenate the materialized bytes and re-intern
    each ``page_size`` slice.  Fixed-chunking entities round-trip
    unchanged since each block already renders exactly one page.
    """
    blocks = np.asarray(block_ids, dtype=np.uint64)
    if not interned_mask(blocks).any():
        return blocks.copy()
    buf = b"".join(materialize_pages(blocks, page_size, compress_fraction))
    ids = [intern_chunk(buf[o:o + page_size])
           for o in range(0, len(buf), page_size)]
    return np.asarray(ids, dtype=np.uint64)


@dataclass
class _CkptNodeState:
    """Per-node private service state for the checkpoint service."""

    # Interactive: node-local hash -> offset table built during the
    # collective phase ("stored in a node-local hash table that maps from
    # content hash to offset", §6.1).
    offsets: dict[int, int] = field(default_factory=dict)
    shared_appends: int = 0
    pointer_records: int = 0
    data_records: int = 0
    # Batch mode: deferred operations.
    shared_plan: list[tuple[int, int]] = field(default_factory=list)
    local_plan: list[tuple] = field(default_factory=list)
    shared_plan_done: bool = False
    local_plan_done: bool = False
    failed: bool = False


class CollectiveCheckpoint(ServiceCallbacks):
    """The collective checkpointing service command (~230 lines of C in the
    paper; the same callback structure here).

    ``pfs``: write the shared content file through a
    :class:`repro.storage.ParallelFileSystem` instead of a node-local RAM
    disk.  The shared file then consumes aggregate server bandwidth — a
    machine-wide resource — so its cost is charged via
    ``ctx.charge_shared``.  The paper factors the FS out on Old/New-cluster
    (RAM disks, the default here); Big-cluster runs see the shared path.

    ``refine_plan``: in batch mode, refine the execution plan before
    running it — the hook §4.2 motivates ("allows the application service
    developer to refine and enhance the plan").  Local-phase records sort
    by (entity, page index) so each SE file is written sequentially;
    appends coalesce and their per-append overhead amortizes further.
    """

    name = "collective-checkpoint"

    def __init__(self, store: CheckpointStore, pfs=None,
                 refine_plan: bool = False) -> None:
        self.store = store
        self.pfs = pfs
        self.refine_plan = refine_plan
        # Page-index ints shared by every SE file's records (one int
        # object per index, not one per record).
        self._page_numbers: list[int] = []

    # -- service initialization: open files, allocate state ---------------------------

    def service_init(self, ctx: NodeContext, config: Any) -> None:
        ctx.state = _CkptNodeState()

    def collective_start(self, ctx: NodeContext, role: EntityRole,
                         entity: Entity, hash_sample: np.ndarray) -> None:
        # This is where checkpoint files are opened (paper §4.3); the store
        # creates SE files lazily, so only SEs get files.
        if role is EntityRole.SERVICE:
            self.store.se_file(entity.entity_id)

    # -- collective phase: write each distinct block to the shared file ----------------

    def _charge_block_append(self, ctx: NodeContext, amortize: float = 1.0,
                             shared: bool = False, n_blocks: int = 1) -> None:
        c = ctx.cost
        ctx.charge_per_block(c.file_append_base * amortize
                             + self.store.page_size
                             * (c.file_append_per_byte + c.memcpy_per_byte),
                             n_blocks)
        if shared and self.pfs is not None:
            _client, server = self.pfs.append_costs(self.store.page_size)
            ctx.charge_shared(server * ctx.n_represented * n_blocks)

    def collective_command(self, ctx: NodeContext, entity: Entity,
                           content_hash: int, block: BlockRef) -> Any:
        content_id = ctx.read_block(block)
        st: _CkptNodeState = ctx.state
        if ctx.mode is ExecMode.BATCH:
            st.shared_plan.append((int(content_hash), content_id))
            return True
        offset = self.store.shared.append(content_hash, content_id)
        self._charge_block_append(ctx, shared=True)
        st.offsets[int(content_hash)] = offset
        st.shared_appends += 1
        ctx.count("ckpt.shared_appends")
        return offset

    def collective_command_batch(self, contexts: dict[int, NodeContext],
                                 nodes: np.ndarray, entity_ids: np.ndarray,
                                 hashes: np.ndarray,
                                 block_idx: np.ndarray) -> list:
        """collective_command over many rows: appended to the shared file
        in row order (INTERACTIVE) or to each node's shared plan."""
        ctx0 = contexts[int(nodes[0])]
        hs = hashes.tolist()
        cids = read_blocks(ctx0.cluster, entity_ids, block_idx).tolist()
        interactive = ctx0.mode is ExecMode.INTERACTIVE
        offsets = (self.store.shared.extend(hs, cids) if interactive
                   else [True] * len(hs))
        # Per node: hash -> offset (INTERACTIVE), (hash, content ID) plan
        # entries (BATCH).
        values = offsets if interactive else cids
        for node in np.unique(nodes).tolist():
            at = np.flatnonzero(nodes == node).tolist()
            ctx = contexts[node]
            st: _CkptNodeState = ctx.state
            rows = zip(map(hs.__getitem__, at), map(values.__getitem__, at))
            if not interactive:
                st.shared_plan.extend(rows)
                continue
            st.offsets.update(rows)
            st.shared_appends += len(at)
            self._charge_block_append(ctx, shared=True, n_blocks=len(at))
            ctx.count("ckpt.shared_appends", len(at))
        return offsets

    def collective_finalize(self, ctx: NodeContext, role: EntityRole,
                            entity: Entity) -> None:
        st: _CkptNodeState = ctx.state
        if ctx.mode is ExecMode.BATCH and not st.shared_plan_done:
            # Execute the shared-file part of the plan as one bulk append.
            for h, cid in st.shared_plan:
                offset = self.store.shared.append(h, cid)
                st.offsets[h] = offset
                st.shared_appends += 1
                self._charge_block_append(ctx, amortize=1.0 / 16, shared=True)
            ctx.count("ckpt.shared_appends", len(st.shared_plan))
            st.shared_plan_done = True

    # -- local phase: per-SE checkpoint files ---------------------------------------------

    def local_command(self, ctx: NodeContext, entity: Entity, page_idx: int,
                      content_hash: int, block: BlockRef,
                      handled_private: Any | None) -> None:
        st: _CkptNodeState = ctx.state
        if ctx.mode is ExecMode.BATCH:
            if handled_private is not None:
                st.local_plan.append(("ptr", entity.entity_id, page_idx,
                                      int(content_hash)))
            else:
                st.local_plan.append(("data", entity.entity_id, page_idx,
                                      int(content_hash),
                                      entity.read_block_id(page_idx)))
            return
        f = self.store.se_file(entity.entity_id)
        if handled_private is not None:
            f.add_pointer(page_idx, content_hash, int(handled_private))
            st.pointer_records += 1
            ctx.count("ckpt.pointer_records")
            ctx.charge_per_block(ctx.cost.file_append_base / 8
                                 + _PTR_RECORD_BYTES
                                 * ctx.cost.file_append_per_byte)
        else:
            f.add_data(page_idx, content_hash,
                       entity.read_block_id(page_idx))
            st.data_records += 1
            ctx.count("ckpt.data_records")
            self._charge_block_append(ctx)

    def local_command_batch(self, ctx: NodeContext, entity: Entity,
                            hashes: np.ndarray, covered: np.ndarray,
                            handled_map: dict[int, Any]) -> None:
        """Vectorized local phase (same semantics as local_command)."""
        st: _CkptNodeState = ctx.state
        n = len(hashes)
        n_cov = int(covered.sum())
        c = ctx.cost
        eid = entity.entity_id
        hlist = hashes.tolist()
        payload = entity.block_ids().tolist()
        if ctx.mode is ExecMode.BATCH:
            st.local_plan.extend(
                ("ptr", eid, idx, h) if cov else ("data", eid, idx, h, cid)
                for idx, (cov, h, cid) in enumerate(zip(
                    covered.tolist(), hlist, payload)))
            return
        # Pointers carry the shared-file offset, literal records the
        # block's content ID.
        for i in np.flatnonzero(covered).tolist():
            payload[i] = handled_map[hlist[i]]
        if len(self._page_numbers) < n:
            self._page_numbers = list(range(n))
        self.store.se_file(eid).records.extend(zip(
            _RECORD_KINDS[covered.astype(np.intp)].tolist(),
            self._page_numbers, hlist, payload))
        st.pointer_records += n_cov
        st.data_records += n - n_cov
        ctx.count("ckpt.pointer_records", n_cov)
        ctx.count("ckpt.data_records", n - n_cov)
        ctx.charge_per_block(c.file_append_base / 8
                             + _PTR_RECORD_BYTES * c.file_append_per_byte, n_cov)
        ctx.charge_per_block(c.file_append_base + self.store.page_size
                             * (c.file_append_per_byte + c.memcpy_per_byte),
                             n - n_cov)

    def local_finalize(self, ctx: NodeContext, entity: Entity) -> None:
        st: _CkptNodeState = ctx.state
        if ctx.mode is ExecMode.BATCH and not st.local_plan_done:
            self._execute_local_plan(ctx)

    def _execute_local_plan(self, ctx: NodeContext) -> None:
        st: _CkptNodeState = ctx.state
        c = ctx.cost
        amortize = 1.0 / 16
        if self.refine_plan:
            # Plan refinement: sequential per-file write order -> deeper
            # append coalescing.
            st.local_plan.sort(key=lambda op: (op[1], op[2]))
            amortize = 1.0 / 64
        for op in st.local_plan:
            if op[0] == "ptr":
                _kind, eid, idx, h = op
                offset = self.store.shared.offset_of(h)
                if offset is None:
                    # Plan said covered but the shared block never landed;
                    # fall back to literal content (correctness first).
                    cid = ctx.cluster.entity(eid).read_block_id(idx)
                    self.store.se_file(eid).add_data(idx, h, cid)
                    st.data_records += 1
                    ctx.count("ckpt.data_records")
                    self._charge_block_append(ctx, amortize=1.0 / 16)
                    continue
                self.store.se_file(eid).add_pointer(idx, h, offset)
                st.pointer_records += 1
                ctx.count("ckpt.pointer_records")
                ctx.charge_per_block(c.file_append_base * amortize / 4
                                     + _PTR_RECORD_BYTES * c.file_append_per_byte)
            else:
                _kind, eid, idx, h, cid = op
                self.store.se_file(eid).add_data(idx, h, cid)
                st.data_records += 1
                ctx.count("ckpt.data_records")
                self._charge_block_append(ctx, amortize=amortize)
        st.local_plan_done = True

    # -- teardown -------------------------------------------------------------------------

    def service_deinit(self, ctx: NodeContext) -> bool:
        st: _CkptNodeState = ctx.state
        if ctx.mode is ExecMode.BATCH:
            # PE-only nodes execute their shared plan here if no SE ever
            # triggered collective_finalize on them (it always does, since
            # collective_finalize runs for PEs too — this is a safety net).
            if not st.shared_plan_done and st.shared_plan:
                for h, cid in st.shared_plan:
                    st.offsets[h] = self.store.shared.append(h, cid)
                    st.shared_appends += 1
                    self._charge_block_append(ctx, amortize=1.0 / 16,
                                              shared=True)
                st.shared_plan_done = True
            if not st.local_plan_done and st.local_plan:
                self._execute_local_plan(ctx)
        return not st.failed


class RawCheckpoint:
    """The baseline: "simply record each page in each process" (§4.1).

    No ConCORD involvement: every SE writes its full memory to its own file
    (embarrassingly parallel).  ``run`` returns a compatible store plus the
    modelled response time; gzip variants are derived from it.
    """

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size

    def run(self, cluster: Cluster, entity_ids: list[int],
            n_represented: int = 1,
            gzip: bool = False) -> tuple[CheckpointStore, float]:
        c = cluster.cost
        store = CheckpointStore(self.page_size)
        per_node_time: dict[int, float] = {}
        for eid in entity_ids:
            entity = cluster.entity(eid)
            f = store.se_file(eid)
            hashes = entity.content_hashes()
            for idx, (h, cid) in enumerate(zip(hashes.tolist(),
                                               entity.block_ids().tolist())):
                f.add_data(idx, int(h), int(cid))
            nbytes = entity.memory_bytes * n_represented
            t = (entity.n_blocks * n_represented * (c.file_append_base / 64)
                 + nbytes * (c.file_append_per_byte + c.memcpy_per_byte))
            if gzip:
                t += nbytes * c.gzip_per_byte
            node = entity.node_id
            per_node_time[node] = per_node_time.get(node, 0.0) + t
        wall = max(per_node_time.values(), default=0.0) + c.barrier_time(
            cluster.n_nodes)
        return store, wall
