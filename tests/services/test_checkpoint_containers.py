"""Checkpoint container bytes, page synthesis and hostile container input.

The golden digests pin every file of four small checkpoints, so the
writer can change shape (columnar encoding, chunked page synthesis)
without any byte on disk moving.  They were recorded from the per-record
writer that rendered each page through ``np.random.default_rng``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import (Cluster, ConCORD, ConCORDConfig, Entity, ServiceScope,
                   workloads)
from repro.memory.pagedata import (intern_chunk, interned_bytes,
                                   materialize_page, materialize_pages)
from repro.services import checkpoint as ckpt_mod
from repro.services.checkpoint import (CheckpointStore, CollectiveCheckpoint,
                                       restore_entity)
from repro.util.hashing import page_hash

# Content IDs standing in for the paper's Fig 13 letters.
A, B, C, E, X1, X2 = 0xA0, 0xB0, 0xC0, 0xE0, 0x100, 0x200


def stream(n, seed):
    return np.random.default_rng(seed).integers(
        0, 256, size=n, dtype=np.uint8).tobytes()


def run_checkpoint(concord, eids):
    store = CheckpointStore()
    result = concord.execute_command(CollectiveCheckpoint(store),
                                     ServiceScope.of(eids))
    assert result.success
    return store


def fig13_store():
    """Fig 13's two SEs: shared A/B/C/E, one post-scan literal page each."""
    cluster = Cluster(2, seed=0)
    se1 = Entity.create(cluster, 0, np.array([A, E, X1, B], dtype=np.uint64))
    se2 = Entity.create(cluster, 1, np.array([B, C, E, X2], dtype=np.uint64))
    concord = ConCORD(cluster, ConCORDConfig(chunking="fixed"))
    concord.initial_scan()
    se1.write_page(2, X1 + 1)
    se2.write_page(3, X2 + 1)
    return run_checkpoint(concord, [se1.entity_id, se2.entity_id]), \
        [se1, se2]


def moldy_store():
    """A stale moldy checkpoint: pointers plus literal records."""
    cluster = Cluster(n_nodes=2, cost="new-cluster", seed=0)
    ents = workloads.instantiate(cluster, workloads.moldy(2, 48, seed=9))
    concord = ConCORD(cluster, ConCORDConfig(use_network=False,
                                             chunking="fixed"))
    concord.initial_scan()
    rng = np.random.default_rng(5)
    for e in ents:
        e.mutate_random(0.3, rng)
    return run_checkpoint(concord, [e.entity_id for e in ents]), ents


def cdc_store():
    """Byte-backed entities under content-defined chunking (v2 files),
    with post-scan writes so some interned chunks go literal."""
    cluster = Cluster(2, seed=3)
    base = stream(6 * 4096, seed=11)
    e0 = Entity.from_bytes(cluster, 0, base)
    e1 = Entity.from_bytes(cluster, 1, stream(100, seed=12) + base[:5 * 4096])
    concord = ConCORD(cluster, ConCORDConfig(chunking="cdc"))
    concord.initial_scan()
    e1.write_page(2, intern_chunk(stream(4096, seed=13)))
    return run_checkpoint(concord, [e0.entity_id, e1.entity_id]), [e0, e1]


def digests(path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(path.iterdir())}


GOLDEN_FIG13 = {"entity_0.ckpt": "5b2fad0733c9a909",
                "entity_1.ckpt": "51514d8f555d8b05",
                "shared.bin": "eef391c233d31b14"}
GOLDEN_MOLDY = {"entity_0.ckpt": "dd6068cda6f4b044",
                "entity_1.ckpt": "66a56744815f9fb8",
                "shared.bin": "604dc0505aa19cc9"}
GOLDEN_CANONICAL = {"entity_0.ckpt": "e1fba4f4b8a3c1bf",
                    "entity_1.ckpt": "2851c7e433a40328",
                    "shared.bin": "760a55a768155a0d"}
GOLDEN_CDC = {"entity_0.ckpt": "d07e6fa5cad32161",
              "entity_1.ckpt": "0fbfa9019dcd7ce5",
              "shared.bin": "1e1af06c74d3194c"}


@pytest.fixture(params=[None, 3], ids=["chunk-default", "chunk-3"])
def chunk(request, monkeypatch):
    """Run each golden case with the default streaming chunk and with a
    3-page chunk, so literal records straddle chunk boundaries."""
    if request.param is not None:
        monkeypatch.setattr(ckpt_mod, "IO_CHUNK_PAGES", request.param)


@pytest.mark.usefixtures("chunk")
class TestGoldenBytes:
    def test_fig13_default_write(self, tmp_path):
        store, _ = fig13_store()
        assert sum(f.n_data_records for f in store.se_files.values()) == 2
        store.write_to_dir(tmp_path)
        assert digests(tmp_path) == GOLDEN_FIG13

    def test_moldy_default_write(self, tmp_path):
        store, _ = moldy_store()
        store.write_to_dir(tmp_path)
        assert digests(tmp_path) == GOLDEN_MOLDY

    def test_canonical_write(self, tmp_path):
        store, _ = moldy_store()
        store.write_to_dir(tmp_path, canonical=True)
        assert digests(tmp_path) == GOLDEN_CANONICAL

    def test_cdc_v2_write(self, tmp_path):
        store, _ = cdc_store()
        store.write_to_dir(tmp_path)
        heads = {p.name: p.read_bytes()[:4] for p in tmp_path.iterdir()}
        assert heads["shared.bin"] == b"CCS2"
        assert b"CCE2" in heads.values()
        assert digests(tmp_path) == GOLDEN_CDC

    def test_loads_restore_every_case(self, tmp_path):
        for i, (make, canonical) in enumerate(
                [(fig13_store, False), (moldy_store, False),
                 (moldy_store, True), (cdc_store, False)]):
            store, ents = make()
            store.write_to_dir(tmp_path / str(i), canonical=canonical)
            loaded = CheckpointStore.load_from_dir(tmp_path / str(i))
            for e in ents:
                assert np.array_equal(restore_entity(loaded, e.entity_id),
                                      e.block_ids())


# -- page synthesis ---------------------------------------------------------------


def reference_page(cid, page_size, fraction):
    """The page layout with numpy's own seeding: header, pattern, then
    ``default_rng(cid)`` bytes.  Kept here only, as the pin."""
    body_len = page_size - 8
    pat_len = int(body_len * fraction)
    pattern = (cid ^ 0xA5A5A5A5A5A5A5A5).to_bytes(8, "little") * 2
    filler = np.random.default_rng(cid).integers(
        0, 256, size=body_len - pat_len, dtype=np.uint8).tobytes()
    return (cid.to_bytes(8, "little")
            + (pattern * (pat_len // 16 + 1))[:pat_len] + filler)


content_ids = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]),
    st.integers(0, 2**32), st.integers(0, 2**64 - 1))


class TestPageSynthesis:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(content_ids, min_size=1, max_size=6),
           st.integers(16, 8192), st.floats(0.0, 1.0))
    def test_pages_equal_default_rng_reference(self, cids, page_size,
                                               fraction):
        assume(all(interned_bytes(c) is None for c in cids))
        want = [reference_page(c, page_size, fraction) for c in cids]
        assert [materialize_page(c, page_size, fraction)
                for c in cids] == want
        assert materialize_pages(np.array(cids, dtype=np.uint64),
                                 page_size, fraction) == want

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=300), min_size=1,
                    max_size=5), st.integers(16, 512))
    def test_interned_ids_render_verbatim(self, chunks, page_size):
        ids = [intern_chunk(c) for c in chunks]
        mixed = np.array(ids + [5] + ids[::-1], dtype=np.uint64)
        got = materialize_pages(mixed, page_size)
        assert got == chunks + [materialize_page(5, page_size)] + chunks[::-1]
        assert [materialize_page(i, page_size) for i in ids] == chunks


# -- write/load round trip ----------------------------------------------------------


@st.composite
def stores(draw):
    """A store with distinct shared blocks and SE files mixing pointer
    and literal records (some interned, so v2 files appear too)."""
    page_size = draw(st.sampled_from([16, 64, 200]))
    store = CheckpointStore(page_size)
    for cid in draw(st.lists(st.integers(0, 2**63 - 1), max_size=12,
                             unique=True)):
        store.shared.append(page_hash(cid), cid)
    n_shared = store.shared.n_blocks
    for eid in range(draw(st.integers(0, 3))):
        f = store.se_file(eid)
        for idx in range(draw(st.integers(0, 20))):
            h = draw(st.integers(0, 2**64 - 1))
            choice = draw(st.integers(0, 2 if n_shared else 1))
            if choice == 2:
                f.add_pointer(idx, h, draw(st.integers(0, n_shared - 1)))
            elif choice == 1:
                f.add_data(idx, h, intern_chunk(draw(st.binary(max_size=90))))
            else:
                f.add_data(idx, h, draw(st.integers(0, 2**63 - 1)))
    return store


class TestRoundTrip:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stores())
    def test_write_load_round_trips_blocks_and_records(self, tmp_path,
                                                       store):
        d = tmp_path / "rt"
        if d.exists():
            for p in d.iterdir():
                p.unlink()
        store.write_to_dir(d)
        loaded = CheckpointStore.load_from_dir(d)
        assert loaded.page_size == store.page_size
        assert loaded.shared.blocks == store.shared.blocks
        assert {e: f.records for e, f in loaded.se_files.items()} == \
            {e: f.records for e, f in store.se_files.items()}


# -- hostile container input --------------------------------------------------------


@pytest.fixture
def written(tmp_path):
    store, _ = moldy_store()
    store.write_to_dir(tmp_path)
    return tmp_path, store


def cut(path, n_bytes):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - n_bytes])


class TestHostileInput:
    def test_truncated_shared_file(self, written):
        d, store = written
        cut(d / "shared.bin", 3 * store.page_size + 100)
        with pytest.raises(ValueError, match=r"shared\.bin: .* ends at byte"):
            CheckpointStore.load_from_dir(d)

    def test_repeated_shared_block(self, written):
        d, store = written
        ps = store.page_size
        data = bytearray((d / "shared.bin").read_bytes())
        at = lambda i: 16 + i * ps                          # noqa: E731
        data[at(5):at(6)] = data[at(2):at(3)]
        (d / "shared.bin").write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"shared\.bin: block 5 at byte "
                           rf"{at(5)} repeats .* block 2 at byte {at(2)}"):
            CheckpointStore.load_from_dir(d)

    @pytest.mark.parametrize("n_bytes", [1, 20, 21, 500, 4096])
    def test_truncated_se_file(self, written, n_bytes):
        d, _store = written
        cut(d / "entity_0.ckpt", n_bytes)
        with pytest.raises(ValueError, match=r"entity_0\.ckpt: .*byte \d+"):
            CheckpointStore.load_from_dir(d)

    def test_pointer_past_shared_file(self, written):
        d, store = written
        f = store.se_files[1]
        at = 20
        for kind, *_rest in f.records:
            if kind == "ptr":
                break
            at += 17 + store.page_size
        data = bytearray((d / "entity_1.ckpt").read_bytes())
        assert data[at] == 0
        data[at + 13:at + 21] = (10**6).to_bytes(8, "little")
        (d / "entity_1.ckpt").write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"entity_1\.ckpt: record \d+ "
                           rf"at byte {at} points at block 1000000"):
            CheckpointStore.load_from_dir(d)
