"""Units for the set-reconciliation subsystem (docs/RECONCILIATION.md):
the canonical multiset diff's edge cases, range digests, the two-party
session protocol, and the engine's recon repair path end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, ConCORD, ConCORDConfig, Entity
from repro.recon import (DigestCache, HASH_SPACE, PairSetDigest,
                         ReconSession, canonical_pairs, pair_multiset_diff)

U64 = np.uint64
I64 = np.int64


def rows(*triples):
    """Canonical rows from (hash, entity, count) literals."""
    if not triples:
        return (np.empty(0, dtype=U64), np.empty(0, dtype=I64),
                np.empty(0, dtype=I64))
    h, e, c = zip(*triples)
    return canonical_pairs(np.array(h, dtype=U64), np.array(e, dtype=I64),
                           np.array(c, dtype=I64))


def as_set(triplet):
    h, e, c = triplet
    return {(int(a), int(b), int(k))
            for a, b, k in zip(h.tolist(), e.tolist(), c.tolist())}


class TestPairMultisetDiff:
    def test_both_empty(self):
        ins, rem = pair_multiset_diff(*rows(), *rows()[:2], want_c=rows()[2])
        assert as_set(ins) == set() and as_set(rem) == set()

    def test_empty_have_ships_all_want(self):
        wh, we, wc = rows((5, 1, 2), (9, 2, 1))
        ins, rem = pair_multiset_diff(*rows(), wh, we, want_c=wc)
        assert as_set(ins) == {(5, 1, 2), (9, 2, 1)}
        assert as_set(rem) == set()

    def test_empty_want_removes_all_have(self):
        hh, he, hc = rows((5, 1, 2), (9, 2, 1))
        ins, rem = pair_multiset_diff(hh, he, hc, *rows()[:2],
                                      want_c=rows()[2])
        assert as_set(ins) == set()
        assert as_set(rem) == {(5, 1, 2), (9, 2, 1)}

    def test_duplicate_copies_both_sides(self):
        # Same pair with different multiplicities: only the count delta
        # moves, in the right direction.
        hh, he, hc = rows((7, 3, 5))
        wh, we, wc = rows((7, 3, 2))
        ins, rem = pair_multiset_diff(hh, he, hc, wh, we, want_c=wc)
        assert as_set(ins) == set()
        assert as_set(rem) == {(7, 3, 3)}
        ins, rem = pair_multiset_diff(wh, we, wc, hh, he, want_c=hc)
        assert as_set(ins) == {(7, 3, 3)}
        assert as_set(rem) == set()

    def test_equal_multisets_no_ops(self):
        hh, he, hc = rows((1, 1, 1), (2, 2, 4), (3, 1, 2))
        ins, rem = pair_multiset_diff(hh, he, hc, hh, he, want_c=hc)
        assert as_set(ins) == set() and as_set(rem) == set()

    def test_single_row_each_side(self):
        hh, he, hc = rows((4, 1, 1))
        wh, we, wc = rows((6, 1, 1))
        ins, rem = pair_multiset_diff(hh, he, hc, wh, we, want_c=wc)
        assert as_set(ins) == {(6, 1, 1)}
        assert as_set(rem) == {(4, 1, 1)}

    def test_u64_boundary_hashes(self):
        top = HASH_SPACE - 1
        hh, he, hc = rows((0, 1, 1), (top, 2, 1))
        wh, we, wc = rows((0, 1, 1), (top, 2, 2), (top, 3, 1))
        ins, rem = pair_multiset_diff(hh, he, hc, wh, we, want_c=wc)
        assert as_set(ins) == {(top, 2, 1), (top, 3, 1)}
        assert as_set(rem) == set()

    def test_want_without_counts_is_replay_semantics(self):
        hh, he, hc = rows((5, 1, 1))
        ins, rem = pair_multiset_diff(
            hh, he, hc, np.array([5, 5], dtype=U64),
            np.array([1, 1], dtype=I64))
        assert as_set(ins) == {(5, 1, 1)}  # repetition = multiplicity
        assert as_set(rem) == set()


def summary(d, lo, hi):
    """Scalar ``(n_rows, digest)`` of ``[lo, hi)`` via the array form."""
    n, g = d.range_summaries(np.array([lo], dtype=U64),
                             np.array([hi - 1], dtype=U64))
    return int(n[0]), int(g[0])


class TestPairSetDigest:
    def test_range_summary_partitions(self):
        rng = np.random.default_rng(3)
        h = np.sort(rng.integers(0, HASH_SPACE, 500, dtype=U64))
        d = PairSetDigest(*canonical_pairs(h, np.zeros(500, dtype=I64)))
        whole = summary(d, 0, HASH_SPACE)
        mid = HASH_SPACE // 2
        n1, g1 = summary(d, 0, mid)
        n2, g2 = summary(d, mid, HASH_SPACE)
        assert n1 + n2 == whole[0] == len(d)
        assert (g1 + g2) & (HASH_SPACE - 1) == whole[1]

    def test_single_copy_flip_changes_digest(self):
        a = PairSetDigest(*rows((10, 1, 2), (20, 2, 1)))
        b = PairSetDigest(*rows((10, 1, 3), (20, 2, 1)))
        assert summary(a, 0, HASH_SPACE) != summary(b, 0, HASH_SPACE)
        # The untouched subrange still agrees.
        assert summary(a, 15, 30) == summary(b, 15, 30)

    def test_boundary_rows_included(self):
        top = HASH_SPACE - 1
        d = PairSetDigest(*rows((0, 1, 1), (top, 1, 1)))
        assert summary(d, 0, HASH_SPACE)[0] == 2
        assert summary(d, top, HASH_SPACE)[0] == 1

    def test_empty(self):
        d = PairSetDigest(*rows())
        assert len(d) == 0 and d.total_count == 0
        assert summary(d, 0, HASH_SPACE) == (0, 0)

    def test_array_summaries_match_one_by_one(self):
        rng = np.random.default_rng(4)
        h = np.sort(rng.integers(0, HASH_SPACE, 300, dtype=U64))
        d = PairSetDigest(*canonical_pairs(h, rng.integers(0, 9, 300)))
        cuts = np.sort(rng.integers(1, HASH_SPACE, 20, dtype=U64))
        lo = np.concatenate([[U64(0)], cuts])
        last = np.concatenate([cuts - U64(1), [U64(HASH_SPACE - 1)]])
        n, g = d.range_summaries(lo, last)
        assert [(int(a), int(b)) for a, b in zip(n, g)] == [
            summary(d, int(x), int(y) + 1) for x, y in zip(lo, last)]
        assert int(n.sum()) == len(d)

    def test_range_rows_gathers_disjoint_ranges_in_order(self):
        d = PairSetDigest(*rows((1, 1, 1), (5, 2, 2), (9, 1, 1), (12, 3, 1),
                                (HASH_SPACE - 1, 4, 1)))
        h, e, c = d.range_rows(np.array([0, 9, 20], dtype=U64),
                               np.array([5, 11, HASH_SPACE - 1], dtype=U64))
        assert h.tolist() == [1, 5, 9, HASH_SPACE - 1]
        assert e.tolist() == [1, 2, 1, 4] and c.tolist() == [1, 2, 1, 1]

    def test_cache_epoch_invalidation(self):
        cache = DigestCache()
        built = []

        def build():
            built.append(1)
            return PairSetDigest(*rows((1, 1, 1)))

        d1 = cache.get(0, 7, build)
        d2 = cache.get(0, 7, build)
        assert d1 is d2 and len(built) == 1 and cache.hits == 1
        cache.get(0, 8, build)  # epoch bumped: rebuild
        assert len(built) == 2


class TestReconSession:
    def _converge(self, local_rows, remote_rows, **kw):
        local = PairSetDigest(*local_rows)
        remote = PairSetDigest(*remote_rows)
        report = ReconSession(local, remote, **kw).run()
        # Applying the ops to the local multiset must yield the remote.
        lh, le, lc = local_rows
        ih, ie, ic = report.ins
        rh, re_, rc = report.rem
        got = canonical_pairs(
            np.concatenate([lh, ih, rh]), np.concatenate([le, ie, re_]),
            np.concatenate([lc, ic, -rc]))
        want = canonical_pairs(*remote_rows)
        assert as_set(got) == as_set(want)
        return report

    def test_identical_sets_cost_one_round(self):
        r = rows((10, 1, 1), (500, 2, 3))
        report = self._converge(r, r)
        assert report.rounds == 1 and report.leaves_shipped == 0
        assert report.ops_applied == 0

    def test_small_divergence_converges(self):
        rng = np.random.default_rng(5)
        h = np.sort(rng.integers(0, HASH_SPACE, 400, dtype=U64))
        base = [(int(x), 1, 1) for x in h]
        local = rows(*base)
        remote = rows(*(base[:390] + [(123456789, 9, 2)]))
        report = self._converge(local, remote)
        assert report.ops_applied > 0
        assert report.rounds >= 2

    def test_empty_side_ships_immediately(self):
        # One side empty: descent cannot prune anything, so the session
        # must ship the whole subtree in the first leaf round.
        step = (HASH_SPACE - 1) // 100
        remote = rows(*((i * step, 1, 1) for i in range(100)))
        report = self._converge(rows(), remote)
        assert report.rounds == 2  # one digest round + the leaf round

    def test_branching_validation(self):
        d = PairSetDigest(*rows())
        with pytest.raises(ValueError):
            ReconSession(d, d, branching=3)
        with pytest.raises(ValueError):
            ReconSession(d, d, leaf_limit=0)

    def test_wire_bytes_scale_with_divergence(self):
        rng = np.random.default_rng(6)
        h = np.sort(rng.integers(0, HASH_SPACE, 2000, dtype=U64))
        base = [(int(x), 1, 1) for x in h]
        full = rows(*base)
        nearly = rows(*base[:1990])
        small = self._converge(nearly, full).bytes_wire
        big = self._converge(rows(*base[:1000]), full).bytes_wire
        assert small < big


def golden_pair(seed, n, div, span):
    """A seeded (local, remote) canonical row pair: ``div`` of the rows
    dropped on the remote side plus ``n // 50`` extra copies there."""
    rng = np.random.default_rng(seed)
    h = rng.integers(0, span, n, dtype=U64)
    base = canonical_pairs(h, rng.integers(0, 8, n))
    keep = rng.random(len(base[0])) >= div
    extra = n // 50
    other = canonical_pairs(
        np.concatenate([base[0][keep], h[:extra]]),
        np.concatenate([base[1][keep], np.full(extra, 9)]),
        np.concatenate([base[2][keep], np.ones(extra, dtype=I64)]))
    return base, other


class TestReconSessionGolden:
    """Wire cost and descent shape pinned to the values the per-range
    scalar descent produced: the level-vectorised descent must visit
    exactly the same ranges."""

    @pytest.mark.parametrize(
        "seed, n, div, span, branching, leaf_limit, want", [
            (1, 500, 0.02, HASH_SPACE, 16, 8, (6428, 4, 177, 18)),
            (2, 2000, 0.1, HASH_SPACE, 16, 8, (50420, 5, 1313, 193)),
            (3, 300, 0.5, HASH_SPACE, 2, 1, (35316, 65, 829, 116)),
            (4, 1000, 0.05, HASH_SPACE, 4, 3, (16206, 9, 453, 63)),
            (5, 400, 1.0, HASH_SPACE, 16, 8, (14492, 4, 97, 73)),
            (6, 800, 0.05, 5000, 16, 8, (18912, 17, 513, 42)),
            (7, 600, 0.2, 5000, 2, 1, (41532, 65, 1055, 140)),
        ])
    def test_golden(self, seed, n, div, span, branching, leaf_limit, want):
        local, remote = golden_pair(seed, n, div, span)
        r = ReconSession(PairSetDigest(*local), PairSetDigest(*remote),
                         branching=branching, leaf_limit=leaf_limit).run()
        assert (r.bytes_wire, r.rounds, r.ranges_compared,
                r.leaves_shipped) == want


# Hashes biased to the edges of the space and to tiny clusters, where
# the descent runs deepest and the top range bound matters.
_hash = st.one_of(st.integers(0, 64), st.integers(HASH_SPACE - 64,
                                                  HASH_SPACE - 1),
                  st.integers(0, HASH_SPACE - 1))
_row = st.tuples(_hash, st.integers(0, 5), st.integers(1, 3))


def reference_descent(local, remote, branching, leaf_limit):
    """The per-range loop the level-vectorised descent replaced.
    Returns (rounds, ranges_compared, leaves)."""
    frontier, leaves, rounds, compared = [(0, HASH_SPACE)], [], 0, 0
    while frontier:
        rounds += 1
        nxt = []
        for lo, hi in frontier:
            compared += 1
            (nl, dl), (nr, dr) = summary(local, lo, hi), summary(remote, lo, hi)
            if (nl, dl) == (nr, dr):
                continue
            if (min(nl, nr) == 0 or max(nl, nr) <= leaf_limit
                    or hi - lo <= branching):
                leaves.append((lo, hi))
                continue
            step = (hi - lo) // branching
            nxt.extend((lo + k * step, lo + (k + 1) * step)
                       for k in range(branching))
        frontier = nxt
    return rounds + bool(leaves), compared, sorted(leaves)


@settings(max_examples=150, deadline=None)
@given(st.lists(_row, max_size=60), st.lists(_row, max_size=60),
       st.sampled_from([2, 4, 16]), st.integers(1, 8))
def test_descent_matches_per_range_reference(local, remote, branching,
                                             leaf_limit):
    ld, rd = PairSetDigest(*rows(*local)), PairSetDigest(*rows(*remote))
    report = ReconSession(ld, rd, branching=branching,
                          leaf_limit=leaf_limit).run()
    rounds, compared, leaves = reference_descent(ld, rd, branching,
                                                 leaf_limit)
    assert (report.rounds, report.ranges_compared,
            report.leaves_shipped) == (rounds, compared, len(leaves))


@settings(max_examples=150, deadline=None)
@given(st.lists(_row, max_size=60), st.lists(_row, max_size=60),
       st.sampled_from([2, 4, 16]), st.integers(1, 8))
def test_session_diff_equals_whole_set_diff(local, remote, branching,
                                            leaf_limit):
    """Descent only prunes equal subtrees, so the session's ops are the
    pair-multiset diff of the two whole sets."""
    lr, rr = rows(*local), rows(*remote)
    report = ReconSession(PairSetDigest(*lr), PairSetDigest(*rr),
                          branching=branching,
                          leaf_limit=leaf_limit).run()
    ins, rem = pair_multiset_diff(*lr, *rr[:2], want_c=rr[2])
    for got, want in ((report.ins, ins), (report.rem, rem)):
        assert [a.tolist() for a in got] == [b.tolist() for b in want]


class TestEngineReconRepair:
    def _system(self, seed=0):
        cluster = Cluster(4, seed=seed)
        rng = np.random.default_rng(seed)
        ents = [Entity.create(cluster, n,
                              rng.integers(0, 120, 64).astype(U64))
                for n in (0, 1)]
        concord = ConCORD(cluster, ConCORDConfig(use_network=False))
        concord.initial_scan()
        return cluster, ents, concord

    def _states(self, concord):
        mask = (1 << 80) - 1
        return [tuple(map(lambda a: a.tolist() if hasattr(a, "tolist")
                          else a, s.se_scan(mask)))
                for s in concord.tracing.shards]

    def test_recon_heals_clustered_eviction(self):
        _cluster, _ents, concord = self._system()
        want = self._states(concord)
        bound = U64(int(0.3 * 2**64))
        for shard in concord.tracing.shards:
            hs, _lo, _wide = shard.items_arrays()
            if len(hs):
                shard.retain(hs >= bound)
        concord.tracing.bump_all_epochs()
        report = concord.repair(mode="recon")
        assert report.copies_restored > 0
        assert report.bytes_wire > 0 and report.rounds > 0
        assert [n for n, _i, _r in report.node_ops]
        assert self._states(concord) == want

    def test_recon_counters_exported(self):
        _cluster, _ents, concord = self._system()
        shard = concord.tracing.shards[1]
        hs, _lo, _wide = shard.items_arrays()
        shard.retain(hs >= U64(1 << 62))
        concord.tracing.bump_all_epochs()
        concord.repair(mode="recon")
        reg = concord.obs.registry
        assert reg.value("dht.repair.bytes_wire") > 0
        assert reg.value("dht.repair.rounds") > 0
        assert "dht.repair.bytes_wire" in concord.metrics_report().render()

    def test_invalid_mode_rejected(self):
        _cluster, _ents, concord = self._system()
        with pytest.raises(ValueError):
            concord.repair(mode="bogus")
        # warm_restart has no modes left: it always reconciles every range.
        with pytest.raises(TypeError, match=r"call warm_restart\(\)"):
            concord.warm_restart(mode="bogus")

    def test_recon_over_network_converges(self):
        cluster = Cluster(4, seed=2)
        rng = np.random.default_rng(2)
        Entity.create(cluster, 0, rng.integers(0, 99, 64).astype(U64))
        concord = ConCORD(cluster, ConCORDConfig(use_network=True))
        concord.initial_scan()
        want = self._states(concord)
        shard = concord.tracing.shards[2]
        hs, _lo, _wide = shard.items_arrays()
        if len(hs):
            shard.retain(hs >= U64(1 << 63))
        concord.tracing.bump_all_epochs()
        concord.repair(mode="recon")
        assert self._states(concord) == want
