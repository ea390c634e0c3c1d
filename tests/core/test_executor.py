"""Unit tests for the service-command execution engine.

These use probe services that record every callback, checking the protocol
of paper §4.3: phase ordering, roles, replica retry on stale content,
collective_select, handled-set dissemination, and accounting.
"""

import numpy as np
import pytest

from repro.core.command import CommandFailed, ExecMode, ServiceCallbacks
from repro.core.scope import EntityRole, ServiceScope
from repro.services.checkpoint import (CheckpointStore, CollectiveCheckpoint,
                                       restore_entity)
from repro.services.null import NullService
from repro import workloads
from tests.conftest import make_system


class ProbeService(ServiceCallbacks):
    """Records the full callback trace."""

    name = "probe"

    def __init__(self):
        self.trace = []
        self.fail_hashes = set()

    def service_init(self, ctx, config):
        self.trace.append(("init", ctx.node_id, config))
        ctx.state = {"node": ctx.node_id}

    def collective_start(self, ctx, role, entity, hash_sample):
        self.trace.append(("cstart", role, entity.entity_id, len(hash_sample)))

    def collective_command(self, ctx, entity, content_hash, block):
        self.trace.append(("ccmd", entity.entity_id, content_hash))
        if content_hash in self.fail_hashes:
            return CommandFailed("injected")
        return ("priv", content_hash)

    def collective_finalize(self, ctx, role, entity):
        self.trace.append(("cfin", role, entity.entity_id))

    def local_start(self, ctx, entity):
        self.trace.append(("lstart", entity.entity_id))

    def local_command(self, ctx, entity, page_idx, content_hash, block,
                      handled_private):
        self.trace.append(("lcmd", entity.entity_id, page_idx,
                           handled_private is not None))

    def local_finalize(self, ctx, entity):
        self.trace.append(("lfin", entity.entity_id))

    def service_deinit(self, ctx):
        self.trace.append(("deinit", ctx.node_id))
        return True


def run_probe(n_nodes=2, pages=32, spec=None, scope_pes=(), probe=None,
              **exec_kw):
    spec = spec or workloads.moldy(n_nodes, pages, seed=1)
    cluster, ents, concord = make_system(n_nodes=n_nodes, spec=spec)
    probe = probe or ProbeService()
    ses = [e.entity_id for e in ents if e.entity_id not in set(scope_pes)]
    scope = ServiceScope.of(ses, scope_pes)
    result = concord.execute_command(probe, scope, **exec_kw)
    return cluster, ents, concord, probe, result


class TestProtocolOrdering:
    def test_phase_order(self):
        _c, _e, _k, probe, result = run_probe()
        kinds = [t[0] for t in probe.trace]
        assert kinds.index("init") < kinds.index("cstart")
        assert kinds.index("cstart") < kinds.index("ccmd")
        assert max(i for i, k in enumerate(kinds) if k == "ccmd") < \
            kinds.index("cfin")
        assert max(i for i, k in enumerate(kinds) if k == "cfin") < \
            kinds.index("lstart")
        assert max(i for i, k in enumerate(kinds) if k == "lcmd") < \
            kinds.index("lfin")
        assert kinds.index("lfin") < kinds.index("deinit")
        assert result.success

    def test_init_once_per_scope_node(self):
        _c, _e, _k, probe, _r = run_probe(n_nodes=2)
        inits = [t for t in probe.trace if t[0] == "init"]
        assert sorted(n for _k, n, _c in inits) == [0, 1]

    def test_collective_start_roles(self):
        cluster, ents, _k, probe, _r = run_probe(n_nodes=4, scope_pes=(0,))
        starts = {t[2]: t[1] for t in probe.trace if t[0] == "cstart"}
        assert starts[0] is EntityRole.PARTICIPANT
        for e in ents:
            if e.entity_id != 0:
                assert starts[e.entity_id] is EntityRole.SERVICE

    def test_hash_sample_advisory_nonempty(self):
        _c, _e, _k, probe, _r = run_probe(n_nodes=1, pages=64)
        starts = [t for t in probe.trace if t[0] == "cstart"]
        # With one node, the local shard holds everything -> sample > 0.
        assert all(t[3] > 0 for t in starts)

    def test_local_phase_covers_every_se_block(self):
        _c, ents, _k, probe, result = run_probe(n_nodes=2, pages=32)
        lcmds = [t for t in probe.trace if t[0] == "lcmd"]
        assert len(lcmds) == sum(e.n_pages for e in ents)
        assert result.stats.local_blocks == len(lcmds)

    def test_pe_not_in_local_phase(self):
        _c, ents, _k, probe, _r = run_probe(n_nodes=4, scope_pes=(0,))
        lstarts = {t[1] for t in probe.trace if t[0] == "lstart"}
        assert 0 not in lstarts

    def test_each_distinct_hash_commanded_once(self):
        _c, _e, concord, probe, result = run_probe(n_nodes=2)
        ccmds = [t[2] for t in probe.trace if t[0] == "ccmd"]
        assert len(set(ccmds)) == len(ccmds)  # no retries -> no repeats
        assert result.stats.handled == len(ccmds)
        assert result.stats.stale_unhandled == 0


class TestStalenessAndRetry:
    def test_mutation_after_scan_triggers_retry_and_local_fallback(self):
        spec = workloads.nasty(2, 64, seed=2)
        cluster, ents, concord = make_system(n_nodes=2, spec=spec)
        # Mutate entity 0 after the scan: its DHT entries go stale.
        ents[0].write_pages(np.arange(16), np.arange(16, dtype=np.uint64)
                            + 10**9)
        probe = ProbeService()
        result = concord.execute_command(
            probe, ServiceScope.of([e.entity_id for e in ents]))
        assert result.stats.stale_unhandled == 16
        assert result.stats.retries >= 16
        # Local phase still covered everything.
        assert result.stats.local_blocks == 128
        assert result.stats.uncovered_blocks >= 16
        assert result.success

    def test_callback_failure_behaves_like_stale(self):
        cluster, ents, concord = make_system(
            n_nodes=2, spec=workloads.nasty(2, 16, seed=3))
        probe = ProbeService()
        victim = int(ents[0].content_hashes()[0])
        probe.fail_hashes.add(victim)
        result = concord.execute_command(
            probe, ServiceScope.of([e.entity_id for e in ents]))
        assert result.stats.stale_unhandled == 1
        assert result.stats.retries == 1
        assert victim not in result.handled_private

    def test_replica_retry_succeeds_on_other_holder(self):
        """If one holder lost the content, a surviving replica serves it."""
        spec = workloads.WorkloadSpec(name="dup", n_entities=2,
                                      pages_per_entity=8, common_frac=1.0,
                                      pool_frac=1.0, seed=4)
        cluster, ents, concord = make_system(n_nodes=2, spec=spec)
        shared = np.intersect1d(ents[0].content_hashes(),
                                ents[1].content_hashes())
        assert len(shared) > 0
        # Destroy all of entity 0's content (without resyncing).
        ents[0].write_pages(np.arange(8), np.arange(8, dtype=np.uint64)
                            + 5 * 10**9)
        probe = ProbeService()
        result = concord.execute_command(probe,
                                         ServiceScope.of([ents[1].entity_id]))
        # Every shared hash is still handled via entity 1.
        for h in shared.tolist():
            assert int(h) in result.handled_private


class TestSelection:
    @staticmethod
    def make_twins():
        """Two entities with byte-identical memory on different nodes."""
        from repro import Cluster, ConCORD, ConCORDConfig, Entity

        cluster = Cluster(n_nodes=2, cost="new-cluster", seed=0)
        pages = np.arange(100, 108, dtype=np.uint64)
        a = Entity.create(cluster, 0, pages)
        b = Entity.create(cluster, 1, pages.copy())
        concord = ConCORD(cluster, ConCORDConfig(use_network=False))
        concord.initial_scan()
        return cluster, (a, b), concord

    def test_collective_select_preference_honoured(self):
        cluster, (a, b), concord = self.make_twins()

        class Chooser(ProbeService):
            def collective_select(self, ctx, content_hash, candidates):
                return max(candidates)

        probe = Chooser()
        result = concord.execute_command(
            probe, ServiceScope.of([a.entity_id, b.entity_id]))
        chosen = {t[1] for t in probe.trace if t[0] == "ccmd"}
        assert chosen == {b.entity_id}
        assert result.stats.select_calls == result.stats.believed_hashes

    def test_select_returning_none_falls_back_to_random(self):
        class Indifferent(ProbeService):
            def collective_select(self, ctx, content_hash, candidates):
                return None

        _c, _e, _k, probe, result = run_probe(probe=Indifferent())
        assert result.success

    def test_select_returning_noncandidate_rejected(self):
        class Liar(ProbeService):
            def collective_select(self, ctx, content_hash, candidates):
                return 10**6

        with pytest.raises(ValueError):
            run_probe(probe=Liar())

    def test_pe_replicas_usable(self):
        """A PE sharing content with an SE can serve the block."""
        cluster, (a, b), concord = self.make_twins()

        class PreferPE(ProbeService):
            def collective_select(self, ctx, content_hash, candidates):
                return b.entity_id if b.entity_id in candidates else None

        probe = PreferPE()
        result = concord.execute_command(
            probe, ServiceScope.of([a.entity_id], [b.entity_id]))
        served_by = {t[1] for t in probe.trace if t[0] == "ccmd"}
        assert served_by == {b.entity_id}
        assert result.stats.coverage == 1.0


class TestModesAndAccounting:
    def test_batch_mode_runs_and_succeeds(self):
        _c, _e, _k, _p, result = run_probe(mode=ExecMode.BATCH)
        assert result.success
        assert result.mode is ExecMode.BATCH

    def test_null_interactive_vs_batch_wall(self):
        """Fig 10: batch mode is (slightly) cheaper than interactive."""
        cluster, ents, concord = make_system(
            n_nodes=4, spec=workloads.moldy(4, 512, seed=6))
        scope = ServiceScope.of([e.entity_id for e in ents])
        t_i = concord.execute_command(NullService(), scope,
                                      mode=ExecMode.INTERACTIVE).wall_time
        t_b = concord.execute_command(NullService(), scope,
                                      mode=ExecMode.BATCH).wall_time
        assert t_b < t_i

    def test_phase_walls_positive_and_sum(self):
        _c, _e, _k, _p, result = run_probe()
        assert set(result.phases) == {"init", "collective", "local",
                                      "teardown"}
        assert all(p.wall > 0 for p in result.phases.values())
        assert result.wall_time == pytest.approx(
            sum(p.wall for p in result.phases.values()))

    def test_bytes_accounted_multi_node(self):
        _c, _e, _k, _p, result = run_probe(n_nodes=2, pages=64)
        assert result.stats.total_bytes > 0
        assert result.stats.max_node_bytes() > 0

    def test_single_node_no_network_bytes(self):
        _c, _e, _k, _p, result = run_probe(n_nodes=1, pages=32)
        assert result.stats.total_bytes == 0

    def test_unknown_entity_in_scope_rejected(self):
        cluster, ents, concord = make_system(n_nodes=2)
        with pytest.raises(KeyError):
            concord.execute_command(NullService(), ServiceScope.of([999]))

    def test_coverage_statistic(self):
        _c, _e, _k, _p, result = run_probe(n_nodes=2, pages=64)
        assert result.stats.coverage == pytest.approx(1.0)
        assert (result.stats.covered_blocks + result.stats.uncovered_blocks
                == result.stats.local_blocks)

    def test_deterministic_given_seed(self):
        r1 = run_probe(seed=5)[4]
        r2 = run_probe(seed=5)[4]
        assert r1.wall_time == r2.wall_time
        assert r1.stats.handled == r2.stats.handled


class TestFailedPEHost:
    """A PE on a failed node: its node ran no service_init, so it gets no
    collective_start/collective_finalize, and the command completes with
    its replicas failing over."""

    @pytest.mark.parametrize("mode", [ExecMode.INTERACTIVE, ExecMode.BATCH])
    @pytest.mark.parametrize("service", ["null", "checkpoint"])
    def test_command_completes(self, service, mode):
        cluster, ents, concord = make_system(
            n_nodes=3, spec=workloads.moldy(3, 64, seed=2))
        dead = ents[2]
        concord.fail_node(dead.node_id)
        store = CheckpointStore()
        svc = (NullService() if service == "null"
               else CollectiveCheckpoint(store))
        ses = [e.entity_id for e in ents[:2]]
        result = concord.execute_command(
            svc, ServiceScope.of(ses, [dead.entity_id]), mode=mode)
        assert result.success
        assert result.contexts[dead.node_id].state is None
        assert result.stats.handled > 0
        if service == "checkpoint":
            for eid in ses:
                assert np.array_equal(restore_entity(store, eid),
                                      cluster.entity(eid).pages)


class TestPhaseBreakdownSplit:
    """The cpu/comm split must come from the critical-path node, not mix
    the max-cpu of one node with the max-total of another."""

    def _executor(self, n_nodes=2):
        from repro.core.executor import ServiceCommandExecutor

        cluster, _ents, concord = make_system(n_nodes=n_nodes)
        ex = ServiceCommandExecutor(cluster, concord.tracing)
        ex._reset_accounting()
        return cluster, ex

    def test_cpu_heavy_and_comm_heavy_nodes(self):
        cluster, ex = self._executor(n_nodes=2)
        bw = cluster.cost.link_bw
        # Node 0: pure CPU, 10 s.  Node 1: tiny CPU, 20 s of comm.
        ex._cpu[(0, "collective")] = 10.0
        ex._cpu[(1, "collective")] = 1.0
        ex._rx[(1, "collective")] = int(20.0 * bw)
        b = ex._phase_breakdown("collective")
        barrier = cluster.cost.barrier_time(2)
        # Critical path is node 1 (1 + 20 = 21 > 10): its split must be
        # reported, while max_node_cpu still reflects node 0.
        assert b.wall == pytest.approx(21.0 + barrier)
        assert b.cpu == pytest.approx(1.0)
        assert b.comm == pytest.approx(20.0)
        assert b.max_node_cpu == pytest.approx(10.0)
        # The seed computed comm = max_total - max_cpu = 11 s, attributing
        # node 0's CPU to node 1's wire time.
        assert b.comm != pytest.approx(21.0 - 10.0)
        assert b.cpu + b.comm + b.barrier == pytest.approx(b.wall)

    def test_cpu_dominated_critical_path(self):
        cluster, ex = self._executor(n_nodes=2)
        bw = cluster.cost.link_bw
        ex._cpu[(0, "collective")] = 30.0
        ex._cpu[(1, "collective")] = 1.0
        ex._tx[(1, "collective")] = int(5.0 * bw)
        b = ex._phase_breakdown("collective")
        assert b.cpu == pytest.approx(30.0)
        assert b.comm == pytest.approx(0.0)
        assert b.max_node_cpu == pytest.approx(30.0)

    def test_idle_phase_zero(self):
        _cluster, ex = self._executor(n_nodes=2)
        b = ex._phase_breakdown("local")
        assert b.cpu == 0.0 and b.comm == 0.0 and b.max_node_cpu == 0.0
