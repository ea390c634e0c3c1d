"""Workloads, the benchmark cycle and its correctness checks.

Every workload runs the same cycle on one ConCORD instance; what
differs is how much of each activity a cycle holds (see NOTES.md):

1. ``rounds`` x (mutate pages -> ``sync()`` [sync] -> ``bursts``
   closed-loop ``serve`` bursts [serve]), checking answers against the
   reference;
2. ``ckpt_reps`` x (``CollectiveCheckpoint`` command + ``write_to_dir``
   [ckpt], then ``load_from_dir`` + ``restore_entity`` [restore]),
   checking bytes;
3. a fault cycle [recover]: ``fail_node``, ``sync`` on the live nodes,
   warm ``restart_node``, ``sync``, ``repair(mode="recon")``.

Bracketed names are the timed regions of :mod:`ledger`.  Input
generation (page mutation) and checks run outside every region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import (CheckpointStore, Cluster, CollectiveCheckpoint, ConCORD,
                   ConCORDConfig, ServiceScope, StorageConfig, workloads)
from repro.queries.reference import ReferenceModel
from repro.services import checkpoint as ckpt_mod
from repro.workloads import TrafficDriver, TrafficSpec

from ledger import LAYERS, REGIONS, Ledger

N_NODES = 8
N_CLIENTS = 32
RESTORE_REPS = 2        # restores timed per checkpoint written

#: Registry counters whose deltas inside timed regions feed
#: :func:`per_layer` (``sim.events`` comes from the sim engine).
COUNTERS = ("monitor.pages_hashed", "dht.updates_routed",
            "dht.updates_applied", "dht.repair.bytes_wire",
            "dht.repair.rounds", "cmd.executions", "cmd.handled",
            "net.msgs_sent", "net.bytes_sent")


@dataclass(frozen=True)
class Workload:
    """How much of each activity one benchmark cycle holds."""

    name: str
    why: str
    content: str            # workload generator in repro.workloads
    pages: int              # pages per entity (one entity per node)
    setups: int             # set-ups per run; setup_s is their median
    cost: str               # cost model of the simulated cluster
    n_represented: int      # real 4 KB blocks per simulated block
    use_network: bool       # DHT updates as simulated datagrams
    backend: str            # shard storage backend
    rounds: int             # mutate/sync/serve rounds per cycle
    mutate_frac: float      # share of each entity's pages written per round
    bursts: int             # serve bursts per round, timed one by one
    serve_s: float          # simulated seconds of traffic per burst
    nodewise_frac: float    # node-wise share of the query mix
    ckpt_entities: int      # entities in the checkpoint scope
    ckpt_reps: int          # checkpoint + restore ops per cycle
    fault_reps: int         # fault cycles per benchmark cycle
    fault_nodes: int        # nodes failed per fault cycle
    fault_mutate_frac: float  # pages written on live nodes while they are down
    cycle_s: float          # timed seconds of one cycle on the reference host

    def cycles_for(self, seconds: float, least: int) -> int:
        """Cycles that fill about ``seconds`` of timed work.  A fixed
        count, not a deadline: every run of a seed does the same work."""
        return max(least, round(seconds / self.cycle_s))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ckpt_moldy",
        why="Fig 15's 32 GB/process point: collective checkpoint of 8 "
            "Moldy processes dominates; serve and faults are small probes",
        content="moldy", pages=8192, setups=7, cost="old-cluster",
        n_represented=1024, use_network=False, backend="memory", rounds=2,
        mutate_frac=0.005, bursts=2, serve_s=0.01, nodewise_frac=1.0,
        ckpt_entities=8, ckpt_reps=1, fault_reps=2, fault_nodes=1,
        fault_mutate_frac=0.002, cycle_s=5.4),
    Workload(
        name="serve_hot",
        why="Zipf-hot closed-loop queries answered mostly from the epoch "
            "cache; writes, checkpoint and faults are small probes",
        content="moldy", pages=2048, setups=21, cost="new-cluster",
        n_represented=1, use_network=False, backend="memory", rounds=2,
        mutate_frac=0.005, bursts=2, serve_s=0.07, nodewise_frac=0.9,
        ckpt_entities=1, ckpt_reps=3, fault_reps=3, fault_nodes=1,
        fault_mutate_frac=0.002, cycle_s=4.9),
    Workload(
        name="churn_hpccg",
        why="write-heavy HPCCG: networked updates into sqlite shards, "
            "cache-missing serve bursts and 2-node fault cycles with recon",
        content="hpccg", pages=4096, setups=7, cost="new-cluster",
        n_represented=1, use_network=True, backend="sqlite", rounds=2,
        mutate_frac=0.02, bursts=1, serve_s=0.02, nodewise_frac=0.9,
        ckpt_entities=1, ckpt_reps=2, fault_reps=1, fault_nodes=2,
        fault_mutate_frac=0.02, cycle_s=2.9),
)}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _canon(value) -> str:
    """A stable rendering of a query answer."""
    if isinstance(value, (set, frozenset)):
        return repr(sorted(int(v) for v in value))
    return repr(value)


# Serve-burst counts kept per cycle -> ServeReport field.
_SERVE_FIELDS = {"completed": "completed", "rejected": "rejected",
                 "admitted": "admitted", "hits": "cache_hits",
                 "misses": "cache_misses", "coalesced": "coalesced",
                 "invalidations": "cache_invalidations"}


class _Reference(ReferenceModel):
    """The reference model with copy counts memoized per entity set, for
    one check (memory must not change while it is in use)."""

    def __init__(self, cluster: Cluster) -> None:
        super().__init__(cluster)
        self._memo: dict[tuple, object] = {}

    def copy_counts(self, entity_ids):
        key = tuple(entity_ids)
        if key not in self._memo:
            self._memo[key] = super().copy_counts(list(key))
        return self._memo[key]


class Instance:
    """One brought-up ConCORD plus the inputs and checks of a workload."""

    def __init__(self, w: Workload, seed: int, root: Path,
                 ledger: Ledger, record: bool = False) -> None:
        self.w = w
        self.seed = seed
        self.root = root
        self.led = ledger
        self.record = record    # whether regions record layer spans
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.det: list[dict] = []
        self.n_cycles = 0
        self._last = None       # previous cumulative ServeReport
        self.rng = np.random.default_rng([seed, 1])
        self.begin_measure()
        root.mkdir(parents=True, exist_ok=True)
        gc.collect()
        with self.timed("setup", collect=False):
            self._build()
        self.setup_s = self.samples["setup"][0]
        self.setup_wall_s = self.wall["setup"][0]
        self._pristine = [e.snapshot() for e in self.entities]

    def begin_measure(self) -> None:
        """Zero the measurement accumulators (after a warm-up cycle)."""
        # Speed-scaled and raw wall seconds of each timed region.
        self.samples: dict[str, list[float]] = {r: [] for r in REGIONS}
        self.wall: dict[str, list[float]] = {r: [] for r in REGIONS}
        self.n_measured = 0
        # Updates per sync and completions per burst, in sample order.
        self.sync_counts: list[int] = []
        self.serve_counts: list[int] = []
        self.ckpt_bytes = 0
        self.dedup_ratios: list[float] = []
        self.counts: dict[str, float] = dict.fromkeys(
            (*COUNTERS, "sim.events"), 0)
        self.serve_delta = dict.fromkeys(_SERVE_FIELDS, 0)

    def timed_s(self) -> float:
        """Scaled seconds spent in the measured cycles' timed regions."""
        return sum(sum(v) for r, v in self.samples.items() if r != "setup")

    # -- set-up -----------------------------------------------------------------

    def _build(self) -> None:
        w = self.w
        self.cluster = Cluster(N_NODES, cost=w.cost, seed=self.seed)
        make = getattr(workloads, w.content)
        self.entities = workloads.instantiate(
            self.cluster, make(N_NODES, w.pages, seed=self.seed))
        storage = StorageConfig(
            backend=w.backend,
            root=str(self.root / "shards") if w.backend != "memory" else None)
        self.concord = ConCORD.from_config(self.cluster, ConCORDConfig(
            use_network=w.use_network, n_represented=w.n_represented,
            workers=1, chunking="fixed", storage=storage))
        self.concord.initial_scan()
        self.eids = [e.entity_id for e in self.entities]

    def close(self) -> None:
        self.concord.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- bookkeeping ------------------------------------------------------------

    @contextlib.contextmanager
    def timed(self, region: str, collect: bool = True):
        if collect:
            gc.collect()
        # Counts are per measured cycle; set-up has no instance yet.
        counts = (self._counter_snapshot()
                  if self.record and region != "setup" else None)
        with self.led.region(region, record=self.record) as t:
            yield
        self.samples[region].append(t.scaled_s)
        self.wall[region].append(t.wall_s)
        if counts is not None:
            for name, value in self._counter_snapshot().items():
                self.counts[name] += value - counts[name]

    def _counter_snapshot(self) -> dict[str, float]:
        reg = self.concord.metrics()
        snap = {name: reg.total(name) for name in COUNTERS}
        snap["sim.events"] = self.cluster.engine.events_run
        return snap

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(what)

    def _note(self, what: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(f"cycle {self.n_cycles}: {what}")

    def _mutate(self, frac: float, skip_nodes=()) -> None:
        for e in self.entities:
            if e.node_id not in skip_nodes:
                e.mutate_random(frac, self.rng)

    def _check_sharing(self, where: str) -> None:
        ref = _Reference(self.cluster)
        got = self.concord.sharing(self.eids).value
        self.check(_close(got, ref.sharing(self.eids)),
                   f"{where}: sharing {got} != reference")
        k2 = self.concord.num_shared_content(self.eids, 2).value
        want = ref.num_shared_content(self.eids, 2) * self.w.n_represented
        self.check(k2 == want, f"{where}: num_shared_content(2) {k2} != {want}")

    # -- the cycle --------------------------------------------------------------

    def cycle(self) -> None:
        """Run one cycle, recording its deterministic outputs."""
        w = self.w
        det: dict = {"cycle": self.n_cycles}
        for rnd in range(w.rounds):
            self._mutate(w.mutate_frac)
            with self.timed("sync"):
                n = self.concord.sync()
            self.sync_counts.append(n)
            det[f"sync{rnd}"] = n
            self._check_sharing("sync")
            for b in range(w.bursts):
                det[f"serve{rnd}.{b}"] = self._serve_burst(rnd * w.bursts + b)
        det["ckpt"] = [self._checkpoint(rep) for rep in range(w.ckpt_reps)]
        det["recover"] = [self._fault_cycle(rep)
                          for rep in range(w.fault_reps)]
        det["sim_now"] = repr(self.cluster.engine.now)
        # Put every page back (untimed), so that each cycle starts from
        # the same memory and the DHT does not drift over a run.
        for e, pages in zip(self.entities, self._pristine):
            idx = np.flatnonzero(e.pages != pages)
            e.write_pages(idx, pages[idx])
        self.concord.sync()
        self.n_cycles += 1
        self.n_measured += 1
        self.det.append(det)

    def _serve_burst(self, burst: int) -> dict:
        # A traffic seed per burst: each burst draws its own hot keys, so
        # a run averages over many key populations, not one per seed.
        spec = TrafficSpec(n_clients=N_CLIENTS, duration_s=self.w.serve_s,
                           arrival="closed", think_time_s=0.0,
                           nodewise_frac=self.w.nodewise_frac,
                           seed=self.seed * 1000 + self.n_cycles * 10 + burst)
        with self.timed("serve"):
            driver = TrafficDriver(self.concord.frontend(), spec,
                                   keep_responses=True)
            report = driver.run()
        # ServeReport counters are cumulative per frontend: take deltas.
        last, self._last = self._last, report
        delta = {key: getattr(report, field) - getattr(last, field, 0)
                 for key, field in _SERVE_FIELDS.items()}
        for key in self.serve_delta:
            self.serve_delta[key] += delta[key]
        self.serve_counts.append(delta["completed"])
        self.attempted += delta["completed"] + delta["rejected"]
        self.failed += delta["rejected"]
        if delta["rejected"]:
            self._note(f"{delta['rejected']} request(s) rejected")
        delta["answers"] = self._check_answers(driver.responses)
        return delta

    def _check_answers(self, responses) -> str:
        """Compare every kept answer with the reference; returns a digest
        of the answer stream."""
        ref = _Reference(self.cluster)
        counts = ref.copy_counts(self.eids)
        expected: dict = {}
        stream: list[str] = []
        bad = 0
        for resp in responses:
            if resp.rejected:
                continue
            key = (resp.request.op, resp.request.args)
            want = expected.get(key)
            if want is None:
                want = expected[key] = self._expected(ref, counts, *key)
            got = resp.value
            bad += not (_close(got, want) if isinstance(want, float)
                        else got == want)
            stream.append(f"{key[0]}:{_canon(got)}")
        # Each answer is an attempted op already (counted with the burst).
        self.failed += bad
        if bad:
            self._note(f"serve: {bad} answer(s) differ from reference")
        return hashlib.sha256("\n".join(stream).encode()).hexdigest()[:16]

    def _expected(self, ref: _Reference, counts, op: str, args: tuple):
        if op == "num_copies":
            return counts.get(int(args[0]), 0)
        if op == "entities":
            return ref.entities(int(args[0]))
        if op == "num_shared_content":
            return ref.num_shared_content(list(args[0]), args[1]) \
                * self.w.n_represented
        if op == "shared_content":
            return ref.shared_content(list(args[0]), args[1])
        return getattr(ref, op)(list(args[0]))

    def _checkpoint(self, rep: int) -> dict:
        scope = self.eids[:self.w.ckpt_entities]
        path = self.root / f"ckpt{self.n_cycles}-{rep}"
        with self.timed("ckpt"):
            store = CheckpointStore()
            result = self.concord.execute_command(
                CollectiveCheckpoint(store), ServiceScope.of(scope))
            store.write_to_dir(path)
        self.check(result.success, "checkpoint command failed")
        self.ckpt_bytes += sum(f.stat().st_size for f in path.iterdir())
        self.dedup_ratios.append(store.compression_ratio)
        for _ in range(RESTORE_REPS):
            with self.timed("restore"):
                loaded = CheckpointStore.load_from_dir(path)
                restored = [ckpt_mod.restore_entity(loaded, eid)
                            for eid in scope]
            for eid, pages in zip(scope, restored):
                self.check(
                    np.array_equal(pages, self.cluster.entity(eid).pages),
                    f"restored entity {eid} differs from its pages")
        n_data = sum(f.n_data_records for f in store.se_files.values())
        if not self.w.use_network:
            # Lossless updates: the DHT knew every block, so the shared
            # file holds each distinct block once and nothing is literal.
            want = len(_Reference(self.cluster).distinct_content(scope))
            self.check(store.shared.n_blocks == want and n_data == 0,
                       f"checkpoint holds {store.shared.n_blocks} shared "
                       f"blocks and {n_data} literal records; want {want} "
                       f"and 0")
        shutil.rmtree(path, ignore_errors=True)
        return {"sim_s": repr(result.wall_time),
                "handled": result.stats.handled,
                "blocks": store.shared.n_blocks, "data_records": n_data}

    def _fault_cycle(self, rep: int) -> dict:
        # The failed nodes rotate with the fault cycle, so every run of a
        # given length fails the same nodes whatever the seed.
        k = self.w.fault_nodes
        first = self.n_cycles * self.w.fault_reps + rep
        nodes = sorted((first + j * N_NODES // k) % N_NODES
                       for j in range(k))
        # Writes land on live nodes only: memory written on a node while
        # it is down stays invisible to repair until a sync after restart.
        self._mutate(self.w.fault_mutate_frac, skip_nodes=nodes)
        with self.timed("recover"):
            for n in nodes:
                self.concord.fail_node(n)
            self.concord.sync()
            for n in nodes:
                self.concord.restart_node(n, warm=True)
            self.concord.sync()
            report = self.concord.repair(mode="recon")
        cov = self.concord.coverage
        self.check(cov == 1.0, f"coverage {cov} after repair")
        self._check_sharing("recover")
        return {"nodes": nodes, "bytes_wire": report.bytes_wire,
                "rounds": report.rounds}


def det_digest(cycles: list[dict]) -> str:
    blob = json.dumps(cycles, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def end_to_end(inst: Instance, setup_s: list[float],
               samples: dict[str, list[float]]) -> dict[str, float]:
    """The user-visible metrics of one measured instance (all but
    ``peak_rss_mb``, which belongs to the process), from per-region
    ``samples`` (:attr:`Instance.samples` or :attr:`Instance.wall`)."""
    median = statistics.median
    return {
        "setup_s": median(setup_s),
        "ckpt_s": median(samples["ckpt"]),
        "restore_s": median(samples["restore"]),
        "serve_rps": median(c / t for c, t in zip(inst.serve_counts,
                                                   samples["serve"])),
        "sync_updates_per_s": median(c / t for c, t in zip(
            inst.sync_counts, samples["sync"])),
        "recover_s": median(samples["recover"]),
    }


def per_layer(inst: Instance, led: Ledger, setup_layers: dict,
              overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of a traced instance, per measured cycle (the
    ``self.setup.*`` matrix row is per set-up)."""
    n = max(inst.n_measured, 1)
    sd = inst.serve_delta
    counts = inst.counts
    lookups = sd["hits"] + sd["misses"]
    m = {
        "memory.scan_s": led.busy_s("memory.scan") / n,
        "memory.pages_scanned": counts["monitor.pages_hashed"] / n,
        "memory.flush_s": led.self_s("memory.flush") / n,
        "memory.resolve_block_s": led.busy_s("memory.resolve_block") / n,
        "memory.resolve_block_calls": led.count("memory.resolve_block") / n,
        "dht.route_s": led.busy_s("dht.route") / n,
        "dht.updates_routed": counts["dht.updates_routed"] / n,
        "dht.apply_s": led.busy_s("dht.apply") / n,
        "dht.rows_applied": counts["dht.updates_applied"] / n,
        "dht.restart_s": led.busy_s("dht.restart") / n,
        "dht.repair_s": led.busy_s("dht.repair") / n,
        "dht.repair_bytes_wire": counts["dht.repair.bytes_wire"] / n,
        "dht.repair_rounds": counts["dht.repair.rounds"] / n,
        "dht.home_node_calls": led.count("dht.home_node") / n,
        "storage.commit_s": led.busy_s("storage.commit") / n,
        "storage.commits": led.count("storage.commit") / n,
        "storage.load_s": led.busy_s("storage.load") / n,
        "recon.session_s": led.busy_s("recon.session") / n,
        "recon.sessions": led.count("recon.session") / n,
        "recon.digest_s": led.busy_s("recon.digest") / n,
        "exec.map_shards_s": led.busy_s("exec.map_shards") / n,
        "exec.map_shards_calls": led.count("exec.map_shards") / n,
        "queries.collective_s": led.busy_s("queries.collective") / n,
        "queries.collective_calls": led.count("queries.collective") / n,
        "queries.nodewise_s": led.busy_s("queries.nodewise") / n,
        "queries.nodewise_calls": led.count("queries.nodewise") / n,
        "executor.self_s": led.self_s("executor.execute") / n,
        "executor.commands": counts["cmd.executions"] / n,
        "executor.handled": counts["cmd.handled"] / n,
        "services.collective_command_s":
            led.busy_s("services.collective_command") / n,
        "services.collective_command_calls":
            led.count("services.collective_command") / n,
        "services.local_batch_s": led.busy_s("services.local_batch") / n,
        "services.deinit_s": led.busy_s("services.deinit") / n,
        "services.dedup_ratio": statistics.median(inst.dedup_ratios),
        "ckpt_io.write_s": led.busy_s("ckpt_io.write") / n,
        "ckpt_io.bytes_written": inst.ckpt_bytes / n,
        "ckpt_io.load_s": led.busy_s("ckpt_io.load") / n,
        "ckpt_io.restore_s": led.busy_s("ckpt_io.restore") / n,
        "serve.submit_s": led.busy_s("serve.submit") / n,
        "serve.submits": led.count("serve.submit") / n,
        "serve.bulk_answers_s": led.busy_s("serve.bulk_answers") / n,
        "serve.cache_hit_rate": sd["hits"] / lookups if lookups else 0.0,
        "serve.coalesce_rate":
            sd["coalesced"] / sd["admitted"] if sd["admitted"] else 0.0,
        "serve.invalidations": sd["invalidations"] / n,
        "traffic.self_s": led.self_s("traffic.init", "traffic.run",
                                     "traffic.draw") / n,
        "sim.events": counts["sim.events"] / n,
        "sim.engine_self_s": led.self_s("sim.run") / n,
        "sim.net_msgs": counts["net.msgs_sent"] / n,
        "sim.net_bytes": counts["net.bytes_sent"] / n,
        "trace.residual_frac": led.residual_frac(),
        "trace.overhead_frac": overhead_frac,
    }
    for region in REGIONS:
        for layer in LAYERS:
            ns = (setup_layers.get(layer, 0) if region == "setup"
                  else led.layer_self_ns[region][layer] / n)
            m[f"self.{region}.{layer}_s"] = ns / 1e9
    return m


#: End-to-end metrics: (name, unit, better).
E2E = (
    ("setup_s", "s", "lower"),
    ("ckpt_s", "s", "lower"),
    ("restore_s", "s", "lower"),
    ("serve_rps", "req/s", "higher"),
    ("sync_updates_per_s", "1/s", "higher"),
    ("recover_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    better = "higher" if name.endswith(("hit_rate", "coalesce_rate")) \
        else "lower"
    if name.endswith("_s"):
        return "s", better
    if name.endswith(("_frac", "_rate", "_ratio")):
        return "frac", better
    if "bytes" in name:
        return "B", better
    return "count", better
