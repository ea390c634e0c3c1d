"""Outside-in layer ledger: wall-clock spans around calls into each layer.

The benchmark measures from its own files; nothing inside ``repro`` is
edited.  :class:`Ledger` replaces layer entry points with timing
wrappers at *class* level (and, for module functions, in every module
that imported them by name), so calls made through references captured
before the instance existed are still seen — ``MemoryUpdateMonitor``,
for example, holds the bound ``route_updates`` of the tracing engine it
was built with, which an instance-level patch would miss.

Spans are kept in memory as ``(name, start_ns, end_ns, parent)`` rows
(up to ``SPAN_LIMIT``; the aggregates count every span regardless) and
written out as JSON lines when the run ends.  Spans only record while a
timed region of the benchmark is open (:meth:`Ledger.region`), so
untimed work (input mutation, reference checks) never lands in a layer.

A span's *self* time is its duration minus the time its direct child
spans cover.  Region wall time that no top-level span covers is the
residual: benchmark glue plus facade code between layer calls.

The host this runs on shares its CPUs, and its speed drifts by tens of
percent over seconds.  :class:`HostSpeed` times a fixed task just
before and just after every region; a region's *scaled* time is its
wall time times the task's reference duration over its measured one,
i.e. the wall time the region would have taken at reference speed.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

#: Timed regions, in the order a benchmark cycle visits them.
REGIONS = ("setup", "ckpt", "restore", "sync", "serve", "recover")

#: Layers (named after modules of ``repro``), in report order.
LAYERS = ("memory", "dht", "storage", "recon", "exec", "queries",
          "executor", "services", "ckpt_io", "serve", "traffic", "sim")

# (module, class or None, attribute, span name).  The layer is the span
# name's first component.  Private methods appear only where the work of
# a layer runs as a sim event with no public entry point (the frontend's
# batch drain, the traffic driver's request synthesis); a missing
# attribute is skipped, so a refactor degrades the ledger, not the run.
SPAN_POINTS = (
    ("repro.memory.monitor", "MemoryUpdateMonitor", "initial_scan", "memory.scan"),
    ("repro.memory.monitor", "MemoryUpdateMonitor", "scan", "memory.scan"),
    ("repro.memory.monitor", "MemoryUpdateMonitor", "rebase", "memory.scan"),
    ("repro.memory.monitor", "MemoryUpdateMonitor", "flush", "memory.flush"),
    ("repro.memory.nsm", "NodeSpecificModule", "resolve_block", "memory.resolve_block"),
    ("repro.dht.engine", "ContentTracingEngine", "route_updates", "dht.route"),
    ("repro.dht.engine", "ContentTracingEngine", "node_failed", "dht.fail"),
    ("repro.dht.engine", "ContentTracingEngine", "node_restarted", "dht.restart"),
    ("repro.dht.engine", "ContentTracingEngine", "detect_failures", "dht.detect"),
    ("repro.dht.engine", "ContentTracingEngine", "repair", "dht.repair"),
    ("repro.dht.table", "LocalDHT", "bulk_insert", "dht.apply"),
    ("repro.dht.table", "LocalDHT", "bulk_remove", "dht.apply"),
    ("repro.dht.storage.sqlitewal", "SqliteWalStorage", "commit", "storage.commit"),
    ("repro.dht.storage.sqlitewal", "SqliteWalStorage", "load", "storage.load"),
    ("repro.dht.storage.mmapseg", "MmapSegmentStorage", "commit", "storage.commit"),
    ("repro.dht.storage.mmapseg", "MmapSegmentStorage", "load", "storage.load"),
    ("repro.recon.session", "ReconSession", "run", "recon.session"),
    ("repro.recon.digest", "PairSetDigest", "__init__", "recon.digest"),
    ("repro.exec.pool", "ShardPool", "map_shards", "exec.map_shards"),
    ("repro.exec.pool", "ShardPool", "run_tasks", "exec.map_shards"),
    *(("repro.queries.interface", "QueryInterface", op, "queries.collective")
      for op in ("sharing", "intra_sharing", "inter_sharing",
                 "degree_of_sharing", "num_shared_content", "shared_content")),
    ("repro.queries.interface", "QueryInterface", "num_copies", "queries.nodewise"),
    ("repro.queries.interface", "QueryInterface", "entities", "queries.nodewise"),
    ("repro.core.executor", "ServiceCommandExecutor", "execute", "executor.execute"),
    ("repro.services.checkpoint", "CollectiveCheckpoint", "collective_command",
     "services.collective_command"),
    ("repro.services.checkpoint", "CollectiveCheckpoint", "collective_finalize",
     "services.finalize"),
    ("repro.services.checkpoint", "CollectiveCheckpoint", "local_command_batch",
     "services.local_batch"),
    ("repro.services.checkpoint", "CollectiveCheckpoint", "local_command",
     "services.local_batch"),
    ("repro.services.checkpoint", "CollectiveCheckpoint", "service_deinit",
     "services.deinit"),
    ("repro.services.checkpoint", "CheckpointStore", "write_to_dir", "ckpt_io.write"),
    ("repro.services.checkpoint", "CheckpointStore", "load_from_dir", "ckpt_io.load"),
    ("repro.services.checkpoint", None, "restore_entity", "ckpt_io.restore"),
    ("repro.serve.frontend", "QueryFrontend", "submit", "serve.submit"),
    ("repro.serve.frontend", "QueryFrontend", "_drain", "serve.drain"),
    ("repro.serve.frontend", "QueryFrontend", "report", "serve.report"),
    ("repro.serve.batcher", None, "bulk_answers", "serve.bulk_answers"),
    ("repro.workloads.traffic", "TrafficDriver", "__init__", "traffic.init"),
    ("repro.workloads.traffic", "TrafficDriver", "run", "traffic.run"),
    ("repro.workloads.traffic", "TrafficDriver", "_draw_request", "traffic.draw"),
    ("repro.sim.engine", "SimEngine", "run", "sim.run"),
)

#: Spans kept for the JSON-lines dump; later ones are counted as dropped.
SPAN_LIMIT = 50_000

# Hot lookups that get a call counter but no span.
COUNT_POINTS = (
    ("repro.dht.partition", "Partition", "home_node", "dht.home_node"),
)


class HostSpeed:
    """A fixed mix of interpreter and NumPy work, timed to track how fast
    the host runs right now (best of ``REPS``)."""

    #: Duration of one task at reference speed: a quiet 2-CPU x86_64
    #: host, Python 3.11, NumPy 2.4.
    REFERENCE_S = 2.2e-3
    REPS = 3

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).integers(
            0, 1 << 62, 100_000, dtype=np.uint64)

    def _task(self) -> None:
        table = {}
        for i in range(10_000):
            table[i] = i * 3
        np.sort(self._data)

    def sample(self) -> float:
        best = float("inf")
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            self._task()
            best = min(best, time.perf_counter() - t0)
        return best


@dataclass
class RegionTime:
    """Wall and speed-scaled seconds of one timed region."""

    wall_s: float = 0.0
    scaled_s: float = 0.0


class Ledger:
    """Region timer, span recorder and per-layer wall-time aggregator."""

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.active = False
        self._region = "setup"
        self._restore: list[tuple[object, str, object]] = []
        # Open spans: [span id, ns covered by direct children].
        self._stack: list[list[int]] = []
        self._next_id = 0
        self.spans: list[tuple[str, int, int, int]] = []
        self.dropped = 0
        self.reset()

    # -- aggregates -------------------------------------------------------------

    def reset(self) -> None:
        """Zero every aggregate (stored spans are kept)."""
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        # region -> layer -> self ns; region -> wall ns / top-level span ns
        self.layer_self_ns = {r: defaultdict(int) for r in REGIONS}
        self.region_ns = dict.fromkeys(REGIONS, 0)
        self.top_ns = dict.fromkeys(REGIONS, 0)

    @contextlib.contextmanager
    def region(self, name: str, record: bool = True):
        """Open a timed region; spans record inside it when ``record``.
        Yields a :class:`RegionTime`, filled in when the region closes."""
        out = RegionTime()
        before = self.speed.sample()
        self._region = name
        self.active = record
        t0 = time.perf_counter_ns()
        try:
            yield out
        finally:
            dt = time.perf_counter_ns() - t0
            self.active = False
            self.region_ns[name] += dt
            out.wall_s = dt / 1e9
            host = (before + self.speed.sample()) / 2
            out.scaled_s = out.wall_s * HostSpeed.REFERENCE_S / host

    def busy_s(self, *names: str) -> float:
        return sum(self.busy_ns[n] for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def count(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def residual_frac(self) -> float:
        """Share of region wall time that no top-level span covers."""
        wall = sum(self.region_ns.values())
        covered = sum(self.top_ns.values())
        return (wall - covered) / wall if wall else 0.0

    # -- recording --------------------------------------------------------------

    def _span(self, fn, name: str):
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append([sid, 0])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                _sid, child = stack.pop()
                self.busy_ns[name] += dur
                self.self_ns[name] += dur - child
                self.calls[name] += 1
                self.layer_self_ns[self._region][layer] += dur - child
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_ns[self._region] += dur
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((name, t0, t1, parent))
                else:
                    self.dropped += 1

        return span

    def _counter(self, fn, name: str):
        def counted(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every span and count point (idempotent per ledger)."""
        if self._restore:
            return
        for points, make in ((SPAN_POINTS, self._span),
                             (COUNT_POINTS, self._counter)):
            for mod_name, cls_name, attr, name in points:
                module = importlib.import_module(mod_name)
                if cls_name is None:
                    self._wrap_function(module, attr, name, make)
                    continue
                cls = getattr(module, cls_name)
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(raw.__func__, name))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(make(raw.__func__, name))
                else:
                    wrapped = make(raw, name)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)

    def _wrap_function(self, module, attr: str, name: str, make) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        wrapped = make(fn, name)
        # Rebind the name wherever it was imported: modules that did
        # ``from module import fn`` hold their own reference.
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is fn):
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.active = False

    def write_jsonl(self, path) -> None:
        """Write the stored spans, one JSON object per line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent}))
                fh.write("\n")
