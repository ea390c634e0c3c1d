"""The batched collective phase against the per-row protocol.

A service that defines ``collective_command_batch`` has its collective
phase settled one try-depth at a time with one callback per shard; the
same service with the method cleared runs the per-row protocol.  Over
staleness, a dead PE host, datagram loss, content-defined chunking,
scopes wider than 64 entities, both modes and a parallel filesystem, the
two must agree exactly on every count, byte and event, and on simulated
seconds up to summation order.
"""

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (CheckpointStore, Cluster, CollectiveCheckpoint, ConCORD,
                   ConCORDConfig, Entity, ServiceScope)
from repro.core.command import ExecMode
from repro.core.events import CommandTracer
from repro.memory.pagedata import materialize_pages
from repro.services.null import NullService
from repro.storage import ParallelFileSystem

SLOW = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_STAT_INTS = ("believed_hashes", "handled", "stale_unhandled", "retries",
              "invokes", "select_calls", "local_blocks", "covered_blocks",
              "uncovered_blocks")


class PerRowCheckpoint(CollectiveCheckpoint):
    collective_command_batch = None


class PerRowNull(NullService):
    collective_command_batch = None


@st.composite
def worlds(draw):
    return {
        "seed": draw(st.integers(0, 10_000)),
        "n_nodes": draw(st.integers(2, 5)),
        "n_ents": draw(st.sampled_from([2, 3, 6, 66, 70])),
        "pages": draw(st.integers(2, 12)),
        "pool": draw(st.integers(1, 40)),
        "stale": draw(st.sampled_from([0.0, 0.2, 0.6])),
        "kill_pe": draw(st.booleans()),
        "loss": draw(st.sampled_from([None, 0.0, 0.4])),
        "cdc": draw(st.booleans()),
        "mode": draw(st.sampled_from([ExecMode.INTERACTIVE, ExecMode.BATCH])),
        "pfs": draw(st.booleans()),
        "null": draw(st.booleans()),
    }


def _build(w):
    """A brought-up ConCORD and command scope for one world; building it
    twice gives two identical systems."""
    n_nodes = w["n_nodes"]
    cluster = Cluster(n_nodes, seed=w["seed"])
    rng = np.random.default_rng(w["seed"])
    pages = w["pages"] if not w["cdc"] else min(w["pages"], 4)
    ents = []
    for i in range(w["n_ents"]):
        ids = rng.integers(1, w["pool"] + 1, pages).astype(np.uint64)
        if w["cdc"] and i % 2 == 0:
            # Byte-backed: content-defined chunks under cdc.
            ents.append(Entity.from_bytes(
                cluster, i % n_nodes, b"".join(materialize_pages(ids))))
        else:
            ents.append(Entity.create(cluster, i % n_nodes, ids))
    concord = ConCORD(cluster, ConCORDConfig(
        use_network=w["loss"] is not None, workers=1,
        chunking="cdc" if w["cdc"] else "fixed"))
    if w["loss"]:
        cluster.network.set_loss(w["loss"])
    concord.initial_scan()
    # Post-scan writes the DHT never hears about.
    for e in ents:
        if w["stale"]:
            e.mutate_random(w["stale"], rng)
    dead = n_nodes - 1 if w["kill_pe"] else None
    if dead is not None:
        concord.fail_node(dead)
    ses = [e.entity_id for e in ents if e.node_id != dead and
           (e.entity_id % 3 != 2 or e.node_id == 0)]
    pes = [e.entity_id for e in ents if e.entity_id not in set(ses)]
    return concord, ServiceScope.of(ses, pes)


def _run(w, batched: bool):
    concord, scope = _build(w)
    store = CheckpointStore()
    pfs = ParallelFileSystem() if w["pfs"] else None
    if w["null"]:
        svc = NullService() if batched else PerRowNull()
    else:
        cls = CollectiveCheckpoint if batched else PerRowCheckpoint
        svc = cls(store, pfs=pfs)
    tracer = CommandTracer()
    result = concord.execute_command(svc, scope, mode=w["mode"],
                                     tracer=tracer)
    with tempfile.TemporaryDirectory() as tmp:
        store.write_to_dir(Path(tmp))
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(tmp).iterdir())}
    counters = {k: v for k, v in concord.metrics().snapshot().items()
                if k.startswith("ckpt.")}
    states = {n: ctx.state for n, ctx in result.contexts.items()}
    plans = {n: [(p.op, p.args) for p in ctx.plan]
             for n, ctx in result.contexts.items()}
    return result, tracer, files, counters, states, plans


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


@SLOW
@given(worlds())
def test_batched_phase_equals_per_row(w):
    a, trace_a, files_a, counters_a, states_a, plans_a = _run(w, True)
    b, trace_b, files_b, counters_b, states_b, plans_b = _run(w, False)
    assert a.success == b.success
    assert a.handled_private == b.handled_private
    for name in _STAT_INTS:
        assert getattr(a.stats, name) == getattr(b.stats, name), name
    assert a.stats.tx_bytes_per_node == b.stats.tx_bytes_per_node
    assert a.stats.rx_bytes_per_node == b.stats.rx_bytes_per_node
    assert [(e.kind, e.data) for e in trace_a] == \
        [(e.kind, e.data) for e in trace_b]
    assert files_a == files_b
    assert counters_a == counters_b
    if w["null"]:
        assert states_a == states_b and plans_a == plans_b
    assert _close(a.wall_time, b.wall_time)
    for phase, pa in a.phases.items():
        pb = b.phases[phase]
        for f in ("wall", "max_node_cpu", "cpu", "comm", "barrier"):
            assert _close(getattr(pa, f), getattr(pb, f)), (phase, f)


def test_wide_scope_exercises_batch_path():
    """A >64-entity scope with a dead PE host and stale content runs the
    batched walk through wide rows, node-down and content-gone retries
    and still matches the per-row protocol."""
    w = {"seed": 3, "n_nodes": 4, "n_ents": 70, "pages": 8, "pool": 6,
         "stale": 0.2, "kill_pe": True, "loss": None, "cdc": False,
         "mode": ExecMode.INTERACTIVE, "pfs": True, "null": False}
    a, trace_a, files_a, *_ = _run(w, True)
    b, trace_b, files_b, *_ = _run(w, False)
    assert a.stats.retries > 0 and a.stats.stale_unhandled >= 0
    kinds = {e.data[2] for e in trace_a if e.kind.value == "invoke_failed"}
    assert kinds == {"node-down", "content-gone"}
    assert any(max(e.data[1]) >= 64 for e in trace_a
               if e.kind.value == "select")
    assert [(e.kind, e.data) for e in trace_a] == \
        [(e.kind, e.data) for e in trace_b]
    assert files_a == files_b
