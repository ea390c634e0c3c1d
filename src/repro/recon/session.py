"""The two-party set-reconciliation protocol (docs/RECONCILIATION.md).

A :class:`ReconSession` converges a *local* pair set (a shard's believed
copies) onto a *remote* one (NSM ground truth routed to that shard) by
recursive partition-by-prefix descent, per the Shingling paper's
protocol shape:

1. **Digest exchange** — each round, the parties exchange
   ``(count, digest)`` summaries for every range on the frontier
   (initially the whole u64 hash space).
2. **Descent** — ranges whose summaries agree are pruned; a differing
   range splits into ``branching`` equal prefix sub-ranges for the next
   round, until a range is small enough to ship outright.
3. **Leaf diff** — for the differing leaf ranges, local sends its rows,
   remote answers with the pair-multiset diff
   (:func:`repro.recon.diff.pair_multiset_diff`), and local applies it.

Every message is a real :class:`~repro.util.records.Message` with UDP
and ConCORD header overhead, so bytes-on-wire scales with the
*divergence* (differing subtrees + leaf rows), not with total content —
the property the ``repair.bytes_vs_divergence`` bench pins against the
modelled cost of a linear full-rebuild replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.recon.diff import _empty_triplet, pair_multiset_diff
from repro.recon.digest import HASH_SPACE, PairSetDigest
from repro.util.records import (ENTITY_ID_BYTES, HASH_BYTES, Message,
                                MsgKind)

__all__ = [
    "ReconReport", "ReconSession", "DigestExchange", "PairExchange",
    "DIGEST_ENTRY_BYTES", "PAIR_ENTRY_BYTES",
]

_U64 = np.uint64

#: One frontier range summary on the wire: 8 B digest + 4 B row count +
#: 2 B range tag (child index within the parent, per the prefix scheme).
DIGEST_ENTRY_BYTES = 14

#: One canonical pair on the wire: hash + entity id + 2 B copy count.
PAIR_ENTRY_BYTES = HASH_BYTES + ENTITY_ID_BYTES + 2


@dataclass
class DigestExchange(Message):
    """One round's range summaries (either direction)."""

    n_entries: int = 0

    def payload_bytes(self) -> int:
        return DIGEST_ENTRY_BYTES * self.n_entries


@dataclass
class PairExchange(Message):
    """Leaf rows one way, diff ops the other."""

    n_pairs: int = 0

    def payload_bytes(self) -> int:
        return PAIR_ENTRY_BYTES * self.n_pairs


@dataclass(frozen=True)
class ReconReport:
    """What one reconciliation session converged, and what it cost."""

    bytes_wire: int
    rounds: int
    ranges_compared: int
    leaves_shipped: int
    ins: tuple = field(repr=False, default=())
    rem: tuple = field(repr=False, default=())

    @property
    def ops_applied(self) -> int:
        ins_c, rem_c = self.ins[2], self.rem[2]
        return int(ins_c.sum()) + int(rem_c.sum())


class ReconSession:
    """Reconcile ``local`` onto ``remote`` over a (simulated) wire.

    ``emit`` receives every protocol :class:`Message` (the engine wires
    it to the simulated network when ``use_network`` is on); wire bytes
    are accounted from the messages either way.  ``branching`` must be
    a power of two (the descent splits ranges by hash prefix).
    """

    def __init__(self, local: PairSetDigest, remote: PairSetDigest,
                 src_node: int = 0, dst_node: int = 0,
                 branching: int = 16, leaf_limit: int = 8,
                 emit: Callable[[Message], None] | None = None) -> None:
        if branching < 2 or branching & (branching - 1):
            raise ValueError(f"branching must be a power of two >= 2, "
                             f"got {branching}")
        if leaf_limit < 1:
            raise ValueError("leaf_limit must be >= 1")
        self.local = local
        self.remote = remote
        self.src_node = src_node
        self.dst_node = dst_node
        self.branching = branching
        self.leaf_limit = leaf_limit
        self.emit = emit
        self.bytes_wire = 0
        self.rounds = 0

    def _send(self, msg: Message) -> None:
        self.bytes_wire += msg.wire_bytes()
        if self.emit is not None:
            self.emit(msg)

    def _digest_round(self, n_entries: int) -> None:
        self.rounds += 1
        self._send(DigestExchange(MsgKind.HASH_EXCHANGE, self.src_node,
                                  self.dst_node, n_entries=n_entries))
        self._send(DigestExchange(MsgKind.HASH_EXCHANGE, self.dst_node,
                                  self.src_node, n_entries=n_entries))

    def run(self) -> ReconReport:
        """Descend one tree level per digest round.

        Every range on a level has the same width (the root's divided by
        ``branching`` per level), so the frontier is just a u64 array of
        range starts: one array call per side summarizes the level, and
        the prune / leaf / split rule is a pair of masks.
        """
        starts = np.zeros(1, dtype=_U64)
        width = HASH_SPACE
        leaf_lo: list[np.ndarray] = []
        leaf_last: list[np.ndarray] = []
        ranges_compared = 0
        while len(starts):
            self._digest_round(len(starts))
            ranges_compared += len(starts)
            last = starts + _U64(width - 1)
            nl, dl = self.local.range_summaries(starts, last)
            nr, dr = self.remote.range_summaries(starts, last)
            differ = (nl != nr) | (dl != dr)
            if not differ.any():
                break
            # A differing range is shipped as a leaf once it is small
            # enough, or when one side is empty: then the whole subtree
            # differs and further digest rounds cannot prune anything.
            leaf = differ & ((np.minimum(nl, nr) == 0)
                             | (np.maximum(nl, nr) <= self.leaf_limit)
                             | (width <= self.branching))
            if leaf.any():
                leaf_lo.append(starts[leaf])
                leaf_last.append(last[leaf])
            width //= self.branching
            offsets = np.arange(self.branching, dtype=_U64) * _U64(width)
            starts = (starts[differ & ~leaf][:, None] + offsets).ravel()

        ins = rem = _empty_triplet()
        leaves = 0
        if leaf_lo:
            lo, last = np.concatenate(leaf_lo), np.concatenate(leaf_last)
            leaves = len(lo)
            lh, le, lc = self.local.range_rows(lo, last)
            rh, re, rc = self.remote.range_rows(lo, last)
            ins, rem = pair_multiset_diff(lh, le, lc, rh, re, want_c=rc)
            self.rounds += 1
            self._send(PairExchange(MsgKind.HASH_EXCHANGE, self.src_node,
                                    self.dst_node, n_pairs=len(lh)))
            self._send(PairExchange(MsgKind.HASH_EXCHANGE, self.dst_node,
                                    self.src_node,
                                    n_pairs=len(ins[0]) + len(rem[0])))
        return ReconReport(bytes_wire=self.bytes_wire, rounds=self.rounds,
                           ranges_compared=ranges_compared,
                           leaves_shipped=leaves, ins=ins, rem=rem)
