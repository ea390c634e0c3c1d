"""Digest-based set reconciliation (docs/RECONCILIATION.md).

Repair, warm restart and join catch-up all converge two
(hash, entity, count) multisets — a shard's *believed* copies and the
NSM *ground truth* routed to it.  This package is their shared core:

* :mod:`repro.recon.diff` — the canonical pair-multiset diff (the exact
  kernel the engine grew in PR 7, now importable without the engine);
* :mod:`repro.recon.digest` — :class:`PairSetDigest`, a hierarchical
  digest over a shard's sorted hash column (prefix-sum of mixed row
  keys, so any hash-range digest is O(log n)), cached per shard epoch;
* :mod:`repro.recon.session` — :class:`ReconSession`, the two-party
  protocol: digest exchange, a level-at-a-time partition-by-prefix
  descent into mismatched subtrees, and a pair-multiset leaf diff, with
  real wire cost accounted per round.

Every ``ConCORD.repair`` (and ``warm_restart``) drives one session per
shard, so repair bandwidth scales with the *divergence* between the DHT
view and ground truth instead of with total tracked content.
"""

from repro.recon.diff import canonical_pairs, pair_multiset_diff
from repro.recon.digest import HASH_SPACE, DigestCache, PairSetDigest
from repro.recon.session import ReconReport, ReconSession

__all__ = [
    "canonical_pairs",
    "pair_multiset_diff",
    "PairSetDigest",
    "DigestCache",
    "HASH_SPACE",
    "ReconSession",
    "ReconReport",
]
