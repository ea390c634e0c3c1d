"""Many ``Generator.permutation(k)`` calls as one kernel.

The executor draws one replica try-order per believed hash, each a
``rng.permutation(k)`` over the hash's k candidate replicas.  Called
per hash that is a Python round trip into NumPy for every row, although
most rows have one candidate and draw nothing.  :func:`permutations`
produces the same orders for a whole column of k values and leaves the
generator in the state the per-row calls would have left it in.

It emulates what NumPy does for a 1-D shuffle under PCG64:
Fisher-Yates from the last position down to 1, each swap index drawn by
``random_interval(i)``, which masks a buffered 32-bit draw to the
smallest all-ones mask covering ``i`` and rejects values above ``i``.
32-bit draws take the low half of a 64-bit output first and keep the
high half (``has_uint32``/``uinteger`` in the bit generator's state)
for the next one.  The raw 64-bit words come from a copy of the bit
generator; the original is then moved past the words consumed with
``PCG64.advance`` and its half-word buffer restored.  Other bit
generators are refused.
"""

from __future__ import annotations

import numpy as np

__all__ = ["permutations"]

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _words32(raw: np.ndarray) -> list[int]:
    """The 32-bit draws of 64-bit outputs, in draw order (low, high)."""
    out = np.empty(2 * len(raw), dtype=np.uint64)
    out[0::2] = raw & _LOW32
    out[1::2] = raw >> _SHIFT32
    return out.tolist()


def permutations(rng: np.random.Generator, ks: np.ndarray) -> np.ndarray:
    """``np.concatenate([rng.permutation(k) for k in ks])``, exactly.

    Every ``k`` must be at least 1.  Returns int64 positions: row r's
    permutation of ``range(ks[r])`` sits at ``offsets[r]:offsets[r] +
    ks[r]`` with ``offsets`` the exclusive cumulative sum of ``ks``.
    ``rng`` must run on PCG64, as ``np.random.default_rng``'s does.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(f"permutations emulates PCG64, not "
                        f"{type(bitgen).__name__}")
    ks = np.asarray(ks, dtype=np.int64)
    starts = np.cumsum(ks) - ks
    out = np.arange(int(ks.sum()), dtype=np.int64) - np.repeat(starts, ks)
    multi = np.flatnonzero(ks > 1)
    if not len(multi):
        return out
    state = bitgen.state
    source = np.random.PCG64()
    source.state = state
    # Enough 64-bit words for the draws without rejections, plus slack;
    # rejections that run past them fetch another chunk of this size.
    chunk = max(64, int((ks[multi] - 1).sum()) // 2 + 32)
    pre = 1 if state["has_uint32"] else 0
    words = [state["uinteger"]] * pre + _words32(source.random_raw(chunk))
    n_raw, pos, n_words = chunk, 0, len(words)
    kmulti = ks[multi]
    drawn: list[int] = []           # the multi rows' orders, concatenated
    # random_interval's mask per bound i: the smallest 2**b - 1 >= i.
    masks = [(1 << i.bit_length()) - 1 for i in range(int(kmulti.max()))]
    for k in kmulti.tolist():
        seg = list(range(k))
        for i in range(k - 1, 0, -1):
            mask = masks[i]
            while True:
                if pos == n_words:
                    words = _words32(source.random_raw(chunk))
                    n_raw, pos, n_words = n_raw + chunk, 0, len(words)
                    pre = 0
                v = words[pos] & mask
                pos += 1
                if v <= i:
                    break
            seg[i], seg[v] = seg[v], seg[i]
        drawn += seg
    out[np.repeat(ks > 1, ks)] = drawn
    # 32-bit draws taken from raw words: the current chunk's consumed
    # part (less a buffered half-word at its head) plus every earlier
    # chunk, all of which were used up.
    taken = 2 * (n_raw - chunk) + pos - pre
    if taken:
        bitgen.advance((taken + 1) // 2)
    new = bitgen.state
    new["has_uint32"] = taken % 2
    if taken:
        # The high half of the last word split: buffered if unconsumed.
        new["uinteger"] = words[pos] if taken % 2 else words[pos - 1]
    bitgen.state = new
    return out
