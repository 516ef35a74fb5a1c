"""Paged KV cache for autoregressive decoding, with prefix sharing.

Decoding appends one token per step; each step's attention needs the keys
and values of every earlier position.  Recomputing them is the *reference*
behaviour (and the other side of the golden decode matrix); caching them is
the serving behaviour.  Two implementations share one append/gather
contract so the cached path has a loop-sibling to be property-tested
against:

- :class:`SequenceKV` / :class:`LayerKV` — the reference store: plain
  per-layer lists, no block structure.  This is also what the causal
  forward paths in :mod:`repro.models.attention` /
  :mod:`repro.models.transformer` use as scratch state, which is *why*
  cached decoding is bit-for-bit the full recompute: both run the same
  per-position true-shape operations, the cache merely skips recomputing
  values that recomputation would reproduce identically.

- :class:`PagedKVCache` — the serving store, after vLLM's PagedAttention:
  K/V live in fixed-size blocks (``block_size`` token slots, all layers),
  each sequence holds a block table, and blocks are explicitly allocated,
  reference-counted and freed.  Requests submitted with a common prompt
  share the prompt's blocks (``prefix_hits``); a sequence appending into a
  shared partial block first copies it (``cow_copies`` — copy-on-write).
  Registered prefixes are evicted LRU when the pool runs dry
  (``evictions``).  :meth:`PagedKVCache.cache_stats` reports all of it.

Bit-exactness note: both stores return the gathered K/V as freshly-built
contiguous ``(tokens, heads, head_dim)`` float32 arrays, so every matmul
downstream sees identical values at identical shapes and strides whichever
store fed it.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "KVCacheExhausted",
    "LayerKV",
    "SequenceKV",
    "PagedKVCache",
    "prompt_fingerprint",
]


class KVCacheExhausted(RuntimeError):
    """No free block and no evictable prefix left.

    Typed so the decode engine can fail the one request that needed the
    block (a recorded outcome, everything it held returned) instead of the
    error escaping ``serve()`` with sequences still holding every block.
    """


def prompt_fingerprint(prompt: np.ndarray) -> str:
    """Content hash identifying a prompt for prefix-cache sharing."""
    prompt = np.ascontiguousarray(prompt, dtype=np.float32)
    digest = hashlib.sha1(prompt.tobytes())
    digest.update(str(prompt.shape).encode())
    return digest.hexdigest()


class LayerKV:
    """Reference per-layer KV store: append one token, gather all of them."""

    def __init__(self) -> None:
        self._keys: List[np.ndarray] = []
        self._values: List[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._keys)

    def append(self, k: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Store the new token's ``(heads, head_dim)`` K/V; return all so far.

        The gathered arrays are fresh contiguous ``(tokens, heads,
        head_dim)`` float32 — the same layout :class:`PagedKVCache` gathers,
        so downstream matmuls are bit-identical across stores.
        """
        k = np.ascontiguousarray(k, dtype=np.float32)
        v = np.ascontiguousarray(v, dtype=np.float32)
        if k.ndim != 2 or k.shape != v.shape:
            raise ValueError(f"k/v must be matching (heads, head_dim) arrays, got {k.shape}/{v.shape}")
        self._keys.append(k)
        self._values.append(v)
        return np.stack(self._keys), np.stack(self._values)


class SequenceKV:
    """Reference per-sequence cache: one :class:`LayerKV` per layer."""

    def __init__(self, num_layers: int) -> None:
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        self._layers = [LayerKV() for _ in range(num_layers)]
        self.length = 0

    def extend(self) -> int:
        """Open the slot for the next token position; returns the position."""
        self.length += 1
        return self.length - 1

    def view(self, layer: int) -> LayerKV:
        return self._layers[layer]


@dataclass
class _PrefixEntry:
    """A registered shared prompt: registry-held block references."""

    fingerprint: str
    block_ids: List[int]
    length: int
    #: Encoder output at the final prompt position — what seeds decoding,
    #: cached so sharers skip the whole prefill.
    last_output: np.ndarray


class _PagedLayerView:
    """One layer's append/gather window onto a paged sequence."""

    def __init__(self, sequence: "_PagedSequence", layer: int) -> None:
        self._sequence = sequence
        self._layer = layer

    def __len__(self) -> int:
        return self._sequence.written[self._layer]

    def append(self, k: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._sequence.append(self._layer, k, v)


class _PagedSequence:
    """A live sequence's block table inside a :class:`PagedKVCache`."""

    def __init__(self, cache: "PagedKVCache", seq_id: str) -> None:
        self.cache = cache
        self.seq_id = seq_id
        self.block_ids: List[int] = []
        self.length = 0
        self.written = [0] * cache.num_layers

    def extend(self) -> int:
        """Allocate the slot for the next token position (COW if shared)."""
        cache = self.cache
        position = self.length
        block_index = position // cache.block_size
        if block_index == len(self.block_ids):
            self.block_ids.append(cache._alloc_block())
        else:
            block_id = self.block_ids[block_index]
            if cache._refcount[block_id] > 1:
                # Shared partial block (prefix sharing): copy before writing.
                fresh = cache._alloc_block()
                cache._k_store[:, fresh] = cache._k_store[:, block_id]
                cache._v_store[:, fresh] = cache._v_store[:, block_id]
                cache._refcount[block_id] -= 1
                self.block_ids[block_index] = fresh
                cache.cow_copies += 1
        self.length += 1
        return position

    def truncate(self, length: int) -> None:
        """Forget the positions past ``length`` (undo a step that raised).

        Only the counters move.  Blocks stay held: a tail block the undone
        ``extend()`` allocated or copied-on-write is private to this
        sequence, so the next ``extend()`` lands in it with no second
        allocation or copy and the retried appends overwrite its slots.
        """
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot truncate a {self.length}-token sequence to {length}")
        self.length = length
        self.written = [min(w, length) for w in self.written]

    def view(self, layer: int) -> _PagedLayerView:
        return _PagedLayerView(self, layer)

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        cache = self.cache
        position = self.written[layer]
        if position >= self.length:
            raise RuntimeError(
                f"sequence {self.seq_id!r} layer {layer}: append without a prior extend()"
            )
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        expected = (cache.num_heads, cache.head_dim)
        if k.shape != expected or v.shape != expected:
            raise ValueError(f"k/v must have shape {expected}, got {k.shape}/{v.shape}")
        block_id = self.block_ids[position // cache.block_size]
        offset = position % cache.block_size
        cache._k_store[layer, block_id, offset] = k
        cache._v_store[layer, block_id, offset] = v
        self.written[layer] = position + 1
        return self.gathered(layer)

    def gathered(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """All cached K/V of ``layer`` as contiguous ``(t, heads, head_dim)``."""
        cache = self.cache
        tokens = self.written[layer]
        if tokens == 0:
            raise RuntimeError(f"sequence {self.seq_id!r} layer {layer} has no cached tokens")
        blocks_needed = -(-tokens // cache.block_size)
        ids = self.block_ids[:blocks_needed]
        flat_shape = (blocks_needed * cache.block_size, cache.num_heads, cache.head_dim)
        k = np.ascontiguousarray(cache._k_store[layer, ids].reshape(flat_shape)[:tokens])
        v = np.ascontiguousarray(cache._v_store[layer, ids].reshape(flat_shape)[:tokens])
        return k, v


class PagedKVCache:
    """Block-table KV storage shared by every sequence of a decoder engine.

    Storage is ``(num_layers, capacity_blocks, block_size, heads, head_dim)``
    for keys and values; a block holds ``block_size`` consecutive token
    slots of one sequence across all layers.  Blocks are reference-counted:
    a block reaches the free list only when no sequence *and* no registered
    prefix holds it.
    """

    def __init__(
        self,
        num_layers: int,
        num_heads: int,
        head_dim: int,
        block_size: int = 16,
        capacity_blocks: int = 512,
    ) -> None:
        if min(num_layers, num_heads, head_dim, block_size, capacity_blocks) <= 0:
            raise ValueError("all PagedKVCache dimensions must be positive")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        shape = (num_layers, capacity_blocks, block_size, num_heads, head_dim)
        self._k_store = np.zeros(shape, dtype=np.float32)
        self._v_store = np.zeros(shape, dtype=np.float32)
        self._free: List[int] = list(range(capacity_blocks - 1, -1, -1))
        self._refcount = [0] * capacity_blocks
        self._sequences: Dict[str, _PagedSequence] = {}
        self._prefixes: "OrderedDict[str, _PrefixEntry]" = OrderedDict()
        self.prefix_hits = 0
        self.cow_copies = 0
        self.evictions = 0
        self.peak_blocks_in_use = 0

    # -- block pool ---------------------------------------------------------

    @property
    def blocks_in_use(self) -> int:
        return self.capacity_blocks - len(self._free)

    @property
    def blocks_free(self) -> int:
        return len(self._free)

    def _alloc_block(self) -> int:
        if not self._free:
            self._evict_prefixes_for_space()
        if not self._free:
            raise KVCacheExhausted(
                f"KV cache exhausted: all {self.capacity_blocks} blocks of "
                f"{self.block_size} token slots are held by live sequences"
            )
        block_id = self._free.pop()
        self._refcount[block_id] = 1
        self.peak_blocks_in_use = max(self.peak_blocks_in_use, self.blocks_in_use)
        return block_id

    def _release_block(self, block_id: int) -> None:
        self._refcount[block_id] -= 1
        if self._refcount[block_id] == 0:
            self._free.append(block_id)
        elif self._refcount[block_id] < 0:
            raise RuntimeError(f"block {block_id} released more times than acquired")

    def _evict_prefixes_for_space(self) -> None:
        """Drop registered prefixes LRU-first until a block frees (or none left)."""
        while self._prefixes and not self._free:
            _, entry = self._prefixes.popitem(last=False)
            for block_id in entry.block_ids:
                self._release_block(block_id)
            self.evictions += 1

    # -- sequences ----------------------------------------------------------

    def create(self, seq_id: str) -> _PagedSequence:
        if seq_id in self._sequences:
            raise ValueError(f"sequence {seq_id!r} already exists")
        sequence = _PagedSequence(self, seq_id)
        self._sequences[seq_id] = sequence
        return sequence

    def sequence(self, seq_id: str) -> _PagedSequence:
        return self._sequences[seq_id]

    def free(self, seq_id: str) -> int:
        """Release a sequence's block references; returns blocks dereferenced."""
        sequence = self._sequences.pop(seq_id)
        for block_id in sequence.block_ids:
            self._release_block(block_id)
        count = len(sequence.block_ids)
        sequence.block_ids = []
        return count

    # -- prefix sharing -----------------------------------------------------

    def register_prefix(self, fingerprint: str, seq_id: str, last_output: np.ndarray) -> None:
        """Pin ``seq_id``'s current blocks as a shareable prompt prefix."""
        if fingerprint in self._prefixes:
            self._prefixes.move_to_end(fingerprint)
            return
        sequence = self._sequences[seq_id]
        if sequence.length == 0 or any(w != sequence.length for w in sequence.written):
            raise RuntimeError(
                f"sequence {seq_id!r} is mid-step; register prefixes between steps"
            )
        for block_id in sequence.block_ids:
            self._refcount[block_id] += 1
        self._prefixes[fingerprint] = _PrefixEntry(
            fingerprint=fingerprint,
            block_ids=list(sequence.block_ids),
            length=sequence.length,
            last_output=np.array(last_output, dtype=np.float32, copy=True),
        )

    def attach_prefix(self, fingerprint: str, seq_id: str) -> Optional[_PrefixEntry]:
        """Attach a fresh sequence to a registered prefix, sharing its blocks.

        Returns the entry (length + cached final-position output) on a hit,
        ``None`` on a miss.  The sequence must be empty: sharing replaces
        prefill, it cannot splice into a decoded sequence.
        """
        entry = self._prefixes.get(fingerprint)
        if entry is None:
            return None
        sequence = self._sequences[seq_id]
        if sequence.length != 0:
            raise RuntimeError(f"sequence {seq_id!r} is not empty; cannot attach a prefix")
        for block_id in entry.block_ids:
            self._refcount[block_id] += 1
        sequence.block_ids = list(entry.block_ids)
        sequence.length = entry.length
        sequence.written = [entry.length] * self.num_layers
        self._prefixes.move_to_end(fingerprint)
        self.prefix_hits += 1
        return entry

    # -- reporting ----------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        """Block-table accounting: occupancy, sharing and reclamation counters."""
        return {
            "block_size": self.block_size,
            "capacity_blocks": self.capacity_blocks,
            "blocks_in_use": self.blocks_in_use,
            "blocks_free": self.blocks_free,
            "peak_blocks_in_use": self.peak_blocks_in_use,
            "sequences": len(self._sequences),
            "prefix_entries": len(self._prefixes),
            "prefix_hits": self.prefix_hits,
            "cow_copies": self.cow_copies,
            "evictions": self.evictions,
        }
