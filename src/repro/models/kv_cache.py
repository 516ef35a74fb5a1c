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

- :class:`PagedKVCache` — the serving store, after vLLM: fixed-size blocks
  (``block_size`` token slots, all layers) are explicitly allocated,
  reference-counted and freed as the unit of admission, while each sequence
  owns one token-major ``(layers, capacity, heads, head_dim)`` K and V
  extent that attention reads in place — no per-step gather.  Requests
  with a common prompt share its blocks (``prefix_hits``) and copy its rows
  once; appending into a shared partial block takes a private block id
  (``cow_copies`` — copy-on-write is accounting only).  A registered prompt
  reads its rows from its owner's extent while the owner lives; at the
  owner's release it is kept — its rows copied once — only if a sequence
  attached to it or its fingerprint was registered before (TinyLFU's
  one-hit-wonder filter), else dropped with its block references.  Kept
  prefixes are evicted LRU when the pool runs dry (``evictions``).

Bit-exactness note: :class:`LayerKV` returns fresh contiguous ``(tokens,
heads, head_dim)`` float32 stacks, the paged store the views
``extent[layer, :tokens]`` with exactly their strides, so every matmul
downstream sees identical values at identical shapes and strides whichever
store fed it.  A view is read before the sequence's next write.
"""

from __future__ import annotations

import hashlib
import mmap
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kernels.common import BoundedCache

__all__ = [
    "KVCacheExhausted",
    "LayerKV",
    "SequenceKV",
    "PagedKVCache",
    "prompt_fingerprint",
]


def _mapped(shape: Tuple[int, ...]) -> np.ndarray:
    """A float32 array in its own anonymous mapping.  K/V rows come and go
    with requests; off the malloc heap they return their pages when dropped
    instead of leaving holes the process's other allocations fragment."""
    return np.frombuffer(mmap.mmap(-1, 4 * int(np.prod(shape))), dtype=np.float32).reshape(shape)


def _mapped_copy(rows: np.ndarray) -> np.ndarray:
    """``rows`` copied into a :func:`_mapped` array of their own."""
    copy = _mapped(rows.shape)
    copy[...] = rows
    return copy


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
        head_dim)`` float32 — the layout of :class:`PagedKVCache`'s views,
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
    """A registered prompt: registry-held block references and one row source."""

    fingerprint: str
    block_ids: List[int]
    length: int
    #: Encoder output at the final prompt position — what seeds decoding,
    #: cached so sharers skip the whole prefill.
    last_output: np.ndarray
    #: The live sequence that registered the prompt: its extent holds the
    #: prompt's rows, never rewritten after prefill (a rollback never goes
    #: below the prompt).  ``None`` once the owner is released.
    owner: Optional["_PagedSequence"]
    #: Whether the entry outlives its owner: a sequence attached to it, or
    #: its fingerprint was registered before.
    keep: bool
    #: The prompt's ``(layers, length, heads, head_dim)`` K/V, copied at the
    #: owner's release when kept (pinning the whole extent would also hold
    #: its decode rows); ``None`` while the owner lives.
    keys: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The prompt's K/V: views of the owner's extent, else the copy."""
        source = self.owner if self.owner is not None else self
        return source.keys[:, : self.length], source.values[:, : self.length]


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
    """A live sequence's block table and K/V extents inside a :class:`PagedKVCache`."""

    def __init__(self, cache: "PagedKVCache", seq_id: str, keys: np.ndarray, values: np.ndarray) -> None:
        self.cache = cache
        self.seq_id = seq_id
        self.block_ids: List[int] = []
        self.length = 0
        self.written = [0] * cache.num_layers
        self.keys = keys
        self.values = values
        #: The fingerprint of the registered prefix whose rows this
        #: sequence's extent holds, so ``free`` finds the entry directly.
        self.prefix: Optional[str] = None

    def extend(self) -> int:
        """Allocate the slot for the next token position (COW if shared)."""
        cache = self.cache
        position = self.length
        if position == self.keys.shape[1]:
            raise RuntimeError(
                f"sequence {self.seq_id!r} is full: its extents, sized at "
                f"create(), hold {position} tokens"
            )
        block_index = position // cache.block_size
        if block_index == len(self.block_ids):
            self.block_ids.append(cache._alloc_block())
        else:
            block_id = self.block_ids[block_index]
            if cache._refcount[block_id] > 1:
                # Shared partial block (prefix sharing): the rows are already
                # private, so copy-on-write only swaps in a private block id.
                self.block_ids[block_index] = cache._alloc_block()
                cache._release_block(block_id)
                cache.cow_copies += 1
        self.length += 1
        return position

    def truncate(self, length: int) -> None:
        """Forget the positions past ``length`` (undo a step that raised).

        Only the counters move.  Blocks and rows stay: a tail block the
        undone ``extend()`` allocated or copied-on-write is private to this
        sequence, so the next ``extend()`` lands in it with no second
        allocation, and the retried appends overwrite the stale rows.
        """
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot truncate a {self.length}-token sequence to {length}")
        self.length = length
        self.written = [min(w, length) for w in self.written]

    def view(self, layer: int) -> _PagedLayerView:
        return _PagedLayerView(self, layer)

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        position = self.written[layer]
        if position >= self.length:
            raise RuntimeError(
                f"sequence {self.seq_id!r} layer {layer}: append without a prior extend()"
            )
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        expected = self.keys.shape[2:]
        if k.shape != expected or v.shape != expected:
            raise ValueError(f"k/v must have shape {expected}, got {k.shape}/{v.shape}")
        self.keys[layer, position] = k
        self.values[layer, position] = v
        self.written[layer] = position + 1
        return self.gathered(layer)

    def gathered(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """All cached K/V of ``layer``: contiguous ``(t, heads, head_dim)`` views."""
        tokens = self.written[layer]
        if tokens == 0:
            raise RuntimeError(f"sequence {self.seq_id!r} layer {layer} has no cached tokens")
        return self.keys[layer, :tokens], self.values[layer, :tokens]


class PagedKVCache:
    """Block-table KV accounting shared by every sequence of a decoder engine.

    ``capacity_blocks`` blocks of ``block_size`` token slots (all layers)
    bound what sequences and registered prefixes hold; the rows live in the
    sequences' extents.  Blocks are reference-counted: a block reaches the
    free list only when no sequence *and* no registered prefix holds it.
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
        self._spare: List[Tuple[np.ndarray, np.ndarray]] = []
        self._free: List[int] = list(range(capacity_blocks - 1, -1, -1))
        self._refcount = [0] * capacity_blocks
        self._sequences: Dict[str, _PagedSequence] = {}
        self._prefixes: "OrderedDict[str, _PrefixEntry]" = OrderedDict()
        #: Fingerprints registered so far (bounded): a second registration
        #: marks a prompt that recurs, so its entry is kept.
        self._registered = BoundedCache()
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
            if entry.owner is not None:
                entry.owner.prefix = None
            self._drop_prefix(entry)
            self.evictions += 1

    def _drop_prefix(self, entry: _PrefixEntry) -> None:
        """Release the block references of an entry already out of the registry."""
        for block_id in entry.block_ids:
            self._release_block(block_id)

    def _take_extents(self, tokens: int) -> Tuple[np.ndarray, np.ndarray]:
        """K/V extents of at least ``tokens`` rows: the smallest spare pair
        that fits, else a fresh pair of whole blocks."""
        fits = sorted((k.shape[1], i) for i, (k, _) in enumerate(self._spare) if k.shape[1] >= tokens)
        if fits:
            return self._spare.pop(fits[0][1])
        rows = max(-(-tokens // self.block_size), 1) * self.block_size
        shape = (self.num_layers, rows, self.num_heads, self.head_dim)
        return _mapped(shape), _mapped(shape)

    def _recycle(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Keep a released extent pair for reuse: the newest, at most one pair
        per live sequence (an idle cache keeps none)."""
        self._spare.append((keys, values))
        del self._spare[: max(len(self._spare) - len(self._sequences), 0)]

    # -- sequences ----------------------------------------------------------

    def create(self, seq_id: str, tokens: int) -> _PagedSequence:
        """Open a sequence whose extents hold ``tokens`` positions, sized
        once: an ``extend`` past them raises."""
        if seq_id in self._sequences:
            raise ValueError(f"sequence {seq_id!r} already exists")
        keys, values = self._take_extents(tokens)
        sequence = _PagedSequence(self, seq_id, keys, values)
        self._sequences[seq_id] = sequence
        return sequence

    def sequence(self, seq_id: str) -> _PagedSequence:
        return self._sequences[seq_id]

    def free(self, seq_id: str) -> int:
        """Release a sequence's blocks and extents; returns blocks dereferenced.

        The prefix it registered, if any, is settled first: kept with a copy
        of the prompt's rows, or dropped (see :meth:`register_prefix`)."""
        sequence = self._sequences.pop(seq_id)
        if sequence.prefix is not None:
            entry = self._prefixes[sequence.prefix]
            sequence.prefix = None
            if entry.keep:  # copied now: the extent is recycled below
                entry.keys, entry.values = (_mapped_copy(rows) for rows in entry.rows())
                entry.owner = None
            else:
                del self._prefixes[entry.fingerprint]
                self._drop_prefix(entry)
        for block_id in sequence.block_ids:
            self._release_block(block_id)
        count = len(sequence.block_ids)
        sequence.block_ids = []
        self._recycle(sequence.keys, sequence.values)
        sequence.keys = sequence.values = None  # a stale handle must not write into a reused extent
        return count

    # -- prefix sharing -----------------------------------------------------

    def register_prefix(self, fingerprint: str, seq_id: str, last_output: np.ndarray) -> None:
        """Pin ``seq_id``'s current blocks as a shareable prompt prefix.

        No rows are copied: sharers read them from ``seq_id``'s extent
        while it lives.  At its :meth:`free` the entry is kept (its rows
        copied once) if a sequence attached to it or ``fingerprint`` was
        registered before, and dropped otherwise, so a prompt seen once
        holds nothing past its request.
        """
        if fingerprint in self._prefixes:
            self._prefixes.move_to_end(fingerprint)
            return
        sequence = self._sequences[seq_id]
        if sequence.length == 0 or any(w != sequence.length for w in sequence.written):
            raise RuntimeError(
                f"sequence {seq_id!r} is mid-step; register prefixes between steps"
            )
        if sequence.prefix is not None:
            raise RuntimeError(f"sequence {seq_id!r} already owns prefix {sequence.prefix!r}")
        for block_id in sequence.block_ids:
            self._refcount[block_id] += 1
        recurs = self._registered.get(fingerprint) is not None
        self._registered.put(fingerprint, True)
        self._prefixes[fingerprint] = _PrefixEntry(
            fingerprint=fingerprint,
            block_ids=list(sequence.block_ids),
            length=sequence.length,
            last_output=np.array(last_output, dtype=np.float32, copy=True),
            owner=sequence,
            keep=recurs,
        )
        sequence.prefix = fingerprint

    def attach_prefix(self, fingerprint: str, seq_id: str) -> Optional[_PrefixEntry]:
        """Attach a fresh sequence to a registered prefix, sharing its blocks.

        The prompt's rows are copied in once, from the owner's extent while
        it lives, else from the entry's copy, and the entry is then kept
        past its owner.  Returns the entry (length + cached final-position
        output) on a hit, ``None`` on a miss.  The sequence must be empty
        (sharing replaces prefill, it cannot splice into a decoded sequence)
        and sized for at least the prompt.
        """
        entry = self._prefixes.get(fingerprint)
        if entry is None:
            return None
        sequence = self._sequences[seq_id]
        if sequence.length != 0:
            raise RuntimeError(f"sequence {seq_id!r} is not empty; cannot attach a prefix")
        keys, values = entry.rows()
        sequence.keys[:, : entry.length] = keys
        sequence.values[:, : entry.length] = values
        entry.keep = True
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
