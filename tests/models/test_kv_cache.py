"""Paged KV cache: block-table accounting and reference-store equivalence.

The cache is numerics-free bookkeeping — the bits come out of the model's
``forward_step``, whichever store holds them.  These tests pin (a) that the
paged store gathers bit-identical K/V to the reference :class:`SequenceKV`
(so decoding through either is interchangeable), and (b) the explicit
alloc/free/refcount/copy-on-write/eviction mechanics the serving engine's
``cache_stats()`` reports.
"""

import numpy as np
import pytest

from repro.models import (
    LayerKV,
    PagedKVCache,
    SequenceKV,
    TransformerEncoder,
    prompt_fingerprint,
    tiny_config,
)

HEADS, HEAD_DIM = 2, 4


def kv_pair(rng):
    return (
        rng.normal(size=(HEADS, HEAD_DIM)).astype(np.float32),
        rng.normal(size=(HEADS, HEAD_DIM)).astype(np.float32),
    )


def paged(block_size=2, capacity_blocks=8, num_layers=1):
    return PagedKVCache(
        num_layers=num_layers,
        num_heads=HEADS,
        head_dim=HEAD_DIM,
        block_size=block_size,
        capacity_blocks=capacity_blocks,
    )


class TestGatherEquivalence:
    def test_paged_gather_matches_reference(self, rng):
        """Append the same tokens to both stores: every gather is bit-equal
        and comes back as a fresh contiguous (tokens, heads, head_dim)."""
        reference = LayerKV()
        cache = paged(block_size=3)
        seq = cache.create("seq")
        for t in range(8):
            k, v = kv_pair(rng)
            ref_k, ref_v = reference.append(k, v)
            seq.extend()
            got_k, got_v = seq.view(0).append(k, v)
            assert np.array_equal(got_k, ref_k) and np.array_equal(got_v, ref_v)
            for arr in (got_k, got_v):
                assert arr.flags["C_CONTIGUOUS"]
                assert arr.dtype == np.float32
                assert arr.shape == (t + 1, HEADS, HEAD_DIM)

    def test_forward_step_is_store_agnostic(self, rng):
        """The model-level statement: decoding against the reference cache
        and against a paged sequence produces identical bits."""
        cfg = tiny_config(hidden_size=32, num_layers=2, num_heads=4)
        encoder = TransformerEncoder.init(cfg, seed=3)
        tokens = rng.normal(size=(6, 32)).astype(np.float32)
        ref_cache = encoder.new_sequence_kv()
        paged_cache = PagedKVCache(
            num_layers=2, num_heads=4, head_dim=8, block_size=4, capacity_blocks=8
        )
        seq = paged_cache.create("s")
        for t in range(tokens.shape[0]):
            ref_out = encoder.forward_step(tokens[t], ref_cache)
            paged_out = encoder.forward_step(tokens[t], seq)
            assert np.array_equal(ref_out, paged_out)

    def test_reference_store_validates_shapes(self):
        layer = LayerKV()
        with pytest.raises(ValueError, match="matching"):
            layer.append(np.zeros((2, 4), np.float32), np.zeros((2, 5), np.float32))
        seq = SequenceKV(2)
        assert seq.extend() == 0 and seq.length == 1


class TestBlockTable:
    def test_alloc_free_roundtrip(self, rng):
        cache = paged(block_size=2, capacity_blocks=4)
        seq = cache.create("a")
        for _ in range(5):  # 5 tokens at block_size 2 -> 3 blocks
            seq.extend()
            seq.view(0).append(*kv_pair(rng))
        assert cache.blocks_in_use == 3
        assert cache.peak_blocks_in_use == 3
        assert cache.free("a") == 3
        assert cache.blocks_in_use == 0
        assert cache.cache_stats()["sequences"] == 0

    def test_append_requires_extend(self, rng):
        seq = paged().create("a")
        with pytest.raises(RuntimeError, match="extend"):
            seq.view(0).append(*kv_pair(rng))

    def test_exhaustion_raises(self, rng):
        cache = paged(block_size=1, capacity_blocks=2)
        seq = cache.create("a")
        seq.extend(), seq.extend()
        with pytest.raises(RuntimeError, match="exhausted"):
            seq.extend()

    def test_duplicate_sequence_rejected(self):
        cache = paged()
        cache.create("a")
        with pytest.raises(ValueError, match="already exists"):
            cache.create("a")


class TestTruncate:
    """``truncate`` undoes a step that raised: counters only, blocks kept."""

    def test_fresh_tail_block_is_reused_without_a_second_allocation(self, rng):
        cache = paged(block_size=2, capacity_blocks=4, num_layers=2)
        seq = cache.create("a")
        rows = [kv_pair(rng) for _ in range(3)]
        for k, v in rows[:2]:  # exactly one full block
            seq.extend()
            seq.view(0).append(k, v)
            seq.view(1).append(k, v)
        seq.extend()  # crosses the boundary: allocates the tail block
        seq.view(0).append(*kv_pair(rng))  # the failed step got through layer 0 only
        held = list(seq.block_ids)
        assert cache.blocks_in_use == 2

        seq.truncate(2)
        assert (seq.length, seq.written) == (2, [2, 2])
        assert seq.block_ids == held and cache.blocks_in_use == 2  # blocks stay held

        seq.extend()  # the retry lands in the kept block
        assert seq.block_ids == held and cache.blocks_in_use == 2
        k, v = rows[2]
        got_k, got_v = seq.view(0).append(k, v)  # and overwrites the stale slot
        assert np.array_equal(got_k, np.stack([r[0] for r in rows]))
        assert np.array_equal(got_v, np.stack([r[1] for r in rows]))
        assert cache.free("a") == 2 and cache.blocks_in_use == 0

    def test_copied_on_write_tail_block_is_not_copied_again(self, rng):
        cache = paged(block_size=2, capacity_blocks=8)
        owner = cache.create("owner")
        for _ in range(3):  # two blocks, the second half full
            owner.extend()
            owner.view(0).append(*kv_pair(rng))
        cache.register_prefix("fp", "owner", last_output=np.zeros((1, 4), np.float32))
        sharer = cache.create("sharer")
        cache.attach_prefix("fp", "sharer")
        shared_k, _ = sharer.gathered(0)

        sharer.extend()  # shared partial block: copy-on-write
        assert cache.cow_copies == 1
        private = list(sharer.block_ids)
        in_use = cache.blocks_in_use
        sharer.truncate(3)
        sharer.extend()  # the copy is already private: no second copy
        assert cache.cow_copies == 1
        assert sharer.block_ids == private and cache.blocks_in_use == in_use
        new_k, _ = sharer.view(0).append(*kv_pair(rng))
        assert np.array_equal(new_k[:3], shared_k)  # the copied prefix survived

    def test_bounds(self, rng):
        seq = paged().create("a")
        seq.extend()
        with pytest.raises(ValueError, match="truncate"):
            seq.truncate(2)
        with pytest.raises(ValueError, match="truncate"):
            seq.truncate(-1)
        seq.truncate(1)  # a no-op is fine
        assert seq.length == 1


class TestPrefixSharingMechanics:
    def _prefill(self, cache, seq, rng, tokens):
        for _ in range(tokens):
            seq.extend()
            seq.view(0).append(*kv_pair(rng))

    def test_attach_shares_blocks_and_cow_isolates(self, rng):
        cache = paged(block_size=2, capacity_blocks=8)
        owner = cache.create("owner")
        self._prefill(cache, owner, rng, 3)  # 2 blocks, second half-full
        fp = prompt_fingerprint(np.arange(6, dtype=np.float32).reshape(3, 2))
        cache.register_prefix(fp, "owner", last_output=np.zeros((1, 4), np.float32))
        in_use_before = cache.blocks_in_use

        sharer = cache.create("sharer")
        entry = cache.attach_prefix(fp, "sharer")
        assert entry is not None and entry.length == 3
        assert cache.blocks_in_use == in_use_before  # attached, not copied
        assert cache.cache_stats()["prefix_hits"] == 1

        owner_k_before, _ = cache.sequence("owner").gathered(0)
        sharer.extend()  # lands in the shared partial block -> COW
        sharer.view(0).append(*kv_pair(rng))
        assert cache.cow_copies == 1
        owner_k_after, _ = cache.sequence("owner").gathered(0)
        assert np.array_equal(owner_k_before, owner_k_after)
        # The sharer's first 3 tokens are still the owner's, bit for bit.
        sharer_k, _ = cache.sequence("sharer").gathered(0)
        assert np.array_equal(sharer_k[:3], owner_k_before)

    def test_attach_miss_and_nonempty_rejection(self, rng):
        cache = paged()
        seq = cache.create("busy")
        assert cache.attach_prefix("nope", "busy") is None
        self._prefill(cache, seq, rng, 1)
        cache.register_prefix("fp", "busy", last_output=np.zeros((1, 4), np.float32))
        with pytest.raises(RuntimeError, match="not empty"):
            cache.attach_prefix("fp", "busy")

    def test_register_mid_step_rejected(self, rng):
        cache = paged(num_layers=2)
        seq = cache.create("mid")
        seq.extend()
        seq.view(0).append(*kv_pair(rng))  # layer 1 not yet written
        with pytest.raises(RuntimeError, match="mid-step"):
            cache.register_prefix("fp", "mid", last_output=np.zeros((1, 4), np.float32))

    def test_lru_eviction_frees_prefix_blocks(self, rng):
        cache = paged(block_size=1, capacity_blocks=4)
        for i, name in enumerate(["old", "new"]):
            seq = cache.create(name)
            self._prefill(cache, seq, rng, 1)
            cache.register_prefix(f"fp-{i}", name, np.zeros((1, 4), np.float32))
            cache.free(name)
        assert cache.blocks_in_use == 2  # registry holds both prompts
        grabby = cache.create("grabby")
        self._prefill(cache, grabby, rng, 3)  # forces eviction of "old" first
        stats = cache.cache_stats()
        assert stats["evictions"] == 1
        assert cache.attach_prefix("fp-0", cache.create("probe-a").seq_id) is None
        assert cache.attach_prefix("fp-1", "probe-a") is not None

    def test_fingerprint_is_content_and_shape_keyed(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert prompt_fingerprint(a) == prompt_fingerprint(a.copy())
        assert prompt_fingerprint(a) != prompt_fingerprint(a.reshape(4, 3))
        assert prompt_fingerprint(a) != prompt_fingerprint(a + 1)
