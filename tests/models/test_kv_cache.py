"""Paged KV cache: block-table accounting and reference-store equivalence.

The cache is numerics-free bookkeeping — the bits come out of the model's
``forward_step``, whichever store holds them.  These tests pin (a) that the
paged store gathers bit-identical K/V to the reference :class:`SequenceKV`
(so decoding through either is interchangeable), (b) that attention over
the in-place views the paged store returns is bit-for-bit attention over a
contiguous copy, (c) the explicit alloc/free/refcount/copy-on-write/eviction
mechanics the serving engine's ``cache_stats()`` reports, and (d) the
lifetime of the sequence-owned extents: sized once, recycled within a bound,
never handed out while a sequence or a registered prefix still reads them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    LayerKV,
    PagedKVCache,
    SequenceKV,
    TransformerEncoder,
    prompt_fingerprint,
    tiny_config,
)
from repro.models.functional import attend, attention_context, attention_scores, softmax

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
        seq = cache.create("seq", tokens=8)
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
        seq = paged_cache.create("s", tokens=tokens.shape[0])
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


def assert_view_attention_is_copy_attention(seq, layer, q):
    """Decode attention over the store's in-place K/V views is bit-for-bit
    attention over contiguous copies of them (the layout the store used to
    gather every step), through the helper and the scores / softmax /
    context composition alike."""
    k_view, v_view = seq.gathered(layer)
    k_copy, v_copy = np.ascontiguousarray(k_view), np.ascontiguousarray(v_view)
    assert np.shares_memory(k_view, seq.keys) and np.shares_memory(v_view, seq.values)
    for view, copy in ((k_view, k_copy), (v_view, v_copy)):
        assert view.flags["C_CONTIGUOUS"] and view.strides == copy.strides
    got, got_probs = attend(q, k_view.transpose(1, 0, 2), v_view.transpose(1, 0, 2))
    want, want_probs = attend(q, k_copy.transpose(1, 0, 2), v_copy.transpose(1, 0, 2))
    assert got.tobytes() == want.tobytes() and got_probs.tobytes() == want_probs.tobytes()
    probs = softmax(attention_scores(q[None], k_copy.transpose(1, 0, 2)[None]), axis=-1)
    composed = attention_context(probs, v_copy.transpose(1, 0, 2)[None])[0]
    assert got.tobytes() == composed.tobytes() and got_probs.tobytes() == probs[0].tobytes()


def decode_into_extent(heads, head_dim, seed, tokens, check_at):
    """Append ``tokens`` positions to a two-layer sequence sized for more, and
    check view-vs-copy attention on the second layer (an interior slice of
    the extent) at every length in ``check_at``."""
    rng = np.random.default_rng([heads, head_dim, seed])
    spare = int(rng.integers(0, 40))
    cache = PagedKVCache(
        num_layers=2, num_heads=heads, head_dim=head_dim, block_size=16,
        capacity_blocks=(tokens + spare) // 16 + 1,
    )
    seq = cache.create("s", tokens=tokens + spare)
    for t in range(1, tokens + 1):
        seq.extend()
        for layer in range(2):
            seq.view(layer).append(*rng.normal(size=(2, heads, head_dim)).astype(np.float32))
        if t in check_at:
            q = rng.normal(size=(heads, 1, head_dim)).astype(np.float32)
            assert_view_attention_is_copy_attention(seq, 1, q)


class TestViewAttentionBits:
    """Attention reads K/V in place; its bits must not depend on that."""

    @settings(max_examples=150, deadline=None)
    @given(
        t=st.integers(1, 250),
        heads=st.sampled_from([1, 2, 4, 8]),
        head_dim=st.sampled_from([8, 32, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_view_equals_copy(self, t, heads, head_dim, seed):
        decode_into_extent(heads, head_dim, seed, t, check_at={t})

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("head_dim", [8, 32, 64])
    @pytest.mark.parametrize("heads", [1, 2, 4, 8])
    def test_full_grid(self, heads, head_dim, seed):
        """Every t in 1..250 for every heads x head_dim x seed."""
        decode_into_extent(heads, head_dim, seed, 250, check_at=range(1, 251))


class TestBlockTable:
    def test_alloc_free_roundtrip(self, rng):
        cache = paged(block_size=2, capacity_blocks=4)
        seq = cache.create("a", tokens=5)
        for _ in range(5):  # 5 tokens at block_size 2 -> 3 blocks
            seq.extend()
            seq.view(0).append(*kv_pair(rng))
        assert cache.blocks_in_use == 3
        assert cache.peak_blocks_in_use == 3
        assert cache.free("a") == 3
        assert cache.blocks_in_use == 0
        assert cache.cache_stats()["sequences"] == 0

    def test_append_requires_extend(self, rng):
        seq = paged().create("a", tokens=1)
        with pytest.raises(RuntimeError, match="extend"):
            seq.view(0).append(*kv_pair(rng))

    def test_exhaustion_raises(self, rng):
        cache = paged(block_size=1, capacity_blocks=2)
        seq = cache.create("a", tokens=3)
        seq.extend(), seq.extend()
        with pytest.raises(RuntimeError, match="exhausted"):
            seq.extend()

    def test_duplicate_sequence_rejected(self):
        cache = paged()
        cache.create("a", tokens=1)
        with pytest.raises(ValueError, match="already exists"):
            cache.create("a", tokens=1)


class TestTruncate:
    """``truncate`` undoes a step that raised: counters only, blocks kept."""

    def test_fresh_tail_block_is_reused_without_a_second_allocation(self, rng):
        cache = paged(block_size=2, capacity_blocks=4, num_layers=2)
        seq = cache.create("a", tokens=3)
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
        owner = cache.create("owner", tokens=3)
        for _ in range(3):  # two blocks, the second half full
            owner.extend()
            owner.view(0).append(*kv_pair(rng))
        cache.register_prefix("fp", "owner", last_output=np.zeros((1, 4), np.float32))
        sharer = cache.create("sharer", tokens=4)
        cache.attach_prefix("fp", "sharer")
        shared_k = sharer.gathered(0)[0].copy()  # a snapshot: gathered() is a view

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

    def test_rollback_keeps_blocks_and_rows(self, rng):
        """The undone step's rows are forgotten by the counters only: the
        extents, every row below the rollback point and the blocks stay."""
        cache = paged(block_size=2, capacity_blocks=4, num_layers=2)
        seq = cache.create("a", tokens=4)
        for _ in range(3):
            seq.extend()
            for layer in (0, 1):
                seq.view(layer).append(*kv_pair(rng))
        keys, values, held = seq.keys, seq.values, list(seq.block_ids)
        kept = keys[:, :3].copy(), values[:, :3].copy()
        seq.extend()  # a step that raised after layer 0
        seq.view(0).append(*kv_pair(rng))
        seq.truncate(3)
        assert seq.keys is keys and seq.values is values and seq.block_ids == held
        assert np.array_equal(keys[:, :3], kept[0]) and np.array_equal(values[:, :3], kept[1])
        k, v = seq.gathered(0)
        assert k.shape[0] == 3 and np.shares_memory(k, keys) and np.shares_memory(v, values)

    def test_bounds(self, rng):
        seq = paged().create("a", tokens=1)
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

    def _register_recurring(self, cache, rng, name, fingerprint):
        """Two short-lived owners register ``fingerprint`` in turn: the
        prompt recurs, so the second entry outlives its owner."""
        for _ in range(2):
            self._prefill(cache, cache.create(name, tokens=1), rng, 1)
            cache.register_prefix(fingerprint, name, np.zeros((1, 4), np.float32))
            cache.free(name)
        assert fingerprint in cache._prefixes

    def test_attach_shares_blocks_and_cow_isolates(self, rng):
        cache = paged(block_size=2, capacity_blocks=8)
        owner = cache.create("owner", tokens=3)
        self._prefill(cache, owner, rng, 3)  # 2 blocks, second half-full
        fp = prompt_fingerprint(np.arange(6, dtype=np.float32).reshape(3, 2))
        cache.register_prefix(fp, "owner", last_output=np.zeros((1, 4), np.float32))
        in_use_before = cache.blocks_in_use

        sharer = cache.create("sharer", tokens=4)
        entry = cache.attach_prefix(fp, "sharer")
        assert entry is not None and entry.length == 3
        assert cache.blocks_in_use == in_use_before  # attached, not copied
        assert cache.cache_stats()["prefix_hits"] == 1

        owner_k_before = cache.sequence("owner").gathered(0)[0].copy()
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
        seq = cache.create("busy", tokens=1)
        assert cache.attach_prefix("nope", "busy") is None
        self._prefill(cache, seq, rng, 1)
        cache.register_prefix("fp", "busy", last_output=np.zeros((1, 4), np.float32))
        with pytest.raises(RuntimeError, match="not empty"):
            cache.attach_prefix("fp", "busy")

    def test_a_sequence_owns_one_prefix(self, rng):
        cache = paged()
        self._prefill(cache, cache.create("owner", tokens=1), rng, 1)
        cache.register_prefix("fp", "owner", np.zeros((1, 4), np.float32))
        cache.register_prefix("fp", "owner", np.zeros((1, 4), np.float32))  # known: a no-op
        with pytest.raises(RuntimeError, match="already owns prefix 'fp'"):
            cache.register_prefix("fp-2", "owner", np.zeros((1, 4), np.float32))
        assert list(cache._prefixes) == ["fp"]

    def test_register_mid_step_rejected(self, rng):
        cache = paged(num_layers=2)
        seq = cache.create("mid", tokens=1)
        seq.extend()
        seq.view(0).append(*kv_pair(rng))  # layer 1 not yet written
        with pytest.raises(RuntimeError, match="mid-step"):
            cache.register_prefix("fp", "mid", last_output=np.zeros((1, 4), np.float32))

    def test_lru_eviction_frees_prefix_blocks(self, rng):
        cache = paged(block_size=1, capacity_blocks=4)
        for i, name in enumerate(["old", "new"]):
            self._register_recurring(cache, rng, name, f"fp-{i}")
        assert cache.blocks_in_use == 2  # registry holds both prompts
        grabby = cache.create("grabby", tokens=3)
        self._prefill(cache, grabby, rng, 3)  # forces eviction of "old" first
        stats = cache.cache_stats()
        assert stats["evictions"] == 1
        assert cache.attach_prefix("fp-0", cache.create("probe-a", tokens=1).seq_id) is None
        assert cache.attach_prefix("fp-1", "probe-a") is not None

    def test_copy_on_write_that_evicts_its_own_prefix_frees_the_block(self, rng):
        """The pool is dry when a sharer copies-on-write its shared partial
        block; finding a fresh block evicts the very prefix it shared, so the
        old block is down to the sharer's reference.  Dropping that reference
        must return the block to the free list, not leave it held by nobody."""
        cache = paged(block_size=2, capacity_blocks=3)
        for name in ("a", "b"):  # one partial block each, kept, owner gone
            self._register_recurring(cache, rng, name, f"fp-{name}")
        sharer = cache.create("sharer", tokens=2)
        cache.attach_prefix("fp-a", "sharer")
        cache.register_prefix("fp-b", "b", np.zeros((1, 4), np.float32))  # fp-a is now LRU
        self._prefill(cache, cache.create("filler", tokens=1), rng, 1)  # the last free block
        sharer.extend()  # COW: evicts fp-a (frees nothing), then fp-b
        assert (cache.cow_copies, cache.evictions) == (1, 2)
        held = {b for s in cache._sequences.values() for b in s.block_ids}
        assert cache.blocks_free + len(held) == cache.capacity_blocks
        assert cache._refcount == [int(b in held) for b in range(cache.capacity_blocks)]

    def test_fingerprint_is_content_and_shape_keyed(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert prompt_fingerprint(a) == prompt_fingerprint(a.copy())
        assert prompt_fingerprint(a) != prompt_fingerprint(a.reshape(4, 3))
        assert prompt_fingerprint(a) != prompt_fingerprint(a + 1)


class TestExtentLifetime:
    """Each sequence owns its K/V extents: sized once when the caller knows
    the length, recycled within a bound, never handed out while read."""

    def test_sized_sequence_never_regrows(self, rng):
        cache = paged(block_size=4, capacity_blocks=8, num_layers=2)
        seq = cache.create("a", tokens=10)
        keys, values = seq.keys, seq.values
        assert keys.shape == values.shape == (2, 12, HEADS, HEAD_DIM)  # whole blocks
        for _ in range(10):
            seq.extend()
            for layer in (0, 1):
                seq.view(layer).append(*kv_pair(rng))
        assert seq.keys is keys and seq.values is values

    def test_extend_past_the_sized_extent_raises(self, rng):
        """There is no growth path: a full sequence refuses the next
        position before allocating a block for it, rows and blocks intact."""
        cache = paged(block_size=2, capacity_blocks=8)
        seq, reference = cache.create("a", tokens=3), LayerKV()  # whole blocks: 4 rows
        for _ in range(4):
            k, v = kv_pair(rng)
            seq.extend()
            seq.view(0).append(k, v)
            want_k, _ = reference.append(k, v)
        held = list(seq.block_ids)
        with pytest.raises(RuntimeError, match="full"):
            seq.extend()
        assert seq.length == 4 and seq.block_ids == held and cache.blocks_in_use == 2
        assert np.array_equal(seq.gathered(0)[0], want_k)

    def test_free_list_is_bounded_by_live_sequences_and_reused(self, rng):
        cache = paged(block_size=2, capacity_blocks=16)
        seqs = [cache.create(f"s{i}", tokens=2 * (i + 1)) for i in range(4)]
        extents = {s.seq_id: s.keys for s in seqs}
        for seq in seqs[:3]:
            cache.free(seq.seq_id)
            assert len(cache._spare) <= len(cache._sequences)
        assert len(cache._spare) == 1  # one live sequence left: one spare pair
        kept = cache._spare[0][0]
        again = cache.create("again", tokens=3)
        assert again.keys is kept and kept.shape[1] >= 3  # reused, not reallocated
        cache.free("again"), cache.free("s3")
        assert cache._spare == []  # an idle cache keeps nothing
        assert kept is not extents["s3"]

    def test_registered_rows_are_a_private_copy_of_the_prompt(self, rng):
        """A kept prefix holds exactly its prompt's rows, not the owner's
        extent: the owner decodes on, frees and has its extent reused by
        another sequence, and a later sharer still attaches the prompt's
        bits."""
        cache = paged(block_size=2, capacity_blocks=16)
        owner = cache.create("owner", tokens=9)  # the prompt's 3 rows, then 6 decoded
        for _ in range(3):
            owner.extend()
            owner.view(0).append(*kv_pair(rng))
        prompt_rows = owner.gathered(0)[0].copy()
        owner_keys = owner.keys
        cache.register_prefix("fp", "owner", np.zeros((1, 4), np.float32))
        entry = cache._prefixes["fp"]
        early = cache.create("early", tokens=3)
        cache.attach_prefix("fp", "early")  # shared while the owner lives: kept
        assert np.array_equal(early.gathered(0)[0], prompt_rows)
        for _ in range(6):  # the owner decodes on past the registered rows
            owner.extend()
            owner.view(0).append(*kv_pair(rng))
        bystander = cache.create("bystander", tokens=4)
        cache.free("bystander")
        cache.free("owner")  # the newest spare: the next create reuses it
        assert entry.keys.shape == entry.values.shape == (1, 3, HEADS, HEAD_DIM)
        assert not np.shares_memory(entry.keys, owner_keys)
        other = cache.create("other", tokens=4)
        assert other.keys is owner_keys  # the owner's extent, reused
        for _ in range(4):
            other.extend()
            other.view(0).append(*kv_pair(rng))
        assert np.array_equal(entry.keys[0], prompt_rows)
        sharer = cache.create("sharer", tokens=3)
        cache.attach_prefix("fp", "sharer")
        assert np.array_equal(sharer.gathered(0)[0], prompt_rows)
        assert not np.shares_memory(sharer.keys, entry.keys)  # copied once, then private
