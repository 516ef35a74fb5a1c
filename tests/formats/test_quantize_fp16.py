"""fp16 operand rounding: one bit-exact definition for every kernel.

:func:`quantize_fp16_checked` rounds float32 inputs past a size crossover
with a magic-number add instead of NumPy's cast.  These cells pin that the
two agree bit for bit (compared as uint32, so -0 and NaN payloads count),
that the memory layout and the finite flag come out right on either path,
and that no other module of the package rounds on its own.
"""

import pathlib

import numpy as np
import pytest

import repro
from repro.formats import base
from repro.formats.base import fp16_finite, quantize_fp16, quantize_fp16_checked

CROSSOVER = base._KERNEL_MIN_SIZE
CHUNK = base._CHUNK
SIGN = 0x80000000
#: Bits of 65520.0, the smallest float32 magnitude that rounds to an fp16 inf.
OVERFLOW_BITS = 0x477FF000


def cast(x):
    """The reference: NumPy's own float32 -> float16 -> float32 round trip."""
    with np.errstate(over="ignore"):
        return np.asarray(x).astype(np.float16).astype(np.float32)


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint32).view(np.float32)


def assert_bits_equal(got, want):
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def check_kernel(bits):
    """Both signs of the in-range patterns ``bits``, tiled past the
    crossover: the flag proves the kernel ran, the bits match the cast."""
    bits = np.asarray(bits, dtype=np.uint32)
    assert (bits < OVERFLOW_BITS).all()
    both = np.concatenate([bits, bits | np.uint32(SIGN)])
    x = from_bits(np.resize(both, max(both.size, 2 * CROSSOVER)))
    y, finite = quantize_fp16_checked(x)
    assert finite
    assert_bits_equal(y, cast(x))


def check_fallback(bits):
    """Out-of-range patterns: flagged, and the cast's bits (NaN payloads too)."""
    x = from_bits(np.resize(np.asarray(bits, dtype=np.uint32), 2 * CROSSOVER))
    y, finite = quantize_fp16_checked(x)
    assert not finite
    assert_bits_equal(y, cast(x))


def tie_mantissas():
    """Mantissas at, one below and one above a rounding tie at every bit
    position, with an even and an odd kept bit above the tie."""
    values = {0, 0x7FFFFF}
    for p in range(23):
        for tie in (1 << p, 3 << p):
            values.update({tie - 1, tie, tie + 1})
    return np.array(sorted(v & 0x7FFFFF for v in values), dtype=np.uint32)


class TestBitExactCells:
    def test_every_exponent_with_mantissa_ties(self):
        exponents = np.arange(256, dtype=np.uint32) << np.uint32(23)
        bits = (exponents[:, None] | tie_mantissas()[None, :]).ravel()
        check_kernel(bits[bits < OVERFLOW_BITS])
        high = bits[bits >= OVERFLOW_BITS]
        check_fallback(np.concatenate([high, high | np.uint32(SIGN)]))

    def test_signed_zero_and_float32_subnormals(self):
        subnormals = [0, 1, 2, 3, 0x1000, 0x400000, 0x400001, 0x7FFFFE, 0x7FFFFF]
        check_kernel(subnormals)
        x = np.full(CROSSOVER, -0.0, dtype=np.float32)
        x[1::2] = -np.float32(2.0**-26)  # rounds to zero, keeps its sign
        assert (quantize_fp16(x).view(np.uint32) == SIGN).all()

    def test_fp16_subnormal_ties(self):
        """(k + 1/2) * 2**-24 sits halfway between two fp16 subnormals."""
        k = np.arange(1024, dtype=np.float32)
        halves = (k + np.float32(0.5)) * np.float32(2.0**-24)
        bits = halves.view(np.uint32)
        check_kernel(np.concatenate([bits, bits - 1, bits + 1]))
        assert quantize_fp16(np.resize(halves, CROSSOVER))[0] == 0.0  # 2**-25 ties to even

    def test_smallest_normal_boundary(self):
        edge = np.float32(2.0**-14).view(np.uint32)
        tie = np.float32(2.0**-14 - 2.0**-25).view(np.uint32)  # largest subnormal | 2**-14
        check_kernel(np.arange(edge - 8, edge + 8, dtype=np.uint32))
        check_kernel(np.arange(tie - 8, tie + 8, dtype=np.uint32))

    def test_top_of_range(self):
        top = np.array([65504.0, 65505.0, 65519.0], dtype=np.float32).view(np.uint32)
        check_kernel(np.concatenate([top, [OVERFLOW_BITS - 1]]))  # 65519.996 -> 65504
        assert quantize_fp16(np.full(CROSSOVER, 65519.996, dtype=np.float32))[0] == 65504.0
        payloads = [0x7F800001, 0x7FC00000, 0x7FC00001, 0x7FFFFFFF, 0x7FA00000]
        check_fallback([OVERFLOW_BITS, 0x7F800000] + payloads + [p | SIGN for p in payloads])

    def test_one_out_of_range_value_sends_everything_to_the_cast(self, rng):
        x = rng.normal(size=4 * CROSSOVER).astype(np.float32)
        x[7] = 65520.0
        y, finite = quantize_fp16_checked(x)
        assert not finite and np.isinf(y[7])
        assert_bits_equal(y, cast(x))

    @pytest.mark.parametrize("size", [CROSSOVER - 1, CROSSOVER])
    def test_both_sides_of_the_crossover(self, rng, size):
        x = (rng.normal(size=size) * 1000.0).astype(np.float32)
        y, finite = quantize_fp16_checked(x)
        assert finite
        assert_bits_equal(y, cast(x))

    def test_wider_inputs_round_once_not_through_float32(self):
        """float64 rounds straight to fp16 (the cast): rounding through
        float32 first would tie 1 + 2**-11 + 2**-40 down to 1."""
        x = np.full(CROSSOVER, 1.0 + 2.0**-11 + 2.0**-40)
        assert (quantize_fp16(x) == np.float32(1.0 + 2.0**-10)).all()


class TestChunks:
    """Past :data:`_CHUNK` elements a contiguous input is rounded chunk by
    chunk: each chunk decides its own range check, clamp and sign repair,
    and the flag covers all of them."""

    SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]

    @pytest.mark.parametrize("size", SIZES)
    def test_sizes_around_the_chunk(self, rng, size):
        x = (rng.normal(size=size) * 1000.0).astype(np.float32)
        y, finite = quantize_fp16_checked(x)
        assert finite
        assert_bits_equal(y, cast(x))

    @pytest.mark.parametrize("where", [0, -1], ids=["first_chunk", "last_chunk"])
    @pytest.mark.parametrize("value", [np.float32(np.nan), np.float32(np.inf), np.float32(65520.0)])
    def test_out_of_range_in_one_chunk(self, rng, value, where):
        x = rng.normal(size=3 * CHUNK + 7).astype(np.float32)
        x[where] = value
        y, finite = quantize_fp16_checked(x)
        assert not finite
        assert_bits_equal(y, cast(x))

    def test_a_large_finite_value_in_one_chunk(self, rng):
        x = rng.normal(size=3 * CHUNK + 7).astype(np.float32)
        x[CHUNK + 5] = np.float32(40000.0)
        y, finite = quantize_fp16_checked(x)
        assert finite and y[CHUNK + 5] == np.float32(40000.0)
        assert_bits_equal(y, cast(x))

    @pytest.mark.parametrize(
        "value",
        [np.float32(-0.0), np.float32(2.0**-25), np.float32(-(2.0**-25)), np.float32(2.0**-20)],
    )
    def test_tiny_value_in_only_one_chunk(self, rng, value):
        """Every other magnitude is in [1, 2): only the chunk holding
        ``value`` clamps, and only it repairs signs."""
        x = rng.uniform(1.0, 2.0, size=3 * CHUNK + 7).astype(np.float32)
        x[::3] *= np.float32(-1.0)
        x[2 * CHUNK + 3] = value
        y, finite = quantize_fp16_checked(x)
        assert finite
        assert_bits_equal(y, cast(x))
        assert np.signbit(y[2 * CHUNK + 3]) == np.signbit(value)


class TestShapesAndLayout:
    VIEWS = {
        "c": lambda a: a,
        "fortran": np.asfortranarray,
        "swapaxes": lambda a: a.swapaxes(1, 2),
        "transpose": lambda a: a.transpose(2, 0, 1),
        "strided": lambda a: a[:, ::2],
        "reversed": lambda a: a[::-1, :, ::-1],
        "slab": lambda a: a[2],
        "slab_t": lambda a: a[2].T,
        "column": lambda a: a[:, :, :1],
    }

    @pytest.mark.parametrize("view", sorted(VIEWS))
    def test_layout_follows_the_input(self, rng, view):
        x = self.VIEWS[view](rng.normal(size=(6, 40, 30)).astype(np.float32))
        y, finite = quantize_fp16_checked(x)
        want = cast(x)
        assert finite and y.strides == want.strides
        assert_bits_equal(y, want)

    @pytest.mark.parametrize("view", sorted(VIEWS))
    def test_layout_follows_the_input_past_the_chunk(self, rng, view):
        x = self.VIEWS[view](rng.normal(size=(5, 160, 96)).astype(np.float32))
        y, finite = quantize_fp16_checked(x)
        want = cast(x)
        assert finite and y.strides == want.strides
        assert_bits_equal(y, want)

    def test_zero_d_and_empty(self):
        y, finite = quantize_fp16_checked(np.float32(1.0 + 2.0**-12))
        assert finite and y.shape == () and y == 1.0
        y, finite = quantize_fp16_checked(np.zeros((0, 3), dtype=np.float32))
        assert finite and y.shape == (0, 3) and y.dtype == np.float32


class TestFiniteFlag:
    @pytest.mark.parametrize(
        "values, finite",
        [
            ([], True),
            ([65519.996, -65519.996], True),
            ([1.0, 65520.0], False),
            ([-65520.0, 1.0], False),
            ([np.nan, 1.0], False),
            ([1.0, -np.inf], False),
        ],
    )
    def test_flag_is_whether_the_rounded_values_stay_finite(self, values, finite):
        x = np.array(values, dtype=np.float32)
        assert fp16_finite(x) is finite
        assert quantize_fp16_checked(x)[1] is finite
        assert bool(np.isfinite(cast(x)).all()) is finite

    def test_other_dtypes(self):
        assert fp16_finite(np.array([65519.9999], dtype=np.float64))
        assert not fp16_finite(np.array([70000], dtype=np.int64))
        assert fp16_finite(np.array([True, False]))


def test_float16_appears_only_in_the_rounding_module():
    """One definition: every kernel rounds through ``formats.base``."""
    root = pathlib.Path(repro.__file__).parent
    users = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if "float16" in path.read_text(encoding="utf-8")
    )
    assert users == ["formats/base.py"]


@pytest.mark.slow
def test_quantize_matches_cast_on_every_float32_pattern():
    """All 2**32 patterns: the 2,399,133,696 finite ones below 65520 run the
    kernel and are compared with the cast bit for bit; every other pattern
    is flagged, which routes it to the cast itself (the cells above compare
    those outputs too).  About three minutes: NumPy's cast is slow wherever
    it signals underflow."""
    chunk = 1 << 22
    bounds = sorted(set(range(0, 1 << 32, chunk)) | {OVERFLOW_BITS, SIGN | OVERFLOW_BITS, 1 << 32})
    checked = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        x = np.arange(lo, hi, dtype=np.uint32).view(np.float32)
        if hi <= OVERFLOW_BITS or SIGN <= lo < hi <= SIGN | OVERFLOW_BITS:
            y, finite = quantize_fp16_checked(x)
            assert finite
            assert np.array_equal(y.view(np.uint32), cast(x).view(np.uint32)), hex(lo)
            checked += hi - lo
        else:
            assert not fp16_finite(x), hex(lo)
    assert checked == 2 * OVERFLOW_BITS == 2_399_133_696
