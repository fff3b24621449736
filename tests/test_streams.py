"""Keyed stream contracts: determinism, independence, order-freedom.

The vectorized generator is cross-checked against a deliberately naive
scalar Philox 4x32-10 + Box-Muller reference written here from the
published round function, sharing no code with the package.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensvar import DrawKey, NoiseKind, PerturbationStream, Phase, ValidationError, derive_seed
from ensvar.streams import _philox_blocks


def _philox_reference(counter, key):
    """Scalar Philox 4x32-10 on one 128-bit counter block."""
    m0, m1 = 0xD2511F53, 0xCD9E8D57
    w0, w1 = 0x9E3779B9, 0xBB67AE85
    c = list(counter)
    k = list(key)
    for _ in range(10):
        p0 = c[0] * m0
        p1 = c[2] * m1
        c = [
            ((p1 >> 32) ^ c[1] ^ k[0]) & 0xFFFFFFFF,
            p1 & 0xFFFFFFFF,
            ((p0 >> 32) ^ c[3] ^ k[1]) & 0xFFFFFFFF,
            p0 & 0xFFFFFFFF,
        ]
        k = [(k[0] + w0) & 0xFFFFFFFF, (k[1] + w1) & 0xFFFFFFFF]
    return c


def _numpy_log(x):
    # numpy dispatches its float64 log to AVX-512 code where the CPU has it,
    # and that code differs from libm's by one ulp on about 0.3% of inputs,
    # which moves the last bit of roughly one normal pair in 600.  Checks
    # over random keys therefore take the logarithm from numpy, one scalar
    # at a time; everything else stays scalar Python.
    return float(np.log(np.float64(x)))


def _draw_reference(seed, phase, iteration, time_index, member, kind, dim, log=math.log):
    """Scalar re-derivation of the packaged draw, one block at a time."""
    out = []
    for block in range((dim + 1) // 2):
        c = [
            block,
            (phase << 24) | (kind << 16) | iteration,
            time_index,
            member,
        ]
        k = [seed & 0xFFFFFFFF, seed >> 32]
        x = _philox_reference(c, k)
        bits1 = (x[0] << 21) | (x[1] >> 11)
        bits2 = (x[2] << 21) | (x[3] >> 11)
        u1 = (bits1 + 1) * 2.0**-53
        u2 = bits2 * 2.0**-53
        r = math.sqrt(-2.0 * log(u1))
        out.extend([r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)])
    return np.array(out[:dim])


@pytest.mark.parametrize(
    "seed,key,dim",
    [
        (0, DrawKey(Phase.SMOOTHER, 0, 0, 0, NoiseKind.INIT), 1),
        (12345, DrawKey(Phase.LM, 3, 2, 17, NoiseKind.OBS), 5),
        (2**64 - 1, DrawKey(Phase.SMOOTHER, 0, 2**32 - 1, 2**32 - 1, NoiseKind.MODEL), 4),
        (987654321, DrawKey(Phase.LM, 2**16 - 1, 1, 0, NoiseKind.INIT), 7),
    ],
)
def test_matches_scalar_reference(seed, key, dim):
    got = PerturbationStream(seed).draw(key, dim)
    want = _draw_reference(seed, key.phase, key.iteration, key.time_index, key.member, key.kind, dim)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("dim", [1, 2, 5, 8])
@pytest.mark.parametrize("time_index", [3, 2**32 - 1])
def test_multi_member_batches_match_scalar_reference(seed, dim, time_index):
    members = [0, 1, 17, 2**32 - 1]
    block = PerturbationStream(seed).draw_members(Phase.LM, 5, time_index, NoiseKind.MODEL, members, dim)
    assert block.shape == (len(members), dim) and block.flags.c_contiguous
    for row, member in zip(block, members):
        want = _draw_reference(seed, Phase.LM, 5, time_index, member, NoiseKind.MODEL, dim)
        np.testing.assert_array_equal(row, want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    members=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12, unique=True),
    dim=st.integers(1, 9),
    data=st.data(),
)
def test_sampled_rows_match_scalar_reference(seed, members, dim, data):
    block = PerturbationStream(seed).draw_members(Phase.SMOOTHER, 0, 7, NoiseKind.OBS, members, dim)
    for r in data.draw(st.lists(st.sampled_from(range(len(members))), min_size=1, max_size=3)):
        want = _draw_reference(seed, Phase.SMOOTHER, 0, 7, members[r], NoiseKind.OBS, dim, log=_numpy_log)
        np.testing.assert_array_equal(block[r], want)


@pytest.mark.parametrize(
    "c0,c3",
    [
        (np.uint64(2), np.uint64(9)),
        (np.arange(3, dtype=np.uint64), np.array([[0], [9]], dtype=np.uint64)),
    ],
)
def test_philox_words_are_uint64_and_match_reference(c0, c3):
    seed = 2**64 - 1
    words = _philox_blocks(c0, 0x01020003, 2**32 - 1, c3, seed & 0xFFFFFFFF, seed >> 32)
    assert all(np.asarray(w).dtype == np.uint64 for w in words)
    shape = np.broadcast(c0, c3).shape
    for idx in np.ndindex(shape):
        counter = [int(np.broadcast_to(c0, shape)[idx]), 0x01020003, 2**32 - 1, int(np.broadcast_to(c3, shape)[idx])]
        want = _philox_reference(counter, [seed & 0xFFFFFFFF, seed >> 32])
        assert [int(np.broadcast_to(w, shape)[idx]) for w in words] == want


def test_same_seed_and_key_twice_identical():
    stream = PerturbationStream(7)
    key = DrawKey(Phase.SMOOTHER, 0, 1, 4, NoiseKind.MODEL)
    np.testing.assert_array_equal(stream.draw(key, 6), stream.draw(key, 6))


def test_distinct_members_differ():
    stream = PerturbationStream(7)
    a = stream.draw(DrawKey(Phase.SMOOTHER, 0, 1, 0, NoiseKind.MODEL), 3)
    b = stream.draw(DrawKey(Phase.SMOOTHER, 0, 1, 1, NoiseKind.MODEL), 3)
    assert np.any(a != b)


def test_moments_of_scalar_draws():
    # 1e5 scalar draws across member indices: standard-normal moments.
    vals = PerturbationStream(5).draw_members(
        Phase.SMOOTHER, 0, 0, NoiseKind.MODEL, np.arange(100_000), 1
    )[:, 0]
    assert abs(vals.mean()) < 4.0 / np.sqrt(100_000)
    assert abs(vals.var() - 1.0) < 0.05


def test_batched_rows_equal_scalar_draws():
    stream = PerturbationStream(99)
    members = [4, 0, 11, 7]
    block = stream.draw_members(Phase.LM, 2, 3, NoiseKind.OBS, members, 5)
    for row, member in zip(block, members):
        np.testing.assert_array_equal(
            row, stream.draw(DrawKey(Phase.LM, 2, 3, member, NoiseKind.OBS), 5)
        )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    keys=st.lists(
        st.tuples(
            st.sampled_from([Phase.SMOOTHER, Phase.LM]),
            st.integers(0, 100),
            st.integers(0, 100),
            st.integers(0, 1000),
            st.sampled_from([NoiseKind.INIT, NoiseKind.MODEL, NoiseKind.OBS]),
        ),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    data=st.data(),
)
def test_order_independence(seed, keys, data):
    # Consuming keys in any order yields the same per-key values.
    stream = PerturbationStream(seed)
    ordering = data.draw(st.permutations(range(len(keys))))
    first = {k: stream.draw(DrawKey(*k), 3) for k in keys}
    second = {keys[i]: stream.draw(DrawKey(*keys[i]), 3) for i in ordering}
    for k in keys:
        np.testing.assert_array_equal(first[k], second[k])


def test_distinct_seeds_differ():
    key = DrawKey(Phase.SMOOTHER, 0, 0, 0, NoiseKind.INIT)
    assert np.any(PerturbationStream(1).draw(key, 4) != PerturbationStream(2).draw(key, 4))


def test_key_component_bounds():
    stream = PerturbationStream(0)
    with pytest.raises(ValidationError):
        stream.draw(DrawKey(Phase.SMOOTHER, 2**16, 0, 0, NoiseKind.INIT), 1)
    with pytest.raises(ValidationError):
        stream.draw(DrawKey(Phase.SMOOTHER, 0, 2**32, 0, NoiseKind.INIT), 1)
    with pytest.raises(ValidationError):
        stream.draw(DrawKey(Phase.SMOOTHER, 0, 0, -1, NoiseKind.INIT), 1)
    with pytest.raises(ValidationError):
        stream.draw(DrawKey(Phase.SMOOTHER, 0, 0, 0, NoiseKind.INIT), 0)
    with pytest.raises(ValidationError):
        PerturbationStream(-1)
    with pytest.raises(ValidationError):
        PerturbationStream(2**64)


# Keys that are not whole numbers are refused, not truncated: truncation
# would let two keys alias one draw and break the coupling of runs.
@pytest.mark.parametrize("component", range(5))
@pytest.mark.parametrize("bad", [2.7, 0.5, -0.5, float("nan"), "3"])
def test_check_component_refuses_non_integers(component, bad):
    key = [Phase.LM, 1, 2, 3, NoiseKind.MODEL]
    key[component] = bad
    with pytest.raises(ValidationError, match=DrawKey._fields[component]):
        PerturbationStream(0).draw(key, 2)


def test_draw_members_refuses_non_integer_members():
    stream = PerturbationStream(0)
    for members in ([0.2, 0.9, 1.5], np.array([0.0, 1.0, 2.5]), [0, -0.5], [1, None]):
        with pytest.raises(ValidationError, match="member"):
            stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.OBS, members, 2)
    with pytest.raises(ValidationError, match="dimension"):
        stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.OBS, [0, 1], 2.5)
    # Whole numbers written as floats are the keys they name.
    np.testing.assert_array_equal(
        stream.draw_members(Phase.SMOOTHER, 0, 1.0, NoiseKind.OBS, np.array([3.0, 1.0]), 2.0),
        stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.OBS, [3, 1], 2),
    )


@pytest.mark.parametrize("bad", [0.5, 1.5, float("inf"), "7"])
def test_stream_seed_refuses_non_integers(bad):
    with pytest.raises(ValidationError, match="seed"):
        PerturbationStream(bad)
    assert PerturbationStream(7.0).seed == PerturbationStream(np.uint64(7)).seed == 7


@pytest.mark.parametrize("bad", [0.5, -0.5, 1.5, float("nan")])
def test_derive_seed_refuses_non_integer_index(bad):
    with pytest.raises(ValidationError, match="derivation index"):
        derive_seed(42, bad)
    with pytest.raises(ValidationError, match="seed"):
        derive_seed(bad, 1)
    assert derive_seed(42, 3.0) == derive_seed(42, np.int64(3)) == derive_seed(42, 3)


def test_draw_peak_memory_is_bounded_by_its_output():
    # Each Philox word and each Box-Muller temporary is freed once used,
    # so the draw never holds more than 4x its output bytes.
    stream = PerturbationStream(0)
    members = np.arange(10_000)
    stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.MODEL, members, 2)
    tracemalloc.start()
    try:
        out = stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.MODEL, members, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * out.nbytes


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seeds = {derive_seed(42, r) for r in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)
