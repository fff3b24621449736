"""Keyed stream contracts: determinism, independence, order-freedom.

The vectorized generator is cross-checked against a deliberately naive
scalar Philox 4x32-10 + Box-Muller reference written here from the
published round function, sharing no code with the package.
"""

import hashlib
import math
import os
import select
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensvar import DrawKey, NoiseKind, PerturbationStream, Phase, ValidationError, derive_seed, run_study, streams
from ensvar.config import load_config
from ensvar.ensemble import _noises
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
        # Rounds four to ten overwrite (N, B) words in place: B = 4 blocks, N = 5 members.
        (np.arange(4, dtype=np.uint64), np.array([[0], [1], [9], [2**31], [2**32 - 1]], dtype=np.uint64)),
    ],
)
def test_philox_words_are_uint64_and_match_reference(c0, c3):
    seed = 2**64 - 1
    c0_before, c3_before = np.copy(c0), np.copy(c3)
    words = _philox_blocks(c0, 0x01020003, 2**32 - 1, c3, seed & 0xFFFFFFFF, seed >> 32)
    np.testing.assert_array_equal(c0, c0_before)  # the caller's counters are not written
    np.testing.assert_array_equal(c3, c3_before)
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
    # and the later Philox rounds work in place, so the draw holds at most
    # four words and one temporary: 2.5x its output bytes.
    stream = PerturbationStream(0)
    members = np.arange(10_000)
    stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.MODEL, members, 2)
    tracemalloc.start()
    try:
        out = stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.MODEL, members, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * out.nbytes


def _assembled(stream, phase, iteration, keys, members):
    """A multi-key draw as one (N, dim) array per key, and its chunks' rows."""
    outs = [np.full((len(members), dim), np.nan) for *_, dim in keys]
    chunks = []
    for rows, draws in stream.draw_keys(phase, iteration, keys, members):
        chunks.append(rows)
        for out, z in zip(outs, draws):
            out[rows] = z
    return outs, chunks


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    phase=st.sampled_from([Phase.SMOOTHER, Phase.LM]),
    iteration=st.integers(0, 2**16 - 1),
    keys=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(list(NoiseKind)), st.integers(1, 9)),
        min_size=1,
        max_size=6,
    ),
    members=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12, unique=True),
    budget=st.sampled_from([1, 2, 5, 16, 1 << 14]),
)
# One time index under every kind, with odd and even dims, unsorted members.
@example(
    seed=0, phase=Phase.LM, iteration=1, budget=5, members=[9, 2, 5],
    keys=[(3, NoiseKind.INIT, 3), (3, NoiseKind.MODEL, 4), (3, NoiseKind.OBS, 1)],
)
# A single member, in one-block chunks.
@example(seed=7, phase=Phase.LM, iteration=2, budget=1, members=[4], keys=[(1, NoiseKind.MODEL, 2), (1, NoiseKind.OBS, 3)])
def test_multi_key_draws_equal_single_key_draws(seed, phase, iteration, keys, members, budget):
    # Every key of a multi-key draw is draw_members of that key, bit for
    # bit, whatever the keys beside it and however the members are chunked.
    stream = PerturbationStream(seed)
    want = [stream.draw_members(phase, iteration, t, kind, members, dim) for t, kind, dim in keys]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_BLOCK_BUDGET", budget)
        got, chunks = _assembled(stream, phase, iteration, keys, members)
        chunked = [stream.draw_members(phase, iteration, t, kind, members, dim) for t, kind, dim in keys]
    # Chunks of the budget's members, two at least; the last takes any one left over.
    step, n = max(2, budget // sum((dim + 1) // 2 for *_, dim in keys)), len(members)
    edges = [*range(0, max(n - 1, 1), step), n]
    assert chunks == [slice(a, b) for a, b in zip(edges, edges[1:])]
    assert all(rows.stop - rows.start >= 2 for rows in chunks) or n == 1
    for g, c, w in zip(got, chunked, want):
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(c, w)
    for q in {0, len(keys) - 1}:
        t, kind, dim = keys[q]
        for r in {0, len(members) - 1}:
            reference = _draw_reference(seed, phase, iteration, t, members[r], kind, dim, log=_numpy_log)
            np.testing.assert_array_equal(got[q][r], reference)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    dims=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    members=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40, unique=True),
    budget=st.sampled_from([1, 5, 16, 1 << 14]),
)
# Many chunks, the last taking an odd member left over; and one member.
@example(seed=3, dims=[4, 1, 7], members=list(range(9, 0, -1)), budget=5)
@example(seed=3, dims=[5, 2], members=[6], budget=1)
def test_scaled_multi_key_draws_are_scaled_chunk_by_chunk(seed, dims, members, budget):
    # Each member chunk's columns of a key's _noises are l @ draw_members(...).T
    # of that chunk's members, bit for bit, with a dense lower-triangular l:
    # every chunk's product lands in its own columns, scaled by its own key's
    # factor.  The whole draw is that product over every member up to
    # round-off only: a BLAS may give a column other bits in a wider product.
    rng = np.random.default_rng(seed % 2**32)
    kinds = list(NoiseKind)
    keys = [(q % 3, kinds[q % 3], np.tril(rng.standard_normal((dim, dim)))) for q, dim in enumerate(dims)]
    stream = PerturbationStream(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_BLOCK_BUDGET", budget)
        got = _noises(stream, Phase.LM, 2, members, keys)
        chunks = [rows for rows, _ in stream.draw_keys(Phase.LM, 2, [(i, kind, len(l)) for i, kind, l in keys], members)]
    for g, (i, kind, l) in zip(got, keys):
        z = stream.draw_members(Phase.LM, 2, i, kind, members, len(l))
        for rows in chunks:
            np.testing.assert_array_equal(g[:, rows], l @ z[rows].T)
        np.testing.assert_allclose(g, l @ z.T, rtol=1e-12, atol=1e-12)


def test_draw_keys_checks_everything_before_drawing():
    stream = PerturbationStream(0)
    with pytest.raises(ValidationError, match="at least one key"):
        stream.draw_keys(Phase.LM, 1, [], [0, 1])
    with pytest.raises(ValidationError, match="draw dimension must be >= 1"):
        stream.draw_keys(Phase.LM, 1, [(1, NoiseKind.MODEL, 2), (1, NoiseKind.OBS, 0)], [0, 1])
    with pytest.raises(ValidationError, match="time_index"):
        stream.draw_keys(Phase.LM, 1, [(2**32, NoiseKind.MODEL, 2)], [0, 1])
    with pytest.raises(ValidationError, match="member indices"):
        stream.draw_keys(Phase.LM, 1, [(1, NoiseKind.MODEL, 2)], [0, -1])


@pytest.mark.parametrize("n_members", [2_000, 16_000])
def test_multi_key_draw_transient_is_one_chunk(monkeypatch, n_members):
    # A multi-key draw scaled into its outputs holds one chunk of words
    # beside them, whatever N * sum(dim) is: the kernel's five (chunk)
    # words at most, the previous chunk's normals (two words) until the
    # next is drawn, and some 5 KB of Python objects (16 KB allowed).
    budget = 1 << 8
    monkeypatch.setattr(streams, "_BLOCK_BUDGET", budget)
    keys = [(i, kind, 0.5 * np.eye(dim)) for i, (kind, dim) in enumerate(
        [(NoiseKind.INIT, 3), (NoiseKind.MODEL, 4), (NoiseKind.OBS, 7), (NoiseKind.MODEL, 2)]
    )]
    members, stream = np.arange(n_members), PerturbationStream(0)
    _noises(stream, Phase.LM, 1, members, keys)
    tracemalloc.start()
    try:
        outs = _noises(stream, Phase.LM, 1, members, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_word = 8 * budget  # bytes of one uint64 or float64 (member x block) word of a chunk
    assert peak <= sum(out.nbytes for out in outs) + 8 * chunk_word + 16384


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seeds = {derive_seed(42, r) for r in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)


def test_derive_seed_refuses_an_index_beyond_64_bits():
    assert 0 <= derive_seed(42, 2**64 - 1) < 2**64
    for bad in (2**64, 2**70, -1):
        with pytest.raises(ValidationError, match="derivation index"):
            derive_seed(42, bad)


@pytest.mark.parametrize("key", [(0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (), 5])
def test_draw_refuses_a_key_without_five_components(key):
    with pytest.raises(ValidationError, match="five components"):
        PerturbationStream(0).draw(key, 2)


def _two_cpus(monkeypatch):
    """Let the next large draw start a trig helper, whatever CPUs the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(streams, "_helper", (None, None))


def test_parallel_draws_equal_serial_draws(monkeypatch):
    # The helper thread runs the cos half through the same ufunc on the same
    # angles as the serial loop, so a draw's bits do not depend on the path.
    stream, members = PerturbationStream(2**63 + 5), np.arange(10_000) * 7919
    keys = [(t, NoiseKind(t % 3), dim) for t, dim in enumerate(range(1, 6))]

    def draws():
        single = [stream.draw_members(Phase.LM, 3, t, kind, members, dim) for t, kind, dim in keys]
        return single, _assembled(stream, Phase.LM, 3, keys, members)[0]

    monkeypatch.setattr(streams, "_PARALLEL_PAIRS", 2**62)
    serial = draws()
    _two_cpus(monkeypatch)
    monkeypatch.setattr(streams, "_PARALLEL_PAIRS", 1)
    parallel = draws()
    assert streams._helper[1] is not None
    for got, want in zip(parallel, serial):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    for q, (t, kind, dim) in enumerate(keys):
        for r in (0, -1):
            reference = _draw_reference(stream.seed, Phase.LM, 3, t, int(members[r]), kind, dim, log=_numpy_log)
            np.testing.assert_array_equal(parallel[0][q][r], reference)
            np.testing.assert_array_equal(parallel[1][q][r], reference)


def test_small_draws_never_touch_the_helper(monkeypatch, tmp_path):
    # Chunks below _PARALLEL_PAIRS stay serial; the tau-rate benchmark's study,
    # whose largest chunk is 1,200 pairs, never reaches the helper.
    def refuse():
        raise AssertionError("a small draw reached the trig helper")

    monkeypatch.setattr(streams, "_trig_jobs", refuse)
    stream = PerturbationStream(0)
    stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.MODEL, np.arange(streams._PARALLEL_PAIRS - 1), 2)
    list(stream.draw_keys(Phase.LM, 1, [(1, NoiseKind.MODEL, 3), (1, NoiseKind.OBS, 1)], np.arange(600)))
    config = tmp_path / "tau.yaml"
    config.write_text(
        "problem: {name: w2-quadratic}\n"
        "lm: {gamma: 1, max_iterations: 2, mode: finite-difference, ensemble_sizes: [400]}\n"
        "study: {kind: tau-sweep, sweep: [1.0e-1, 1.0e-2], replicates: 2, p_order: 2, seed: 22}\n"
    )
    run_study(load_config(config).study)
    with pytest.raises(AssertionError, match="trig helper"):
        stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.MODEL, np.arange(streams._PARALLEL_PAIRS), 2)


def test_helper_exception_reaches_the_drawing_thread(monkeypatch):
    _two_cpus(monkeypatch)
    stream, members = PerturbationStream(3), np.arange(10_000)
    want = stream.draw_members(Phase.LM, 1, 2, NoiseKind.OBS, members, 4)
    threads = []

    def broken_cos(*args, **kwargs):
        threads.append(threading.current_thread())
        raise RuntimeError("cos failed")

    with monkeypatch.context() as patch:
        patch.setattr(np, "cos", broken_cos)
        with pytest.raises(RuntimeError, match="cos failed"):
            stream.draw_members(Phase.LM, 1, 2, NoiseKind.OBS, members, 4)
    assert threads and threading.main_thread() not in threads
    np.testing.assert_array_equal(stream.draw_members(Phase.LM, 1, 2, NoiseKind.OBS, members, 4), want)


def test_large_draw_leaves_nothing_behind_in_the_helper(monkeypatch):
    # The helper drops the draw's arrays before it signals, so freeing a
    # draw frees all of it: current traced memory returns to its baseline
    # (a few hundred bytes of queue bookkeeping allowed, against 160 KB).
    _two_cpus(monkeypatch)
    stream, members = PerturbationStream(0), np.arange(10_000)
    stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.MODEL, members, 2)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        out = stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.MODEL, members, 2)
        drawn = tracemalloc.get_traced_memory()[0]
        del out
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert drawn - baseline >= 160_000
    assert left - baseline <= 1024


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_starts_its_own_helper(monkeypatch):
    # A forked child inherits the parent's helper only as a dead thread; it
    # starts its own, and its large draw equals the parent's.
    _two_cpus(monkeypatch)
    stream, members = PerturbationStream(11), np.arange(10_000)
    want = stream.draw_members(Phase.LM, 2, 5, NoiseKind.MODEL, members, 3)
    assert streams._helper[1] is not None
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report its draw's digest, then leave at once
        code = 1
        try:
            got = stream.draw_members(Phase.LM, 2, 5, NoiseKind.MODEL, members, 3)
            os.write(write, hashlib.sha256(got.tobytes()).digest())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 30)
        digest = os.read(read, 64) if ready else b""
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    assert ready, "the forked child's large draw did not finish within 30 s"
    assert os.waitstatus_to_exitcode(status) == 0
    assert digest == hashlib.sha256(want.tobytes()).digest()
