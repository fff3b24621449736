"""Keyed, counter-based Gaussian perturbation streams.

Every random draw in this package is addressed by an explicit key
``(phase, iteration, time_index, member, kind)`` under a 64-bit root seed.
The same (seed, key) always yields the identical standard-normal vector,
no matter when or in what order it is requested.  This is what lets two
algorithm variants (e.g. a sample-covariance run and an exact-covariance
reference run, or a tangent-operator run and a finite-difference run)
consume *literally the same* noise realizations, so that their difference
isolates algorithmic error rather than Monte Carlo noise.

Draws are generated with the Philox 4x32-10 counter-based generator, with
the key components packed bijectively into the counter/key words, and
turned into normals by the Box-Muller transform (fixed consumption: one
128-bit block per pair of normals).  One kernel, :func:`_draw_chunks`,
makes every draw.  It runs over a (member x block) counter grid whose
rows may belong to several keys: each block row carries its own c1
(phase, kind, iteration) and c2 (time index) words, so the keys of one
LM iteration are drawn in one vectorized pass
(:meth:`PerturbationStream.draw_keys`), and a key's normals never depend
on the keys drawn beside it.  The member counters are broadcast against
the block rows, not tiled, and members are taken in chunks of at most
``_BLOCK_BUDGET`` blocks (two members at least, and no chunk of one
member unless the draw has one), so a draw's temporaries are bounded by
one chunk whatever the ensemble size.  Within a chunk each temporary is
freed once used, so a one-chunk draw of even dimension peaks at about
2.5 times its output.  Given two or more usable CPUs, one long-lived
helper thread computes the cos half of each Box-Muller chunk of at least
``_PARALLEL_PAIRS`` pairs while the drawing thread computes the sin half.
A normal's last bits are those of numpy's float64 log, cos and sin on
the host, whichever thread ran them; its log is not libm's where numpy
dispatches it to AVX-512.

Key components, members, seeds and derivation indices must be whole
numbers (an integral float passes): anything else, a boolean included,
is refused, never truncated, since two keys truncated to one would alias
one draw.  This module decides what a number is for the whole package:
every integer, real number, array of reals and sequence that reaches
ensvar, from Python or from a YAML config, is read through ``_integer``,
``_real``, ``_reals``, ``_items`` and ``_each``.  A boolean or a string
is never a number, inside an array neither, and a string or a mapping is
not a sequence.  ``_rule`` adds a range to a reader, so one reader checks
a value's type and range and refuses it as ``<name> must be <rule>, got
<value>``.

Each quantity the package reads has one such reader here, whichever
module reads it:

* ``_count``, a whole number >= 1: ``state_dim``, ``horizon``,
  ``replicates``, ``max_iterations``, a toy's ``m`` and ``k``, a draw's
  dimension, and the number of members, samples or keys given;
* ``_size``, a whole number >= 2: an ensemble size (``n_members``,
  ``ensemble_sizes``, an N sweep), since a sample covariance needs two
  members;
* ``_below``, a whole number in [0, 2**b): a seed or derivation index
  (``_seed``, [0, 2**64)) and each draw-key component;
* ``_positive``, finite and > 0: ``tau``, a ``lorenz63`` ``dt`` and each
  sweep value;
* ``_p_order``, finite and >= 1: the order p of an L^p norm;
* ``_states``, a trajectory's states: real numbers, finite, at least
  one, in at most two dimensions.

A record type (``AssimilationProblem``, ``LMConfig``, ``StudySpec``,
``StudyResult``, ``StudyRow``) keeps one table of its fields' readers.
Its constructor runs the table through ``_read_fields``, and ``_record``
reads the record from a document mapping (a config's ``lm`` or
``study`` section, a study result's JSON) by the same table, naming each
value ``<section> field <key>``; the fields without defaults are
required.  Every mapping read from a document is read by ``_fields``:
known keys only, the required ones present, each value by its key's
reader.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
import os
import queue
import re
import threading
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from enum import IntEnum
from itertools import accumulate, chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "Phase",
    "NoiseKind",
    "DrawKey",
    "PerturbationStream",
    "derive_seed",
]

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)
# Philox 4x32 round constants (Salmon et al.'s Random123 parameterization).
_M0 = _U64(0xD2511F53)
_M1 = _U64(0xCD9E8D57)
_W0 = _U64(0x9E3779B9)
_W1 = _U64(0xBB67AE85)

_SEED_LIMIT = 1 << 64
_ITER_LIMIT = 1 << 16
_INDEX_LIMIT = 1 << 32
# Counter blocks per member chunk of a draw: a draw of 10**4 members at
# one block each, the largest of the coupled EnKS study, stays one chunk.
_BLOCK_BUDGET = 1 << 14
# Normal pairs from which a chunk's cos half runs on a helper thread while
# the caller runs its sin half: 1.5x the measured break-even, and above
# the tau-rate study's largest chunk (1,200 pairs).
_PARALLEL_PAIRS = 1 << 11
_helper: tuple = (None, None)  # (pid, its helper's job queue or None on one CPU)


class Phase(IntEnum):
    """Draw-key namespace separating algorithm families.

    SMOOTHER covers the filter/smoother runs (single pass, iteration 0);
    LM covers the iterated solvers.  Both LM solver variants share the LM
    phase on purpose: the tangent-operator and finite-difference runs must
    consume identical draws.
    """

    SMOOTHER = 0
    LM = 1


class NoiseKind(IntEnum):
    INIT = 0
    MODEL = 1
    OBS = 2


class DrawKey(NamedTuple):
    phase: int
    iteration: int
    time_index: int
    member: int
    kind: int


def _integer(name: str, value) -> int:
    """``value`` as an int.  A number that is not whole is refused, not
    truncated: two keys truncated to one would alias one draw.  A boolean
    is not a number."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """``value`` as a float: an int or float of Python or numpy, never a
    boolean; an int beyond the float range reads as an infinity."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _reals(name: str, value) -> np.ndarray:
    """``value`` as ``np.asarray(value, dtype=float)`` reads it, once every
    entry of its nested lists, tuples and arrays is known to be a real
    number: a boolean, a string or None anywhere in it is refused, where
    numpy would read ``[1, True]`` as ``[1, 1]``.  So is ragged nesting.
    An int or float ndarray takes only its dtype check."""
    todo = [] if isinstance(value, np.ndarray) and value.dtype.kind in "fiu" else [value]
    while todo:
        entry = todo.pop()
        if isinstance(entry, (list, tuple)):
            todo.extend(reversed(entry))
        elif isinstance(entry, np.ndarray):
            if entry.dtype.kind not in "fiu":
                todo.append(entry.tolist())
        elif not isinstance(entry, numbers.Real) or isinstance(entry, bool):
            raise ValidationError(f"{name} must hold real numbers, got {entry!r}")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged, or an int beyond the float range
        raise ValidationError(f"{name}: {exc}") from None


def _items(name: str, value) -> tuple:
    """The items of a sequence (or any iterable but a string or a mapping,
    whose characters or keys are no sequence's items) as a tuple."""
    if not isinstance(value, (str, bytes, Mapping)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be a sequence, got {value!r}")


def _each(read):
    """The reader of a sequence: item i (from 1) of sequence ``name`` read by
    ``read`` as ``name[i]``; a tuple of the items read."""
    return lambda name, values: tuple(read(f"{name}[{i}]", v) for i, v in enumerate(_items(name, values), 1))


def _rule(read, rule: str, holds):
    """The reader of a value read by ``read`` (None: taken as it is) that is
    refused as ``{name} must be {rule}, got {value}`` unless ``holds(value)``;
    an array is shown on one line."""

    def read_by_rule(name: str, value):
        value = value if read is None else read(name, value)
        if not holds(value):
            shown = " ".join(repr(value).split()) if isinstance(value, np.ndarray) else repr(value)
            raise ValidationError(f"{name} must be {rule}, got {shown}")
        return value

    return read_by_rule


def _below(limit: int):
    """The reader of a whole number in [0, limit), for a limit 2**b."""
    return _rule(_integer, f"in [0, 2**{limit.bit_length() - 1})", lambda n: 0 <= n < limit)


# One reader per quantity, each refusing as ``{name} must be {rule}, got {value}``:
_count = _rule(_integer, ">= 1", lambda n: n >= 1)  # a count
_size = _rule(_integer, ">= 2", lambda n: n >= 2)  # an ensemble size: a sample covariance needs two members
_seed = _below(_SEED_LIMIT)  # a root seed or a seed derivation index
_positive = _rule(_real, "finite and > 0", lambda x: math.isfinite(x) and x > 0)  # a step: tau, dt, a sweep value
_p_order = _rule(_real, "finite and >= 1", lambda p: math.isfinite(p) and p >= 1)  # the order of an L^p norm
# A trajectory's states x_0..x_k, one row per time, as a 2-d float array.
_states = _rule(lambda name, value: np.atleast_2d(_reals(name, value)), "finite, non-empty and at most 2-d",
                lambda states: states.ndim == 2 and states.size > 0 and np.isfinite(states).all())
# The draw-key components: phase and kind take a byte each of the c1 word.
_byte, _iteration, _index = _below(1 << 8), _below(_ITER_LIMIT), _below(_INDEX_LIMIT)


def _reject_unknown(section: dict, allowed, name: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys in {name} section: {sorted(unknown, key=str)}")


def _fields(section, name: str, readers: dict, required) -> dict:
    """A mapping's values by key, each read by its key's reader as ``{name}
    field {key}``.  The mapping must hold only known keys and every
    required one."""
    if not isinstance(section, dict):
        raise ValidationError(f"{name} section must be a mapping")
    _reject_unknown(section, readers, name)
    for key in required:
        if key not in section:
            raise ValidationError(f"{name} section requires a {key} value")
    return {key: read(f"{name} field {key}", section[key]) for key, read in readers.items() if key in section}


def _read_fields(record, readers: dict) -> None:
    """Set each field of the frozen dataclass instance ``record`` to its value
    read by the field's reader in ``readers``, under the field's name."""
    for field in fields(record):
        object.__setattr__(record, field.name, readers[field.name](field.name, getattr(record, field.name)))


def _record(cls, readers: dict, name: str, doc, **given):
    """The ``cls`` a document mapping holds, with the fields ``given``: each
    other field is a key, read by its reader in ``readers`` as ``{name}
    field {key}`` and required unless the field has a default.  A rule
    between fields that refuses a key's value by the field's bare name
    names it as ``{name} field {key}`` too."""
    keys = [field for field in fields(cls) if field.name not in given]
    required = [field.name for field in keys if field.default is MISSING]
    values = _fields(doc, name, {field.name: readers[field.name] for field in keys}, required)
    try:
        return cls(**values, **given)
    except ValidationError as exc:
        if re.match(r"\w*", str(exc)).group() not in values:
            raise
        raise type(exc)(f"{name} field {exc}") from None


def _checked_key(phase, iteration, time_index, kind, dim) -> tuple[int, int, int]:
    """A key's (c1 word, time index, dim), each component checked."""
    phase, kind = _byte("draw key component phase", phase), _byte("draw key component kind", kind)
    iteration = _iteration("draw key component iteration", iteration)
    time_index = _index("draw key component time_index", time_index)
    dim = _count("draw dimension", dim)
    if (dim + 1) // 2 >= _INDEX_LIMIT:
        raise ValidationError(f"draw dimension {dim} too large")
    return _key_word(phase, kind, iteration), time_index, dim


def _member_keys(members) -> np.ndarray:
    """Member keys as a 1-d int64 array, each a whole number in [0, 2**32)."""
    keys = np.asarray(members)
    if keys.ndim != 1:
        raise ValidationError("members must be a 1-d sequence of indices")
    if keys.dtype.kind not in "iu":
        keys = np.array([_integer("draw key component member", v) for v in keys.tolist()], dtype=object)
    if keys.size and (keys.min() < 0 or keys.max() >= _INDEX_LIMIT):  # the first key out of range refused
        _index("draw key component member", int(keys[(keys < 0) | (keys >= _INDEX_LIMIT)][0]))
    return keys.astype(np.int64, copy=False)


def _philox_blocks(c0, c1, c2, c3, k0: int, k1: int) -> list:
    """Philox 4x32-10 on counters broadcast from (B,) blocks ``c0`` and (N, 1) keys ``c3``.

    ``c1`` and ``c2`` are ints, or (B,) rows with a word per block.  A word
    stays as small as the counters it depends on (scalars and short rows
    in the first rounds); products of two 32-bit values fit a uint64.
    Constants are ``np.uint64``: before NEP 50, uint64 combined with a
    Python int becomes float64.  In the first three rounds each word is
    dropped as soon as its round has no further use for it.  From the
    fourth on, x0, x2 and x3 are (N, B) arrays made here, which each round
    overwrites in place, so at most four words and one shifted word are
    alive at once; the caller's counters are never written.  Returns the
    four 32-bit output words as a list, for :func:`_normals_from_blocks`
    to take over.
    """
    x0, x1, x2, x3 = c0, _U64(c1), _U64(c2), c3
    del c0, c3
    key0, key1 = _U64(k0), _U64(k1)
    for r in range(10):
        if r < 3:
            p0 = _M0 * x0
            p1 = _M1 * x2
            del x0, x2
            x0 = (p1 >> _SHIFT32) ^ (x1 ^ key0)
            x1 = p1 & _MASK32
            del p1
            x2 = (p0 >> _SHIFT32) ^ (x3 ^ key1)
            x3 = p0 & _MASK32
            del p0
        else:
            x0 *= _M0  # p0
            x2 *= _M1  # p1
            hi = x2 >> _SHIFT32  # the new x0; x1 is still a (B,) row in the fourth round
            hi ^= x1
            hi ^= key0
            del x1
            x2 &= _MASK32  # the new x1
            x3 ^= x0 >> _SHIFT32  # the new x2
            x3 ^= key1
            x0 &= _MASK32  # the new x3
            x0, x1, x2, x3 = hi, x2, x3, x0
        key0, key1 = (key0 + _W0) & _MASK32, (key1 + _W1) & _MASK32
    return [x0, x1, x2, x3]


def _normals_from_blocks(words: list) -> np.ndarray:
    """Box-Muller: the four (N, B) Philox words -> (N, 2B) standard normals.

    Each uniform uses 53 bits (two words), so a block yields exactly one
    normal pair; consumption per key is fixed, which keeps member draws
    independent of ensemble size and of each other.  Empties ``words`` and
    overwrites the words, dropping each once it is used: x1 and x3 once
    the 53-bit uniforms exist, x0 and x2 once ``radius`` and ``angle`` do.

    From ``_PARALLEL_PAIRS`` pairs on, the helper thread writes the cos
    half with the serial loop's ufunc and inputs, so the bits stay.  It
    runs under numpy's default ``np.errstate`` (which is per thread): no
    matter, as ``angle`` lies in [0, 2*pi) and ``radius`` is finite.
    """
    x0, x1, x2, x3 = words
    words.clear()
    x0 <<= _U64(21)
    x0 |= x1 >> _U64(11)
    x2 <<= _U64(21)
    x2 |= x3 >> _U64(11)
    del x1, x3
    radius = np.add(x0, 1.0)  # (u1 + 1) * 2**-53 in (0, 1]: log is finite
    del x0
    radius *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = np.multiply(x2, 2.0**-53)  # u2 in [0, 1)
    shape = x2.shape
    del x2
    angle *= 2.0 * np.pi
    pairs = np.empty(shape + (2,))
    halves = [(np.cos, pairs[..., 0]), (np.sin, pairs[..., 1])]
    if angle.size >= _PARALLEL_PAIRS and (jobs := _trig_jobs()) is not None:
        done = queue.SimpleQueue()
        jobs.put((*halves.pop(0), angle, radius, done))  # the cos half
    for trig, out in halves:
        trig(angle, out=out)
        out *= radius
    if len(halves) == 1 and (error := done.get()) is not None:
        raise error
    return pairs.reshape(shape[0], 2 * shape[1])


def _trig_jobs() -> queue.SimpleQueue | None:
    """This process's helper job queue, None on one CPU; a forked child starts its own."""
    global _helper
    if _helper[0] != os.getpid():
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        _helper = os.getpid(), queue.SimpleQueue() if cpus > 1 else None
        if cpus > 1:
            threading.Thread(target=_serve, args=(_helper[1],), daemon=True).start()
    return _helper[1]


def _serve(jobs: queue.SimpleQueue) -> None:
    """The helper thread: drops each job's arrays before it signals ``done``."""
    while True:
        trig, out, angle, radius, done = jobs.get()
        error = None
        try:
            trig(angle, out=out)
            out *= radius
        except Exception as exc:  # raised again in the drawing thread
            error = exc
        del out, angle, radius
        done.put(error)
        del error, done


def _key_word(phase: int, kind: int, iteration: int) -> int:
    """The c1 counter word of a key, bijective within the component bounds."""
    return (phase << 24) | (kind << 16) | iteration


def _draw_chunks(seed: int, members: np.ndarray, keys: list) -> Iterator[tuple[slice, list]]:
    """The package's one Philox + Box-Muller pass, one member chunk at a time.

    ``keys`` holds ``(c1 word, time index, dim)`` triples.  Key q owns
    (dim_q + 1) // 2 consecutive block rows of the counter grid: c0 counts
    its blocks from 0, c1 and c2 are its own words, c3 is the member, and
    the Philox key carries the 64-bit seed.  A chunk takes as many
    members as fit ``_BLOCK_BUDGET`` blocks, and two at least; the last
    takes any one member left over.  Yields ``(rows, draws)``:
    ``draws[q]`` is a (len(rows), dim_q) view of key q's normals for
    ``members[rows]``.
    """
    c0, c1, c2 = np.array(
        [(block, word, time_index) for word, time_index, dim in keys for block in range((dim + 1) // 2)],
        dtype=np.uint64,
    ).T
    offsets = accumulate([(dim + 1) // 2 for *_, dim in keys], initial=0)
    columns = [slice(2 * offset, 2 * offset + dim) for offset, (*_, dim) in zip(offsets, keys)]
    # No chunk starts on the last member, so a chunk has one member only
    # when the draw has one: scaling one member's draw would take numpy's
    # matrix-vector path, whose bits can differ from the matrix product's.
    starts = range(0, max(members.size - 1, 1), max(2, _BLOCK_BUDGET // len(c0)))
    for start, stop in zip(starts, chain(starts[1:], [members.size])):
        rows = slice(start, stop)
        normals = _normals_from_blocks(_philox_blocks(
            c0, c1, c2, members[rows].astype(np.uint64)[:, None], seed & 0xFFFFFFFF, seed >> 32
        ))
        yield rows, [normals[:, column] for column in columns]
        del normals


@dataclass
class PerturbationStream:
    """Deterministic keyed source of standard-normal vectors.

    Parameters
    ----------
    seed : int
        Root seed in [0, 2**64).  Streams with different seeds are
        statistically independent.

    Notes
    -----
    The stream holds no evolving state: a draw is a pure function of
    (seed, key, dim), so keys may be consumed in any order, concurrently,
    or repeatedly, with identical results.
    """

    seed: int

    def __post_init__(self) -> None:
        self.seed = _seed("seed", self.seed)

    def draw(self, key: DrawKey | Sequence[int], dim: int) -> np.ndarray:
        """Standard-normal vector of length ``dim`` for one key."""
        try:
            phase, iteration, time_index, member, kind = key
        except (TypeError, ValueError):
            raise ValidationError(f"a draw key has five components, got {key!r}") from None
        return self.draw_members(phase, iteration, time_index, kind, [member], dim)[0]

    def draw_members(
        self,
        phase: int,
        iteration: int,
        time_index: int,
        kind: int,
        members: Sequence[int] | np.ndarray,
        dim: int,
    ) -> np.ndarray:
        """Standard-normal matrix of shape (len(members), dim).

        Row ``r`` is exactly the vector that ``draw`` would return for the
        key ``(phase, iteration, time_index, members[r], kind)``; batching
        is purely a speed device.
        """
        key = _checked_key(phase, iteration, time_index, kind, dim)
        members_arr, dim = _member_keys(members), key[2]
        chunks = _draw_chunks(self.seed, members_arr, [key])
        rows, (normals,) = next(chunks)
        if rows.stop == members_arr.size:  # one chunk: its normals are the draw
            return normals.copy() if dim % 2 else normals
        out = np.empty((members_arr.size, dim))
        out[rows] = normals
        for rows, (normals,) in chunks:
            out[rows] = normals
        return out

    def draw_keys(
        self,
        phase: int,
        iteration: int,
        keys: Sequence[tuple[int, int, int]],
        members: Sequence[int] | np.ndarray,
    ) -> Iterator[tuple[slice, list[np.ndarray]]]:
        """Several keys' standard normals in one pass, a member chunk at a time.

        ``keys`` holds ``(time_index, kind, dim)`` triples of one phase and
        iteration.  Yields ``(rows, draws)`` per chunk of members, where
        ``draws[q]`` is rows ``rows`` of ``draw_members(phase, iteration,
        time_index_q, kind_q, members, dim_q)``, bit for bit.  Every key
        and member is checked before the first chunk is drawn.
        """
        checked = [_checked_key(phase, iteration, time_index, kind, dim) for time_index, kind, dim in keys]
        _count("len(keys)", len(checked))
        return _draw_chunks(self.seed, _member_keys(members), checked)


def derive_seed(root_seed: int, index: int) -> int:
    """Derive an independent 64-bit seed, e.g. one per study replicate."""
    root_seed, index = _seed("seed", root_seed), _seed("derivation index", index)
    payload = root_seed.to_bytes(8, "little") + index.to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
