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
128-bit block per pair of normals).  Generation is vectorized across
members, which is where all the volume is: the member counters are
broadcast against the block counters, not tiled, and each Philox word and
Box-Muller temporary is freed once used, so a draw of even dimension
peaks at about 3.5 times its output.  A normal's last bits are those of
numpy's float64 log, cos and sin on the host, whose log is not libm's
where numpy dispatches it to AVX-512.

Key components, members, seeds and derivation indices must be whole
numbers (an integral float passes): anything else is refused, never
truncated, since two keys truncated to one would alias one draw.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Sequence

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
# Philox 4x32 round constants (Salmon et al.'s Random123 parameterization).
_M0 = _U64(0xD2511F53)
_M1 = _U64(0xCD9E8D57)
_W0 = _U64(0x9E3779B9)
_W1 = _U64(0xBB67AE85)

_SEED_LIMIT = 1 << 64
_ITER_LIMIT = 1 << 16
_INDEX_LIMIT = 1 << 32


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
    truncated: two keys truncated to one would alias one draw."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _check_component(name: str, value, limit: int) -> int:
    value = _integer(f"draw key component {name}", value)
    if not 0 <= value < limit:
        raise ValidationError(f"draw key component {name}={value} outside [0, {limit})")
    return value


def _member_keys(members) -> np.ndarray:
    """Member keys as a 1-d int64 array, each a whole number in [0, 2**32)."""
    keys = np.asarray(members)
    if keys.ndim != 1:
        raise ValidationError("members must be a 1-d sequence of indices")
    if keys.dtype.kind not in "iu":
        keys = np.array([_integer("draw key component member", v) for v in keys.tolist()], dtype=object)
    if keys.size and (keys.min() < 0 or keys.max() >= _INDEX_LIMIT):
        raise ValidationError("member indices must lie in [0, 2**32)")
    return keys.astype(np.int64, copy=False)


def _philox_blocks(c0, c1: int, c2: int, c3, k0: int, k1: int) -> list:
    """Philox 4x32-10 on counters broadcast from (B,) blocks ``c0`` and (N, 1) keys ``c3``.

    A word stays as small as the counters it depends on (scalars and short
    rows in the first rounds); products of two 32-bit values fit a uint64.
    Constants are ``np.uint64``: before NEP 50, uint64 combined with a
    Python int becomes float64.  The words take the counters over, and
    each word is dropped as soon as its round has no further use for it,
    so at most four words and the temporaries of one new word are alive at
    once.  Returns the four 32-bit output words as a list, for
    :func:`_normals_from_blocks` to take over.
    """
    x0, x1, x2, x3 = c0, _U64(c1), _U64(c2), c3
    del c0, c3
    key0, key1 = _U64(k0), _U64(k1)
    for _ in range(10):
        p0 = _M0 * x0
        p1 = _M1 * x2
        del x0, x2
        x0 = (p1 >> _U64(32)) ^ (x1 ^ key0)
        x1 = p1 & _MASK32
        del p1
        x2 = (p0 >> _U64(32)) ^ (x3 ^ key1)
        x3 = p0 & _MASK32
        del p0
        key0, key1 = (key0 + _W0) & _MASK32, (key1 + _W1) & _MASK32
    return [x0, x1, x2, x3]


def _normals_from_blocks(words: list) -> np.ndarray:
    """Box-Muller: the four (N, B) Philox words -> (N, 2B) standard normals.

    Each uniform uses 53 bits (two words), so a block yields exactly one
    normal pair; consumption per key is fixed, which keeps member draws
    independent of ensemble size and of each other.  Empties ``words`` and
    overwrites the words, dropping each once it is used: x1 and x3 once
    the 53-bit uniforms exist, x0 and x2 once ``radius`` and ``angle`` do.
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
    for half, trig in enumerate((np.cos, np.sin)):
        trig(angle, out=pairs[..., half])
        pairs[..., half] *= radius
    return pairs.reshape(shape[0], 2 * shape[1])


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
        self.seed = _integer("seed", self.seed)
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValidationError(f"seed {self.seed} outside [0, 2**64)")

    def draw(self, key: DrawKey | Sequence[int], dim: int) -> np.ndarray:
        """Standard-normal vector of length ``dim`` for one key."""
        key = DrawKey(*key)
        out = self.draw_members(
            key.phase, key.iteration, key.time_index, key.kind, [key.member], dim
        )
        return out[0]

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
        phase = _check_component("phase", phase, 256)
        kind = _check_component("kind", kind, 256)
        iteration = _check_component("iteration", iteration, _ITER_LIMIT)
        time_index = _check_component("time_index", time_index, _INDEX_LIMIT)
        dim = _integer("draw dimension", dim)
        if dim < 1:
            raise ValidationError(f"draw dimension must be >= 1, got {dim}")
        members_arr = _member_keys(members)

        n_members = members_arr.size
        n_blocks = (dim + 1) // 2
        if n_blocks >= _INDEX_LIMIT:
            raise ValidationError(f"draw dimension {dim} too large")

        # Counter layout: c0 = block index within the draw, c1 packs
        # (phase, kind, iteration), c2 = time index, c3 = member index;
        # the Philox key carries the 64-bit seed.  The packing is
        # bijective within the documented bounds, so distinct keys can
        # never alias.
        normals = _normals_from_blocks(_philox_blocks(
            np.arange(n_blocks, dtype=np.uint64),
            (phase << 24) | (kind << 16) | iteration,
            time_index,
            members_arr.astype(np.uint64)[:, None],
            self.seed & 0xFFFFFFFF,
            self.seed >> 32,
        ))
        return normals[:, :dim].copy() if dim % 2 else normals


def derive_seed(root_seed: int, index: int) -> int:
    """Derive an independent 64-bit seed, e.g. one per study replicate."""
    root_seed, index = _integer("seed", root_seed), _integer("derivation index", index)
    if not 0 <= root_seed < _SEED_LIMIT:
        raise ValidationError(f"seed {root_seed} outside [0, 2**64)")
    if index < 0:
        raise ValidationError(f"derivation index must be >= 0, got {index}")
    payload = root_seed.to_bytes(8, "little") + index.to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
