"""Deterministic, splittable random-number streams.

Every consumer of randomness (sampling, amputation, imputation, ...) owns
its own stream, addressed by a (base_seed, stream_id) pair. Streams are
backed by the counter-based Philox generator, so distinct ids give
independent sequences, splitting is O(1), and results are identical
regardless of how work is scheduled across threads or processes.

A stream's Philox key is the one numpy's SeedSequence(entropy=[base_seed,
stream_id], spawn_key=...) derives, computed here by _philox_keys: the
same uint32 hash (NEP 19 keeps it fixed), run on an array with one row per
stream, so a block's streams are keyed in one pass instead of one
SeedSequence each. A stream builds its Philox and Generator from its key
on its first ``generator`` access, so a stream never drawn from builds
none.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cache
from typing import Iterable

import numpy as np

_MAX_SEED = 2**64 - 1

# stream_id bit layout (see substream_id): purpose | replication | cell
_PURPOSE_BITS = 3
_REPLICATION_BITS = 37
_CELL_BITS = 24

# numpy's SeedSequence: a pool of 4 uint32 words and its hash constants
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


class Purpose(IntEnum):
    """What a stream is consumed for within one experiment cell."""

    POPULATION = 0
    SAMPLING = 1
    AMPUTATION = 2
    IMPUTATION = 3


@dataclass(frozen=True)
class SeedSpec:
    """Address of one independent random stream.

    ``base_seed`` identifies the experiment, ``stream_id`` the consumer
    within it. Equal specs reproduce the identical draw sequence across
    runs and across thread schedules.
    """

    base_seed: int
    stream_id: int

    def __post_init__(self):
        for name in ("base_seed", "stream_id"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= _MAX_SEED:
                raise ValueError(f"{name} must be a non-negative 64-bit integer, got {value}")


# =====================================================================
# the key kernel
# =====================================================================

def _words(values: Iterable[int]) -> list[int]:
    """The little-endian uint32 words of each value in turn, one word for 0.

    This is how SeedSequence reads its entropy and spawn key.
    """
    out = []
    for value in values:
        out.append(value & _MASK32)
        value >>= 32
        while value:
            out.append(value & _MASK32)
            value >>= 32
    return out


def _entropy_words(entropy: tuple[int, ...], spawn_key: tuple[int, ...]) -> list[int]:
    """SeedSequence's assembled entropy: the entropy's words, zero-padded
    to the pool size, then the spawn key's words.

    SeedSequence pads only when there is a spawn key, but without one it
    hashes a zero for each missing pool word, so padding changes no key.
    """
    run = _words(entropy)
    return run + [0] * (_POOL - len(run)) + _words(spawn_key)


@cache
def _hash_constants(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) uint32 pairs of each hashmix call that keys a
    row of n_words entropy words, in call order, and the four of the output.

    hashmix call i xors its value with c_i and multiplies it by c_(i + 1),
    where c_0 = INIT_A and c_(i + 1) = c_i * MULT_A (mod 2**32); the output
    words do the same from INIT_B by MULT_B. The sequence depends only on
    n_words, so one table serves every row of a batch.
    """
    calls = _POOL + _POOL * (_POOL - 1) + _POOL * (n_words - _POOL)
    tables = []
    for init, mult, count in ((_INIT_A, _MULT_A, calls), (_INIT_B, _MULT_B, _POOL)):
        c = [init]
        for _ in range(count):
            c.append(c[-1] * mult & _MASK32)
        table = np.array([c[:-1], c[1:]], dtype=np.uint32)
        table.flags.writeable = False
        tables.append(table)
    return tables[0], tables[1]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix of each value, with consts[:, j] the pair of column j."""
    out = (values ^ consts[0]) * consts[1]
    return out ^ (out >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """The (N, 2) uint64 Philox keys of an (N, W) uint32 entropy array, W >= 4.

    Row i is the assembled entropy of one stream (see _entropy_words), and
    key row i equals SeedSequence's generate_state(2, np.uint64) for it.
    Each step of SeedSequence's mix_entropy runs on whole columns: a source
    word is mixed into the other pool words with one hashmix constant each,
    and those updates read only the source, so they run at once. All
    arithmetic is on uint32 arrays, which wrap without a warning.
    """
    n, width = words.shape
    consts, out_consts = _hash_constants(width)
    pool = _hashmix(words[:, :_POOL], consts[:, :_POOL])
    call = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        mixed = _hashmix(pool[:, src:src + 1], consts[:, call:call + _POOL - 1])
        pool[:, dst] = _mix(pool[:, dst], mixed)
        call += _POOL - 1
    for src in range(_POOL, width):
        pool = _mix(pool, _hashmix(words[:, src:src + 1], consts[:, call:call + _POOL]))
        call += _POOL
    state = _hashmix(pool, out_consts).astype(np.uint64)
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


def _keys_of(rows: list[list[int]]) -> np.ndarray:
    """The Philox keys of entropy word rows, one _philox_keys pass per row width."""
    keys = np.empty((len(rows), 2), dtype=np.uint64)
    for width in {len(row) for row in rows}:
        at = [i for i, row in enumerate(rows) if len(row) == width]
        keys[at] = _philox_keys(np.array([rows[i] for i in at], dtype=np.uint32))
    return keys


@cache
def _key_seed_type() -> type:
    """An ISeedSequence that hands Philox a precomputed key.

    Defined on first use: importing numpy.random.bit_generator loads
    numpy.random, which a run pays only once it draws.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks once, for its key
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a key seed gives 2 uint64 words, not {n_words} {dtype}")
            return self.key

    return KeySeed


# =====================================================================
# streams
# =====================================================================

class RngStream:
    """Generator state advanced only by draws on ``generator``.

    A stream is single-owner: never share one between concurrent tasks.
    ``child`` and ``children`` split off independent streams without
    consuming state from the parent, so trees of streams remain
    reproducible.
    """

    __slots__ = ("_entropy", "_spawn_key", "_key", "_gen")

    def __init__(self, entropy: tuple[int, ...], spawn_key: tuple[int, ...] = ()):
        self._entropy = tuple(int(v) for v in entropy)
        self._spawn_key = tuple(int(v) for v in spawn_key)
        if min(self._entropy + self._spawn_key, default=0) < 0:
            raise ValueError(f"stream entropy and keys must be non-negative: {self!r}")
        self._key = None
        self._gen = None

    @classmethod
    def _keyed(cls, entropy: tuple[int, ...], spawn_key: tuple[int, ...], key: np.ndarray):
        """A stream whose checked address was keyed by a batch pass."""
        stream = cls.__new__(cls)
        stream._entropy, stream._spawn_key, stream._key, stream._gen = entropy, spawn_key, key, None
        return stream

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            if self._key is None:
                self._key = _keys_of([_entropy_words(self._entropy, self._spawn_key)])[0]
            self._gen = np.random.Generator(np.random.Philox(_key_seed_type()(self._key)))
        return self._gen

    def children(self, keys: Iterable[int]) -> list["RngStream"]:
        """The key-th independent sub-stream of this stream for each key, keyed in one pass."""
        keys = list(keys)
        for key in keys:
            if isinstance(key, bool) or not isinstance(key, (int, np.integer)) or key < 0:
                raise ValueError(f"child key must be a non-negative integer, got {key!r}")
        prefix = _entropy_words(self._entropy, self._spawn_key)
        spawn_keys = [self._spawn_key + (int(key),) for key in keys]
        philox = _keys_of([prefix + _words(sk[-1:]) for sk in spawn_keys])
        return [RngStream._keyed(self._entropy, sk, k) for sk, k in zip(spawn_keys, philox)]

    def child(self, key: int) -> "RngStream":
        """Derive the key-th independent sub-stream of this stream."""
        return self.children([key])[0]

    def __repr__(self):
        return f"RngStream(entropy={self._entropy}, spawn_key={self._spawn_key})"


def make_stream(spec: SeedSpec) -> RngStream:
    """Create the stream addressed by ``spec``; a pure function of it."""
    return RngStream((spec.base_seed, spec.stream_id))


def substream_id(cell: int, replication: int, purpose: Purpose) -> int:
    """Pack (cell, replication, purpose) into one stream id.

    The packing is injective: 24 bits of cell index, 37 bits of
    replication index, 3 bits of purpose tag. Documented here because
    the layout must stay fixed: the harness's population and figure
    streams, rep_streams' keys, and the benchmark's rebuild of the
    populations (bench/child.py) all assume it.
    """
    cell = int(cell)
    replication = int(replication)
    purpose = Purpose(purpose)
    if not 0 <= cell < 2**_CELL_BITS:
        raise ValueError(f"cell index out of range: {cell}")
    if not 0 <= replication < 2**_REPLICATION_BITS:
        raise ValueError(f"replication index out of range: {replication}")
    return (
        (cell << (_REPLICATION_BITS + _PURPOSE_BITS))
        | (replication << _PURPOSE_BITS)
        | int(purpose)
    )


_REP_PURPOSES = (Purpose.SAMPLING, Purpose.AMPUTATION, Purpose.IMPUTATION)


def rep_streams(
    base_seed: int, cell: int, first: int, last: int
) -> tuple[list[RngStream], list[RngStream], list[RngStream]]:
    """The sampling, amputation and imputation streams of replications
    first..last of a cell, keyed in one pass.

    Stream i of each list is make_stream(SeedSpec(base_seed,
    substream_id(cell, first + i, purpose))); the ids of first and last
    are checked as substream_id and SeedSpec check them.
    """
    for t in (first, last):
        SeedSpec(base_seed, substream_id(cell, t, _REP_PURPOSES[-1]))
    seed, base = int(base_seed), int(cell) << (_REPLICATION_BITS + _PURPOSE_BITS)
    ids = [base | t << _PURPOSE_BITS | p for p in _REP_PURPOSES for t in range(first, last + 1)]
    # the entropy rows are [seed words, id low word, id high word] padded
    # to the pool: an id below 2**32 is one word, and its zero high word is
    # the pool's zero padding
    seed_words = _words((seed,))
    words = np.zeros((len(ids), _POOL), dtype=np.uint32)
    words[:, :len(seed_words)] = seed_words
    packed = np.array(ids, dtype=np.uint64)
    words[:, len(seed_words)] = packed & np.uint64(_MASK32)
    words[:, len(seed_words) + 1] = packed >> np.uint64(32)
    keys = _philox_keys(words)
    streams = [RngStream._keyed((seed, i), (), key) for i, key in zip(ids, keys)]
    k = last - first + 1
    return streams[:k], streams[k:2 * k], streams[2 * k:]
