"""Deterministic, splittable random-number streams.

Every consumer of randomness (sampling, amputation, imputation, ...) owns
its own stream, addressed by a (base_seed, stream_id) pair. Streams are
backed by the counter-based Philox generator keyed through a SeedSequence,
so distinct ids give independent sequences, splitting is O(1), and results
are identical regardless of how work is scheduled across threads or
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_MAX_SEED = 2**64 - 1

# stream_id bit layout (see substream_id): purpose | replication | cell
_PURPOSE_BITS = 3
_REPLICATION_BITS = 37
_CELL_BITS = 24


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


class RngStream:
    """Generator state advanced only by draws on ``generator``.

    A stream is single-owner: never share one between concurrent tasks.
    ``child`` splits off an independent stream without consuming state
    from the parent, so trees of streams remain reproducible.
    """

    __slots__ = ("_entropy", "_spawn_key", "_gen")

    def __init__(self, entropy: tuple[int, ...], spawn_key: tuple[int, ...] = ()):
        self._entropy = tuple(int(v) for v in entropy)
        self._spawn_key = tuple(int(v) for v in spawn_key)
        seq = np.random.SeedSequence(entropy=list(self._entropy), spawn_key=self._spawn_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def child(self, key: int) -> "RngStream":
        """Derive the key-th independent sub-stream of this stream."""
        if isinstance(key, bool) or not isinstance(key, (int, np.integer)) or key < 0:
            raise ValueError(f"child key must be a non-negative integer, got {key!r}")
        return RngStream(self._entropy, self._spawn_key + (int(key),))

    def __repr__(self):
        return f"RngStream(entropy={self._entropy}, spawn_key={self._spawn_key})"


def make_stream(spec: SeedSpec) -> RngStream:
    """Create the stream addressed by ``spec``; a pure function of it."""
    return RngStream((spec.base_seed, spec.stream_id))


def substream_id(cell: int, replication: int, purpose: Purpose) -> int:
    """Pack (cell, replication, purpose) into one stream id.

    The packing is injective: 24 bits of cell index, 37 bits of
    replication index, 3 bits of purpose tag. Documented here because
    config files and the harness rely on the exact layout staying fixed.
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

