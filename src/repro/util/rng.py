"""Deterministic random-number helpers.

The simulator must be fully reproducible: the same seed must produce the
same topology, the same propagation delays, and therefore the same
catchments.  Two kinds of stream serve that:

- :func:`derive_rng` gives an independent :class:`random.Random` per
  root seed and string label, so adding a new consumer of randomness
  does not perturb existing streams.  Topology, target, tunnel, churn,
  fault and audit streams use it: each draws many values in sequence.
- :class:`KeyedStream` is a stateless counter-based generator for
  per-probe noise, where every draw has its own address and there are
  hundreds of thousands of them per experiment.  Draw ``c`` of the
  stream keyed ``k`` is output ``c`` of splitmix64 seeded with ``k``,
  so a whole deployment's probes are one numpy expression.
"""

import hashlib
import random

import numpy as np

from repro.util.errors import ConfigurationError

_MASK_64 = (1 << 64) - 1

#: splitmix64's increment and output-mixer multipliers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

#: Counter layout, low bits first: draw index, sequence number, id.
DRAW_BITS = 4
SEQUENCE_BITS = 12
ID_BITS = 64 - SEQUENCE_BITS - DRAW_BITS


def stable_hash(*parts) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across runs.

    Python's built-in :func:`hash` is salted per process for strings, so
    it cannot be used for reproducible seeding.  This helper hashes the
    ``repr`` of each part with BLAKE2b instead.

    >>> stable_hash("a", 1) == stable_hash("a", 1)
    True
    >>> stable_hash("a", 1) != stable_hash("a", 2)
    True
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest(), "big") & _MASK_64


def make_rng(seed) -> random.Random:
    """Return a fresh :class:`random.Random` seeded with ``seed``.

    ``seed`` may be any hashable object; non-integers are reduced with
    :func:`stable_hash` first.
    """
    if not isinstance(seed, int):
        seed = stable_hash(seed)
    return random.Random(seed)


def derive_rng(root_seed, *labels) -> random.Random:
    """Derive an independent RNG stream from ``root_seed`` and labels.

    Two calls with the same arguments return identically-seeded streams;
    different labels give statistically independent streams.

    >>> a = derive_rng(7, "delays")
    >>> b = derive_rng(7, "delays")
    >>> a.random() == b.random()
    True
    """
    return random.Random(stable_hash(root_seed, *labels))


def _check_field(name: str, values: np.ndarray, bits: int) -> None:
    if values.size and (values.min() < 0 or values.max() >= 1 << bits):
        raise ConfigurationError(
            f"counter {name} out of range: must lie in [0, 2**{bits})"
        )


def pack_counters(ids, sequences, draw: int = 0) -> np.ndarray:
    """Pack ``(id, sequence, draw)`` into uint64 counters.

    ``ids`` and ``sequences`` broadcast against each other (pass
    ``ids[:, None]`` and a row of sequences for an id-by-sequence
    grid).  Each field has its own bit range, so distinct triples never
    share a counter.

    >>> int(pack_counters([1], [2], 3)[0]) == (1 << 16) | (2 << 4) | 3
    True
    """
    ids = np.asarray(ids, dtype=np.int64)
    sequences = np.asarray(sequences, dtype=np.int64)
    _check_field("id", ids, ID_BITS)
    _check_field("sequence", sequences, SEQUENCE_BITS)
    _check_field("draw", np.asarray(draw), DRAW_BITS)
    return (
        (ids.astype(np.uint64) << np.uint64(SEQUENCE_BITS + DRAW_BITS))
        | (sequences.astype(np.uint64) << np.uint64(DRAW_BITS))
        | np.uint64(draw)
    )


class KeyedStream:
    """A counter-based random stream keyed by ``(seed, *labels)``.

    The stream has no state: :meth:`bits` of a counter array is
    splitmix64 output number ``counter`` of the sequence seeded with
    the key, ``mix(key + (counter + 1) * golden)``.  Uniforms are built
    as :meth:`random.Random.random` builds them, from the top 53 bits;
    :meth:`gauss` is Box-Muller over draws ``c`` and ``c + 1``, and
    :meth:`expovariate` is the exponential's inverse CDF.
    """

    __slots__ = ("key",)

    def __init__(self, seed, *labels):
        self.key = np.uint64(stable_hash(seed, *labels))

    def bits(self, counters: np.ndarray) -> np.ndarray:
        z = self.key + (counters + np.uint64(1)) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
        return z ^ (z >> np.uint64(31))

    def random(self, counters: np.ndarray) -> np.ndarray:
        """Uniforms in [0, 1), multiples of 2**-53."""
        return (self.bits(counters) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def gauss(self, counters: np.ndarray, sigma: float) -> np.ndarray:
        """Zero-mean normals of standard deviation ``sigma``; each
        consumes draws ``counters`` and ``counters + 1``."""
        radius = np.sqrt(-2.0 * np.log(1.0 - self.random(counters)))
        return sigma * (radius * np.cos(2.0 * np.pi * self.random(counters + np.uint64(1))))

    def expovariate(self, counters: np.ndarray, mean: float) -> np.ndarray:
        """Exponentials of mean ``mean``."""
        return -np.log(1.0 - self.random(counters)) * mean
