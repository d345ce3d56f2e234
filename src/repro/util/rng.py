"""Deterministic random-number plumbing.

Every stochastic component in the framework (GDE3, random search, the
measurement-noise model) takes an explicit seed or ``numpy.random.Generator``
so that experiments are reproducible run-to-run.  This module centralises the
seed-derivation scheme: child seeds are derived by hashing a parent seed with
a string key, which keeps independent components decorrelated without having
to thread generator objects through every call site.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["spawn_seed", "seed_hasher", "spawn_seed_from", "derive_rng", "content_hash"]

_MASK64 = (1 << 64) - 1


def spawn_seed(parent: int, *keys: object) -> int:
    """Derive a child seed from *parent* and a sequence of hashable keys.

    The derivation is stable across processes and Python versions (it uses
    blake2b rather than ``hash()``).  Distinct key tuples give independent
    64-bit seeds.
    """
    return int.from_bytes(seed_hasher(parent, *keys).digest(), "little")


def seed_hasher(parent: int, *keys: object) -> "hashlib.blake2b":
    """A reusable hash prefix for deriving many sibling seeds.

    ``spawn_seed(parent, a, b)`` rehashes the full ``(parent, a)`` prefix
    for every ``b``.  Batch callers (the simulator hashes one seed per
    (configuration, repetition) pair) instead hash the common prefix once
    and fork per suffix with :func:`spawn_seed_from`, which feeds blake2b
    the identical byte stream — the derived seeds are bit-identical to
    :func:`spawn_seed`, only the redundant prefix work disappears.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(parent) & _MASK64).encode())
    for key in keys:
        h.update(b"\x00")
        h.update(repr(key).encode())
    return h


def spawn_seed_from(prefix: "hashlib.blake2b", *keys: object) -> int:
    """Finish a :func:`seed_hasher` prefix with trailing *keys*.

    ``spawn_seed_from(seed_hasher(p, a), b) == spawn_seed(p, a, b)``.
    """
    h = prefix.copy()
    for key in keys:
        h.update(b"\x00")
        h.update(repr(key).encode())
    return int.from_bytes(h.digest(), "little")


def content_hash(*parts: object) -> str:
    """Hex blake2b-128 digest of each part's ``repr``, each followed by a NUL
    byte: the content fingerprint of cost models, targets and disk-cache
    shards (every repr fed to it must be deterministic)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def derive_rng(parent: int | np.random.Generator | None, *keys: object) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` derived from *parent* and *keys*.

    ``parent`` may be an integer seed, an existing generator (a child seed is
    drawn from it), or ``None`` for OS entropy.
    """
    if parent is None:
        return np.random.default_rng()
    if isinstance(parent, np.random.Generator):
        parent = int(parent.integers(0, _MASK64, dtype=np.uint64))
    return np.random.default_rng(spawn_seed(parent, *keys) if keys else int(parent) & _MASK64)
