"""Persistent cross-run measurement cache.

Repeated experiment sweeps, benchmarks and ``repro report`` re-measure
identical (kernel, machine, seed, configuration) points across *process*
runs, where the in-memory ledger of :class:`~repro.evaluation.simulator.
SimulatedTarget` cannot help.  :class:`MeasurementDiskCache` is the on-disk
half: a directory of JSONL shards, one per **target fingerprint** (a
content hash over the region's cost-model signature, the machine, the
noise seed/level, the measurement protocol and the cache schema version),
each mapping configuration keys to measured rows ``(time, samples, energy)``.

Design points:

* **correct by keying, not by trust** — a shard is only ever consulted by
  a target whose fingerprint derives from every input that influences a
  measurement, so two targets that could disagree can never share
  entries; bumping :data:`SCHEMA_VERSION` rotates every fingerprint and
  therefore invalidates all previous caches at once;
* **append-only JSONL, one line per commit** — a commit appends its batch
  as one JSON object of hex-encoded columns under an exclusive ``flock``,
  so concurrent processes never glue batches together; torn, corrupt or
  short lines (a crashed writer) are skipped on load instead of
  poisoning the shard;
* **shared between processes** — each batch lookup first checks the
  shard's size and parses only what other processes appended since, so
  a long-running tuner sees a sibling's measurements without reopening
  the cache;
* **exact round-trip** — the columns hold the raw float64 bits, so a
  disk-served configuration is bit-identical to the measured one, samples
  included.  It still counts towards ``E`` (the optimizer asked for it),
  so E is identical between cold and warm caches; the engine's
  ``disk_hits`` counter reports the savings separately.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np

from repro.evaluation.measurements import Measurement, Row, row_measurement, row_objectives
from repro.evaluation.objectives import Objectives
from repro.util.rng import content_hash

__all__ = ["MeasurementDiskCache", "DEFAULT_CACHE_DIR", "SCHEMA_VERSION"]

#: bump to invalidate every existing on-disk cache entry
SCHEMA_VERSION = 2

#: default cache root used by the CLI's bare ``--cache-dir`` flag
DEFAULT_CACHE_DIR = "~/.cache/repro"


def _hex(values, dtype: str) -> str:
    return np.array(values, dtype=dtype).tobytes().hex()


def _unhex(text: str, dtype: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(text), dtype)


def _batch_line(items: list[tuple[tuple, Row]]) -> str:
    """One shard line for a batch of ``(key, row)`` *items*: the row count
    and the hex of the little-endian int64 keys and float64 times, samples
    and energies (``"e"`` null when no row has one).  Raises for a key
    beyond int64, ragged keys or samples, or mixed None/float energies."""
    keys, rows = zip(*items)
    times, samples, energies = zip(*rows)
    nones = energies.count(None)
    if 0 < nones < len(energies):
        raise ValueError("a batch mixes rows with and without an energy")
    energy = "null" if nones else '"%s"' % _hex(energies, "<f8")
    return '{"n": %d, "k": "%s", "v": "%s", "s": "%s", "e": %s}' % (
        len(keys), _hex(keys, "<i8"), _hex(times, "<f8"), _hex(samples, "<f8"), energy
    )


def _batch_rows(d: dict) -> dict[tuple, Row]:
    """The ``key → row`` records of one batch line; raises KeyError,
    TypeError or ValueError unless every column holds ``n`` rows."""
    n = d["n"]
    keys = _unhex(d["k"], "<i8").reshape(n, -1)  # first: n must be a positive int
    if not keys.size:
        raise ValueError("a batch without keys")
    times = _unhex(d["v"], "<f8").reshape(n).tolist()
    samples = _unhex(d["s"], "<f8").reshape(n, -1).tolist()
    energies = [None] * n if d["e"] is None else _unhex(d["e"], "<f8").reshape(n).tolist()
    return dict(zip(map(tuple, keys.tolist()), zip(times, samples, energies)))


def _parse_line(line: bytes):
    """One line's JSON value, or None for a torn or corrupt line."""
    try:
        return json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None


def _parse_lines(lines: list[bytes]) -> list:
    """The JSON value of every line: one ``json.loads`` over the lines
    joined into an array, or line by line when that fails or does not give
    one value per line (a corrupt, torn or empty line).  A torn line leaves
    a string or a bracket open, so a bulk parse that gives one value per
    line is the line-by-line parse."""
    try:
        values = json.loads(b"[" + b",".join(lines) + b"]")
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        values = None
    if values is None or len(values) != len(lines):
        values = list(map(_parse_line, lines))
    return values


class _Shard:
    """One fingerprint's key → row store.

    The in-memory records mirror the file up to ``_offset`` (the end of the
    last complete line parsed).  Before a lookup, the shard compares the
    file's size with the size it last read or wrote and parses only the new
    tail, so appends by other processes become visible without reopening
    the cache; appends hold an exclusive ``flock`` so two processes never
    interleave their batches.
    """

    def __init__(self, path: Path, fingerprint: str, schema_version: int) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.schema_version = schema_version
        self._records: dict[tuple, Row] = {}
        self._offset = 0  # bytes parsed: the end of the last complete line
        self._size = 0  # the file's size when this process last read or wrote it
        self._foreign = False  # the header names another fingerprint
        self._dir_made = False  # the shard's directory exists (first write)
        self._lock = threading.Lock()

    # -- load -----------------------------------------------------------

    def _refresh(self) -> dict[tuple, Row]:
        """The records, first catching up with whatever was appended to the
        file since this process last read or wrote it."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return self._records  # no shard yet
        if size != self._size:
            with open(self.path, "rb") as fh:
                self._read_tail(fh)
        return self._records

    def _read_tail(self, fh) -> None:
        """Parse the complete lines from ``_offset`` to the end of *fh*."""
        fh.seek(0, os.SEEK_END)
        self._size = fh.tell()
        if self._size < self._offset:  # truncated or replaced: start over
            self._records.clear()
            self._offset = 0
            self._foreign = False
        fh.seek(self._offset)
        data = fh.read(self._size - self._offset)
        complete = data.rfind(b"\n") + 1  # a torn last line waits for its end
        self._offset += complete
        if self._foreign or not complete:
            return
        records = self._records
        for d in _parse_lines(data[:complete].splitlines()):
            if not isinstance(d, dict):
                continue  # torn/corrupt line: skip, don't poison
            if "schema" in d:
                if d.get("fingerprint") != self.fingerprint:
                    self._foreign = True  # foreign header: treat as empty
                    records.clear()
                    return
                continue
            try:
                records.update(_batch_rows(d))
            except (KeyError, TypeError, ValueError):
                continue

    # -- queries --------------------------------------------------------

    def get_many(self, keys) -> dict[tuple, Row]:
        """The stored rows among *keys*, in *keys* order."""
        with self._lock:
            records = self._refresh()
            return {key: records[key] for key in keys if key in records}

    def __len__(self) -> int:
        with self._lock:
            return len(self._refresh())

    # -- commits --------------------------------------------------------

    def put_many(self, items: list[tuple[tuple, Row]]) -> int:
        """Append ``(key, row)`` *items* (skipping keys already present,
        including keys another process appended meanwhile); returns the
        number of new entries written."""
        if not items:
            return 0
        # loaded on the first write, so runs without a cache never map it
        import fcntl

        with self._lock:
            if not self._dir_made:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._dir_made = True
            with open(self.path, "a+b") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
                self._read_tail(fh)
                fresh = [(key, row) for key, row in items if key not in self._records]
                if not fresh:
                    return 0
                line = _batch_line(fresh) + "\n"
                if self._size == 0:
                    header = {"schema": self.schema_version, "fingerprint": self.fingerprint}
                    line = json.dumps(header) + "\n" + line
                elif self._offset < self._size:
                    # a torn final line (a writer died mid-batch) must not
                    # swallow the next batch: start it on a line of its own
                    line = "\n" + line
                fh.write(line.encode())
                fh.flush()
                self._size = self._offset = fh.tell()
            self._records.update(fresh)
            return len(fresh)


class MeasurementDiskCache:
    """A directory of measurement shards shared by any number of targets.

    :param root: cache directory (created on first write); ``~`` expands.
    :param schema_version: override for tests — a different version
        rotates every fingerprint, modelling a format change.
    """

    def __init__(self, root: str | Path, schema_version: int = SCHEMA_VERSION) -> None:
        self.root = Path(root).expanduser()
        self.schema_version = int(schema_version)
        self._shards: dict[str, _Shard] = {}  # target fingerprint → its shard
        self._lock = threading.Lock()  # guards _shards and the counters
        self.hits = self.misses = self.stores = 0  # across every attached target

    def shard_for(self, target_fingerprint: str) -> _Shard:
        """The shard a target with this fingerprint reads and writes
        (memoised per target fingerprint: hashed once per cache)."""
        with self._lock:
            shard = self._shards.get(target_fingerprint)
            if shard is None:
                fp = content_hash(
                    "repro-measurement-cache", self.schema_version, target_fingerprint
                )
                shard = _Shard(self.root / f"{fp}.jsonl", fp, self.schema_version)
                self._shards[target_fingerprint] = shard
        return shard

    # -- target-facing API ----------------------------------------------

    def fetch_rows(self, target_fingerprint: str, keys) -> dict[tuple, Row]:
        """The cached rows among *keys* (in *keys* order): one shard
        lookup, one freshness check and one counter update per call."""
        hits = self.shard_for(target_fingerprint).get_many(keys)
        with self._lock:
            self.hits += len(hits)
            self.misses += len(keys) - len(hits)
        return hits

    def fetch_many(
        self, target_fingerprint: str, keys
    ) -> dict[tuple, tuple[Objectives, Measurement]]:
        """:meth:`fetch_rows` as ``(Objectives, Measurement)`` records."""
        return {
            key: (row_objectives(key, row), row_measurement(row))
            for key, row in self.fetch_rows(target_fingerprint, keys).items()
        }

    def fetch(
        self, target_fingerprint: str, key: tuple
    ) -> tuple[Objectives, Measurement] | None:
        return self.fetch_many(target_fingerprint, [key]).get(key)

    def store_many(self, target_fingerprint: str, items: list[tuple[tuple, Row]]) -> int:
        """Append the ``(key, row)`` *items* the shard lacks; returns how
        many were written."""
        written = self.shard_for(target_fingerprint).put_many(items)
        with self._lock:
            self.stores += written
        return written

    def summary(self) -> str:
        return (
            f"disk-cache root={self.root} hits={self.hits} "
            f"misses={self.misses} stores={self.stores}"
        )
