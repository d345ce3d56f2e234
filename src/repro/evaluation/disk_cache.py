"""Persistent cross-run measurement cache.

Repeated experiment sweeps, benchmarks and ``repro report`` re-measure
identical (kernel, machine, seed, configuration) points across *process*
runs — the in-memory ledger of :class:`~repro.evaluation.simulator.
SimulatedTarget` cannot help there.  :class:`MeasurementDiskCache` is the
on-disk half: a directory of JSONL shards, one per **target fingerprint**
(a content hash over the region's cost-model signature, the machine, the
noise seed/level, the measurement protocol and the cache schema version),
each shard mapping canonical configuration keys to their measured
(:class:`Objectives`, :class:`Measurement`) pairs.

Design points:

* **correct by keying, not by trust** — a shard is only ever consulted by
  a target whose fingerprint derives from every input that influences a
  measurement, so two targets that could disagree can never share
  entries; bumping :data:`SCHEMA_VERSION` rotates every fingerprint and
  therefore invalidates all previous caches at once;
* **append-only JSONL** — commits append one line per configuration;
  torn or corrupt lines (crashed writer, concurrent appender) are
  skipped on load instead of poisoning the shard;
* **exact round-trip** — floats are serialized with ``repr``-fidelity
  JSON, so a configuration served from disk is bit-identical to the one
  that was measured, samples included.  The evaluation ledger still
  counts a disk-served configuration towards ``E`` (it is an evaluation
  the optimizer asked for), so reported E is identical between cold and
  warm caches; the engine's ``disk_hits`` counter reports the savings
  separately.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.evaluation.measurements import Measurement
from repro.evaluation.objectives import Objectives

__all__ = ["MeasurementDiskCache", "DEFAULT_CACHE_DIR", "SCHEMA_VERSION"]

#: bump to invalidate every existing on-disk cache entry
SCHEMA_VERSION = 1

#: default cache root used by the CLI's bare ``--cache-dir`` flag
DEFAULT_CACHE_DIR = "~/.cache/repro"


def _fingerprint(*parts: object) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


class _Shard:
    """One fingerprint's key → (Objectives, Measurement) store."""

    def __init__(self, path: Path, fingerprint: str, schema_version: int) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.schema_version = schema_version
        self._records: dict[tuple, tuple[Objectives, Measurement]] | None = None
        self._lock = threading.Lock()

    # -- load -----------------------------------------------------------

    def _load(self) -> dict[tuple, tuple[Objectives, Measurement]]:
        if self._records is not None:
            return self._records
        records: dict[tuple, tuple[Objectives, Measurement]] = {}
        try:
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        d = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn/corrupt line: skip, don't poison
                    if "schema" in d:
                        if d.get("fingerprint") != self.fingerprint:
                            return {}  # foreign header: treat as empty
                        continue
                    try:
                        key = tuple(int(v) for v in d["k"])
                        samples = tuple(float(s) for s in d["s"])
                        energy = d.get("e")
                        obj = Objectives(
                            time=float(d["v"]),
                            threads=key[-1],
                            energy=None if energy is None else float(energy),
                        )
                        records[key] = (
                            obj,
                            Measurement(value=float(d["v"]), samples=samples),
                        )
                    except (KeyError, TypeError, ValueError, IndexError):
                        continue
        except OSError:
            pass  # no shard yet
        self._records = records
        return records

    # -- queries --------------------------------------------------------

    def get(self, key: tuple) -> tuple[Objectives, Measurement] | None:
        with self._lock:
            return self._load().get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._load())

    # -- commits --------------------------------------------------------

    def put_many(
        self, items: list[tuple[tuple, Objectives, Measurement]]
    ) -> int:
        """Append *items* (skipping keys already present); returns the
        number of new entries written."""
        if not items:
            return 0
        with self._lock:
            records = self._load()
            fresh = [
                (key, obj, meas)
                for key, obj, meas in items
                if key not in records
            ]
            if not fresh:
                return 0
            lines = [
                json.dumps(
                    {
                        "k": list(key),
                        "v": meas.value,
                        "s": list(meas.samples),
                        "e": obj.energy,
                    }
                )
                for key, obj, meas in fresh
            ]
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as fh:
                if fh.tell() == 0:
                    header = {"schema": self.schema_version, "fingerprint": self.fingerprint}
                    lines.insert(0, json.dumps(header))
                else:
                    # a torn final line (a writer died mid-record) must not
                    # swallow the next record: start it on a line of its own
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        lines.insert(0, "")
                fh.write(("\n".join(lines) + "\n").encode("utf-8"))
            for key, obj, meas in fresh:
                records[key] = (obj, meas)
            return len(fresh)


class MeasurementDiskCache:
    """A directory of measurement shards shared by any number of targets.

    :param root: cache directory (created on first write); ``~`` expands.
    :param schema_version: override for tests — a different version
        rotates every fingerprint, modelling a format change.
    """

    def __init__(
        self, root: str | Path, schema_version: int = SCHEMA_VERSION
    ) -> None:
        self.root = Path(root).expanduser()
        self.schema_version = int(schema_version)
        self._shards: dict[str, _Shard] = {}
        self._lock = threading.Lock()  # guards _shards and the counters
        #: accounting across every attached target
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def shard_for(self, target_fingerprint: str) -> _Shard:
        """The shard a target with this fingerprint reads and writes."""
        fp = _fingerprint(
            "repro-measurement-cache", self.schema_version, target_fingerprint
        )
        with self._lock:
            shard = self._shards.get(fp)
            if shard is None:
                shard = _Shard(self.root / f"{fp}.jsonl", fp, self.schema_version)
                self._shards[fp] = shard
        return shard

    # -- target-facing API ----------------------------------------------

    def fetch(
        self, target_fingerprint: str, key: tuple
    ) -> tuple[Objectives, Measurement] | None:
        hit = self.shard_for(target_fingerprint).get(key)
        with self._lock:
            if hit is None:
                self.misses += 1
            else:
                self.hits += 1
        return hit

    def store_many(
        self,
        target_fingerprint: str,
        items: list[tuple[tuple, Objectives, Measurement]],
    ) -> int:
        written = self.shard_for(target_fingerprint).put_many(items)
        with self._lock:
            self.stores += written
        return written

    def summary(self) -> str:
        return (
            f"disk-cache root={self.root} hits={self.hits} "
            f"misses={self.misses} stores={self.stores}"
        )
