"""The persistent storage subsystem.

Turns the in-memory repository into something a long-lived service can
cold-start and mutate::

    snapshot (binary, checksummed)  ->  fast cold start
        + write-ahead log           ->  durable mutations
        + mutable overlay           ->  incremental index maintenance

* :mod:`repro.store.snapshot` — binary collection + derived-artifact
  snapshots (token table, postings, vector substrate) with a manifest;
* :mod:`repro.store.mutation` — :class:`Mutation`, the one validated
  insert/delete/replace value, and :func:`apply_mutation`, the one
  function every write path applies it through;
* :mod:`repro.store.wal` — append-only log of mutations with replay and
  snapshot compaction;
* :mod:`repro.store.mutable` — :class:`MutableSetCollection`, the live
  overlay with delta postings, tombstones, and a monotone ``version``
  the serving stack keys caches on.

See ``docs/store.md`` for the format and lifecycle walk-through.
"""

from repro.store.mutable import DeltaInvertedIndex, MutableSetCollection
from repro.store.mutation import Mutation, apply_mutation
from repro.store.snapshot import (
    FORMAT_VERSION,
    SNAPSHOT_SUFFIXES,
    LoadedSnapshot,
    SnapshotManifest,
    SnapshotSetCollection,
    inspect_snapshot,
    load_snapshot,
    restore_substrate,
    save_snapshot,
    substrate_fingerprint,
    verify_snapshot_checksum,
)
from repro.store.wal import (
    WalRecord,
    WriteAheadLog,
    compact,
    pending_records,
    replay_pending,
)

__all__ = [
    "DeltaInvertedIndex",
    "FORMAT_VERSION",
    "LoadedSnapshot",
    "MutableSetCollection",
    "Mutation",
    "SNAPSHOT_SUFFIXES",
    "SnapshotManifest",
    "SnapshotSetCollection",
    "WalRecord",
    "WriteAheadLog",
    "apply_mutation",
    "compact",
    "inspect_snapshot",
    "load_snapshot",
    "pending_records",
    "replay_pending",
    "restore_substrate",
    "save_snapshot",
    "substrate_fingerprint",
    "verify_snapshot_checksum",
]
