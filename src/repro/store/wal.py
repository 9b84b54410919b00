"""The write-ahead update log and its apply/compact cycle.

Mutations arriving at a live server are appended here *before* they are
applied to the in-memory overlay, so a crashed process replays the log
over its last snapshot and resumes exactly where it stopped::

    snapshot (durable base)  +  WAL (ordered mutations)  =  live state

One record per line: a JSON object carrying a monotone sequence number,
the name-keyed :class:`~repro.store.mutation.Mutation` (its
:meth:`~repro.store.mutation.Mutation.to_obj` body), and a CRC-32 of the
body. Replay applies each record through
:func:`~repro.store.mutation.apply_mutation`, the function every live
write goes through. On replay a corrupt *final*
record is treated as a torn write and truncated (the classic WAL
contract — the mutation was never acknowledged); corruption anywhere
else raises :class:`~repro.errors.WalError`.

:func:`compact` folds the log back into a fresh snapshot: replay onto an
overlay, vacuum tombstones, write the densified state with
:func:`~repro.store.snapshot.save_snapshot` (atomic rename), then reset
the log. Ids are renumbered by compaction; the wire protocol and the WAL
therefore address sets by *name*, which survives it.

Compaction is **crash-atomic**: the snapshot write is fsync'd, renamed
into place, and the containing directory fsync'd, so a crash leaves
either the old or the new snapshot — never a torn one. The window
*between* the snapshot rename and the log reset is covered by a
**generation handshake**: the new snapshot's manifest records the log's
``generation`` and how many of its records were folded in
(``wal_applied``), and :meth:`WriteAheadLog.reset` bumps the generation
(as a durable header line, written atomically). Recovery — and a
re-run of :func:`compact` itself — replays only
:func:`pending_records`: when the log's generation matches the
manifest's, the first ``wal_applied`` records are already inside the
snapshot and are skipped; any other generation replays in full. A crash
at *any* point therefore recovers to the same collection state, applied
exactly once.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.errors import InvalidParameterError, WalError
from repro.store.mutation import Mutation, apply_mutation


@dataclass(frozen=True)
class WalRecord:
    """One durable mutation."""

    seq: int
    op: str
    name: str
    tokens: tuple[str, ...] | None = None

    @property
    def mutation(self) -> Mutation:
        return Mutation(self.op, self.name, self.tokens)

    def body(self) -> dict[str, Any]:
        return {"seq": self.seq, **self.mutation.to_obj()}

    def to_line(self) -> str:
        body = self.body()
        body["crc"] = _crc(body)
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str) -> "WalRecord":
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WalError(f"unreadable WAL record: {exc}") from exc
        if not isinstance(obj, dict):
            raise WalError("WAL record must be a JSON object")
        crc = obj.pop("crc", None)
        if crc != _crc(obj):
            raise WalError("WAL record failed its CRC check")
        try:
            mutation = Mutation.from_obj(obj)
        except InvalidParameterError as exc:
            raise WalError(f"malformed WAL record: {exc}") from exc
        if not isinstance(mutation.ref, str):
            raise WalError("WAL records address sets by name")
        return cls(
            seq=int(obj["seq"]),
            op=mutation.op,
            name=mutation.ref,
            tokens=None if mutation.tokens is None
            else tuple(sorted(mutation.tokens)),
        )


def _crc(body: dict[str, Any]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(canonical.encode("utf-8")), "08x")


def _generation_header_line(generation: int) -> str:
    body: dict[str, Any] = {"gen": generation}
    body["crc"] = _crc({"gen": generation})
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _parse_generation_header(raw_line: bytes) -> int | None:
    """The generation a header line declares; None when the line is an
    ordinary record (or not a header at all — the caller then parses it
    as a record and surfaces the proper error)."""
    try:
        obj = json.loads(raw_line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(obj, dict) or "gen" not in obj or "op" in obj:
        return None
    crc = obj.pop("crc", None)
    if crc != _crc(obj):
        raise WalError("WAL generation header failed its CRC check")
    try:
        return int(obj["gen"])
    except (TypeError, ValueError) as exc:
        raise WalError("malformed WAL generation header") from exc


class WriteAheadLog:
    """An append-only log of insert/delete/replace operations.

    Parameters
    ----------
    path:
        Log file; created empty on first append if missing.
    fsync:
        Force every append to disk before acknowledging. Durability per
        mutation vs throughput — the benchmark serves either way.

    The log keeps one append handle open across mutations (opening the
    file per record costs more than writing it); :meth:`flush` forces
    buffered records down, :meth:`close` flushes and releases the
    handle, and the log is a context manager so serving stacks can
    guarantee both on the way out. A closed log transparently reopens
    on the next :meth:`append`.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._next_seq = 1
        self._handle = None
        #: Bumped by every :meth:`reset`; persisted as a header line so
        #: a snapshot manifest can name exactly which log epoch its
        #: ``wal_applied`` count refers to. 0 for a headerless log.
        self.generation = 0
        if self.path.exists():
            records, truncate_at = self._parse()
            if truncate_at is not None:
                # Repair now: a later append in 'a' mode would otherwise
                # concatenate onto the partial line, silently corrupting
                # the first acknowledged post-crash record. Truncating at
                # the durable prefix is a single metadata operation — a
                # crash mid-repair just leaves the same torn tail for
                # the next open (never touches acknowledged records).
                os.truncate(self.path, truncate_at)
            if records:
                self._next_seq = records[-1].seq + 1

    def _parse(self) -> tuple[list[WalRecord], int | None]:
        """Durable records, plus the byte offset to truncate a torn
        tail at (None when the file ends cleanly)."""
        if not self.path.exists():
            return [], None
        raw = self.path.read_bytes()
        raw_lines = raw.split(b"\n")
        records: list[WalRecord] = []
        offset = 0
        nonblank = [i for i, b in enumerate(raw_lines) if b.strip()]
        last_nonblank = nonblank[-1] if nonblank else -1
        first_nonblank = nonblank[0] if nonblank else -1
        for position, raw_line in enumerate(raw_lines):
            # +1 for the newline removed by split (absent on the final
            # fragment).
            line_bytes = len(raw_line) + (
                1 if position < len(raw_lines) - 1 else 0
            )
            if not raw_line.strip():
                offset += line_bytes
                continue
            if position == first_nonblank:
                generation = _parse_generation_header(raw_line)
                if generation is not None:
                    self.generation = generation
                    offset += line_bytes
                    continue
            try:
                record = WalRecord.from_line(
                    raw_line.decode("utf-8")
                )
            except WalError:
                if position == last_nonblank:
                    return records, offset  # torn tail: crash mid-append
                raise
            except UnicodeDecodeError as exc:
                if position == last_nonblank:
                    return records, offset  # tear mid multi-byte char
                raise WalError(
                    f"undecodable WAL record on line {position + 1}"
                ) from exc
            expected = records[-1].seq + 1 if records else record.seq
            if record.seq != expected:
                raise WalError(
                    f"WAL sequence gap: got {record.seq}, "
                    f"expected {expected}"
                )
            records.append(record)
            offset += line_bytes
        return records, None

    def records(self) -> list[WalRecord]:
        """All durable records, in sequence order.

        A corrupt or torn *final* line is dropped (the write was never
        acknowledged); earlier corruption or a sequence gap raises
        :class:`WalError`.
        """
        return self._parse()[0]

    def __len__(self) -> int:
        return len(self.records())

    def append(
        self, op: str, name: str, tokens: Iterable[str] | None = None
    ) -> WalRecord:
        """Durably record one mutation; returns the written record."""
        if not isinstance(name, str):
            raise InvalidParameterError("WAL records address sets by name")
        record = WalRecord(
            seq=self._next_seq,
            op=op,
            name=name,
            tokens=None if tokens is None else tuple(tokens),
        )
        line = record.to_line()  # validates: a refused record is not written
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        self._next_seq += 1
        return record

    def flush(self) -> None:
        """Force buffered records to the OS (and disk under ``fsync``)."""
        if self._handle is not None:
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush and release the append handle.

        Safe to call repeatedly; the next :meth:`append` reopens. The
        graceful-shutdown path of ``repro serve`` calls this after the
        scheduler drains so every acknowledged mutation is on disk
        before the process exits.
        """
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def reset(self) -> None:
        """Truncate the log (its contents are folded into a snapshot),
        bumping the durable generation.

        Atomic (tmp file + ``os.replace`` + directory fsync): a crash
        mid-reset leaves either the full old log — whose generation
        still matches the new snapshot's manifest, so recovery skips
        its folded records — or the fresh next-generation header.
        """
        self.close()
        self.generation += 1
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(_generation_header_line(self.generation) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        _fsync_directory(self.path.parent)
        self._next_seq = 1

    def replay_into(self, collection) -> int:
        """Apply every record to a mutable collection; returns the count."""
        return replay_pending(self, None, collection)


def _fsync_directory(directory: Path) -> None:
    """Make a rename in ``directory`` durable (no-op where directories
    cannot be opened, e.g. some network filesystems)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def pending_records(wal: WriteAheadLog, manifest) -> list[WalRecord]:
    """The records of ``wal`` not yet folded into the snapshot described
    by ``manifest`` (None = no snapshot: everything is pending).

    When the manifest's ``wal_generation`` matches the log's current
    generation, its first ``wal_applied`` records are already inside the
    snapshot — the compact that wrote it crashed before resetting the
    log — and replaying them again would double-apply. Any other
    generation (or a manifest that predates the handshake) replays in
    full.
    """
    records = wal.records()
    generation = getattr(manifest, "wal_generation", None)
    if generation is None or generation != wal.generation:
        return records
    applied = int(getattr(manifest, "wal_applied", 0) or 0)
    return records[applied:]


def replay_pending(wal: WriteAheadLog, manifest, collection) -> int:
    """Apply :func:`pending_records` to a mutable collection; returns
    the count (the crash-safe form of :meth:`WriteAheadLog.replay_into`
    for snapshot-backed serving). The token index is not extended here:
    the caller extends it once with the replayed vocabulary."""
    records = pending_records(wal, manifest)
    for record in records:
        apply_mutation(collection, record.mutation)
    return len(records)


def compact(
    snapshot_path: str | Path,
    wal: WriteAheadLog,
    *,
    output: str | Path | None = None,
    verify: bool = True,
):
    """Fold ``wal`` into the snapshot at ``snapshot_path``.

    Loads the snapshot, replays the log's *pending* records onto a
    mutable overlay (skipping any leading records a crashed earlier
    compact already folded in — see :func:`pending_records`), vacuums
    tombstoned postings, extends the vector substrate with any new
    vocabulary, and writes the densified state back (atomically, to
    ``output`` or in place) with the generation handshake in its
    manifest. The log is reset only after the new snapshot is durable.
    Returns the new manifest.
    """
    from repro.store.snapshot import load_snapshot, save_snapshot

    loaded = load_snapshot(snapshot_path, verify=verify)
    overlay = loaded.mutable()
    records = pending_records(wal, loaded.manifest)
    for record in records:
        apply_mutation(overlay, record.mutation)
    applied = len(records)
    overlay.vacuum()
    store = getattr(loaded.token_index, "store", None)
    if store is not None and hasattr(store, "extend"):
        store.extend(overlay.vocabulary)
    manifest = save_snapshot(
        output or snapshot_path,
        overlay,
        store=store,
        substrate=loaded.manifest.substrate,
        # The handshake: *total* records now inside the snapshot — the
        # skipped prefix of a crashed earlier compact plus this fold.
        wal_generation=wal.generation,
        wal_applied=len(wal.records()),
    )
    wal.reset()
    return manifest, applied
