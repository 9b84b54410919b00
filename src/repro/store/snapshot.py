"""Binary index snapshots: cold-start by load instead of rebuild.

A snapshot persists a :class:`~repro.datasets.collection.SetCollection`
*together with its derived artifacts* so that ``repro serve`` starts by
deserializing buffers instead of re-tokenizing, re-embedding, and
re-indexing:

* the **token table** (the sorted vocabulary ``D``) and **set names**;
* **set memberships** as token-id arrays (one shared ``str`` object per
  vocabulary token instead of one per membership, which alone roughly
  halves collection-build time against JSON);
* the **inverted-index postings** (``token -> ascending set ids``) in
  flat CSR arrays, adopted verbatim by
  :meth:`~repro.index.inverted.InvertedIndex.from_csr`;
* optionally the **vector substrate**: the unit-normalized embedding
  matrix rows for the token table, adopted by
  :meth:`~repro.embedding.provider.VectorStore.from_state` — skipping
  the per-token embedding pass that dominates cold start.

Layout (all integers little-endian)::

    magic "RKOSNAP1" | u32 manifest_len | manifest JSON
    repeated sections: u32 name_len | name | u64 payload_len | payload

The manifest carries the format version, a fingerprint of the substrate
configuration (so a server never silently pairs a snapshot with the
wrong similarity space), a SHA-256 checksum over every section payload,
and shape counts for :func:`inspect_snapshot`. Writes go through a
temporary file + ``os.replace`` so a crashed save never leaves a torn
snapshot behind.

**Loading is zero-copy.** :func:`load_snapshot` walks the section
headers recording offsets, then serves every array section as a
read-only ``np.memmap`` view over the file — the membership, posting,
and embedding-matrix payloads never land on the Python heap, N
processes serving the same snapshot share one page-cache copy, and the
Python-object materializations (per-set frozensets via
:class:`SnapshotSetCollection`, the postings dict) are lazy properties
built only where object semantics are actually needed. See
``docs/store.md`` for the lifetime rules.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from repro.datasets.collection import SetCollection
from repro.errors import SnapshotError
from repro.index.inverted import InvertedIndex

MAGIC = b"RKOSNAP1"
FORMAT_VERSION = 2

#: Chunk size for streamed checksum verification / section reads.
_CHUNK_BYTES = 4 << 20

#: Conventional snapshot file extensions (the CLI loader sniffs these).
SNAPSHOT_SUFFIXES = (".snap", ".snapshot")

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


@dataclass(frozen=True)
class SnapshotManifest:
    """The self-describing header of one snapshot file."""

    format_version: int
    checksum: str
    fingerprint: str
    num_sets: int
    num_tokens: int
    total_memberships: int
    total_postings: int
    substrate: dict[str, Any] | None
    #: WAL-compaction handshake (see :mod:`repro.store.wal`): the log
    #: generation this snapshot folded records from, and how many of
    #: that generation's leading records it contains. None for
    #: snapshots written outside a compaction.
    wal_generation: int | None = None
    wal_applied: int = 0

    def to_obj(self) -> dict[str, Any]:
        obj = {
            "format_version": self.format_version,
            "checksum": self.checksum,
            "fingerprint": self.fingerprint,
            "num_sets": self.num_sets,
            "num_tokens": self.num_tokens,
            "total_memberships": self.total_memberships,
            "total_postings": self.total_postings,
            "substrate": self.substrate,
        }
        if self.wal_generation is not None:
            obj["wal_generation"] = self.wal_generation
            obj["wal_applied"] = self.wal_applied
        return obj

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "SnapshotManifest":
        try:
            wal_generation = obj.get("wal_generation")
            return cls(
                format_version=int(obj["format_version"]),
                checksum=str(obj["checksum"]),
                fingerprint=str(obj["fingerprint"]),
                num_sets=int(obj["num_sets"]),
                num_tokens=int(obj["num_tokens"]),
                total_memberships=int(obj["total_memberships"]),
                total_postings=int(obj["total_postings"]),
                substrate=obj.get("substrate"),
                wal_generation=(
                    None if wal_generation is None else int(wal_generation)
                ),
                wal_applied=int(obj.get("wal_applied", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot manifest: {exc}") from exc


def substrate_fingerprint(substrate: dict[str, Any] | None) -> str:
    """Stable hash of the substrate configuration + format version."""
    canonical = json.dumps(
        {"format": FORMAT_VERSION, "substrate": substrate}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _encode_strings(values: Sequence[str]) -> bytes:
    """Columnar string section: ``[count][u32 lengths][utf8 blob]``.

    The length table lives up front (not interleaved with the bytes) so
    a loader can index every entry with one vectorized cumsum and decode
    individual strings on demand — see :class:`LazyStrings`.
    """
    encoded = [value.encode("utf-8") for value in values]
    lengths = np.asarray([len(raw) for raw in encoded], dtype="<u4")
    return _U32.pack(len(encoded)) + lengths.tobytes() + b"".join(encoded)


class LazyStrings(Sequence[str]):
    """A string table decoded per entry, on demand.

    Wraps a columnar string section (``bytes`` or a ``uint8`` array — a
    read-only memmap slice on the zero-copy load path). Construction
    costs one cumsum over the length table; the blob itself is never
    copied wholesale, so a million-name snapshot holds an offsets array
    instead of a million heap strings. Entries decode on access, which
    the serving path only does for the handful of names a top-k answer
    actually returns.
    """

    __slots__ = ("_blob", "_offsets")

    def __init__(self, payload) -> None:
        arr = (
            payload
            if isinstance(payload, np.ndarray)
            else np.frombuffer(payload, dtype="<u1")
        )
        if arr.size < 4:
            raise SnapshotError("string section too short")
        (count,) = _U32.unpack(bytes(arr[:4]))
        table_end = 4 + 4 * count
        if table_end > arr.size:
            raise SnapshotError("string section length table out of bounds")
        lengths = arr[4:table_end].view("<u4")
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if table_end + int(offsets[-1]) != arr.size:
            raise SnapshotError("string section size mismatch")
        self._blob = arr[table_end:]
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> str:
        offsets = self._offsets
        count = len(offsets) - 1
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(index)
        start, end = int(offsets[index]), int(offsets[index + 1])
        return bytes(self._blob[start:end]).decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        return iter(self.tolist())

    def tolist(self) -> list[str]:
        """Every entry, decoded in bulk (eager materialization,
        name->id map builds): one transient copy and one decode of the
        blob instead of a million tiny memmap reads. The decoded text
        is sliced by the byte offsets when byte and code-point lengths
        agree (pure ASCII); otherwise entries decode one by one."""
        blob = self._blob.tobytes()
        offsets = self._offsets.tolist()
        text = blob.decode("utf-8")
        if len(text) == len(blob):
            return [text[a:b] for a, b in zip(offsets, offsets[1:])]
        return [
            blob[a:b].decode("utf-8") for a, b in zip(offsets, offsets[1:])
        ]


def _decode_strings(payload) -> list[str]:
    return LazyStrings(payload).tolist()


def save_snapshot(
    path: str | Path,
    collection: SetCollection,
    *,
    store=None,
    substrate: dict[str, Any] | None = None,
    wal_generation: int | None = None,
    wal_applied: int = 0,
) -> SnapshotManifest:
    """Serialize ``collection`` (+ optional vector ``store``) to ``path``.

    Set ids are densified to 0..len-1 in current id order, so snapshotting
    a mutated :class:`~repro.store.mutable.MutableSetCollection` folds its
    tombstones away — this is exactly what WAL compaction relies on.
    ``wal_generation``/``wal_applied`` stamp the compaction handshake
    into the manifest (see :func:`repro.store.wal.pending_records`).
    Returns the written manifest.
    """
    tokens = sorted(collection.vocabulary)
    token_to_id = {token: i for i, token in enumerate(tokens)}
    live_ids = list(collection.ids())
    names = [collection.name_of(set_id) for set_id in live_ids]

    set_lengths = np.empty(len(live_ids), dtype="<u4")
    member_ids: list[int] = []
    postings: list[list[int]] = [[] for _ in tokens]
    for dense_id, set_id in enumerate(live_ids):
        members = sorted(token_to_id[t] for t in collection[set_id])
        set_lengths[dense_id] = len(members)
        member_ids.extend(members)
        for token_id in members:
            postings[token_id].append(dense_id)
    posting_lengths = np.asarray(
        [len(p) for p in postings], dtype="<u4"
    )
    posting_members = np.asarray(
        [set_id for posting in postings for set_id in posting], dtype="<u4"
    )

    sections: list[tuple[str, bytes]] = [
        ("tokens", _encode_strings(tokens)),
        ("names", _encode_strings(names)),
        ("set_lengths", set_lengths.tobytes()),
        ("set_members", np.asarray(member_ids, dtype="<u4").tobytes()),
        ("posting_lengths", posting_lengths.tobytes()),
        ("posting_members", posting_members.tobytes()),
    ]
    if store is not None:
        sections.append(("vectors", _encode_vectors(store, tokens)))

    digest = hashlib.sha256()
    for _, payload in sections:
        digest.update(payload)
    manifest = SnapshotManifest(
        format_version=FORMAT_VERSION,
        checksum=digest.hexdigest(),
        fingerprint=substrate_fingerprint(substrate),
        num_sets=len(live_ids),
        num_tokens=len(tokens),
        total_memberships=len(member_ids),
        total_postings=int(posting_lengths.sum()) if len(tokens) else 0,
        substrate=substrate,
        wal_generation=wal_generation,
        wal_applied=wal_applied,
    )

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    manifest_raw = json.dumps(manifest.to_obj(), sort_keys=True).encode("utf-8")
    with open(tmp, "wb") as handle:
        handle.write(MAGIC)
        handle.write(_U32.pack(len(manifest_raw)))
        handle.write(manifest_raw)
        for name, payload in sections:
            raw_name = name.encode("ascii")
            handle.write(_U32.pack(len(raw_name)))
            handle.write(raw_name)
            handle.write(_U64.pack(len(payload)))
            handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    # The rename is only durable once the *directory* entry is — a
    # power loss after replace but before the dirent reaches disk
    # could resurrect the old snapshot beside an already-reset WAL.
    _fsync_directory(path.parent)
    return manifest


def _fsync_directory(directory: Path) -> None:
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


def _encode_vectors(store, tokens: list[str]) -> bytes:
    """Vector section: coverage mask over the token table + float32 rows
    (token-table order), so loading is two ``frombuffer`` calls."""
    mask = np.zeros(len(tokens), dtype="<u1")
    rows = []
    for i, token in enumerate(tokens):
        if token in store:
            mask[i] = 1
            rows.append(np.asarray(store.vector(token), dtype="<f4"))
    matrix = (
        np.stack(rows) if rows
        else np.zeros((0, store.dim), dtype="<f4")
    )
    header = json.dumps(
        {"rows": int(matrix.shape[0]), "dim": int(store.dim)},
        sort_keys=True,
    ).encode("utf-8")
    return (
        _U32.pack(len(header)) + header + mask.tobytes() + matrix.tobytes()
    )


def _read_exact(handle, count: int, what: str) -> bytes:
    raw = handle.read(count)
    if len(raw) != count:
        raise SnapshotError(f"truncated snapshot: short read in {what}")
    return raw


def read_manifest(handle) -> SnapshotManifest:
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise SnapshotError(
            "not a repro snapshot (bad magic; expected a file written by "
            "'repro index build')"
        )
    (manifest_len,) = _U32.unpack(_read_exact(handle, 4, "manifest length"))
    try:
        obj = json.loads(_read_exact(handle, manifest_len, "manifest"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"unreadable snapshot manifest: {exc}") from exc
    manifest = SnapshotManifest.from_obj(obj)
    if manifest.format_version != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format version "
            f"{manifest.format_version} (this build reads {FORMAT_VERSION})"
        )
    return manifest


def inspect_snapshot(path: str | Path) -> SnapshotManifest:
    """Read only the manifest — O(header), no payload deserialization."""
    with open(path, "rb") as handle:
        return read_manifest(handle)


class SnapshotSetCollection(SetCollection):
    """A :class:`SetCollection` view over snapshot CSR membership arrays.

    Per-set ``frozenset``s are built lazily on first access and cached —
    a loaded 1M-set snapshot holds two mapped arrays and a name list, not
    a million Python sets. The backing arrays may be ``np.memmap`` views,
    so every process serving the same snapshot shares one page-cache copy
    of the membership data.
    """

    def __init__(
        self,
        tokens: list[str],
        names: Sequence[str],
        set_lengths,
        set_members,
    ) -> None:
        self._tokens = tokens
        # May be a LazyStrings view — kept as-is so a million names stay
        # in the map until individually read.
        self._names = names
        # The token section is the sorted vocabulary; storing it as a
        # frozenset makes the ``vocabulary`` property's
        # ``frozenset(self._vocabulary)`` a same-object no-op.
        self._vocabulary: frozenset[str] = frozenset(tokens)
        self._set_lengths = set_lengths
        self._set_members = set_members
        self._set_offsets = np.zeros(len(names) + 1, dtype=np.int64)
        np.cumsum(set_lengths, out=self._set_offsets[1:])
        # Materialization cache; inherited methods that only need
        # len(self._sets) (ids, partition) work on the placeholders.
        self._sets: list[frozenset[str] | None] = [None] * len(names)

    def __getitem__(self, set_id: int) -> frozenset[str]:
        members = self._sets[set_id]
        if members is None:
            start = self._set_offsets[set_id]
            end = self._set_offsets[set_id + 1]
            tokens = self._tokens
            members = frozenset(
                tokens[tid]
                for tid in self._set_members[start:end].tolist()
            )
            self._sets[set_id] = members
        return members

    def __iter__(self):
        return (self[set_id] for set_id in range(len(self._sets)))

    def cardinality(self, set_id: int) -> int:
        return int(self._set_lengths[set_id])

    def stats(self):
        from repro.datasets.collection import CollectionStats

        num = len(self._sets)
        return CollectionStats(
            num_sets=num,
            max_size=int(self._set_lengths.max()) if num else 0,
            avg_size=float(self._set_lengths.mean()) if num else 0.0,
            num_unique_elements=len(self._vocabulary),
        )

    def subset(self, set_ids: Sequence[int]) -> SetCollection:
        return SetCollection(
            [self[i] for i in set_ids],
            names=[self._names[i] for i in set_ids],
        )


@dataclass
class LoadedSnapshot:
    """Everything a snapshot restores, ready to serve.

    ``token_index``/``sim`` are None when the snapshot carries no
    substrate description (build the substrate yourself, as for a plain
    JSON collection). ``tokens``/``set_lengths``/``set_members``/
    ``posting_lengths``/``posting_members`` are the raw id-table-aligned
    arrays of the file — read-only ``np.memmap`` views when loaded with
    ``mmap=True`` (the default), so they cost page cache, not heap, and
    every process mapping the same file shares one physical copy. The
    token table is the sorted vocabulary, so the postings sections are
    already the CSR layout the columnar engine indexes by, and
    :meth:`inverted_factory` adopts them without a Python rebuild.

    The Python-object materializations — per-set ``frozenset``s (via
    :attr:`collection`) and the ``postings`` dict-of-lists — are lazy
    cached properties, built only on paths that truly need objects
    (mutation overlay writes, JSON export, the baselines). The
    maps outlive the file handle ``load_snapshot`` opened: dropping the
    :class:`LoadedSnapshot` (and every array view derived from it)
    releases the mapping.
    """

    manifest: SnapshotManifest
    token_index: Any | None
    sim: Any | None
    tokens: list[str]
    names: Sequence[str]
    set_lengths: Any
    set_members: Any
    posting_lengths: Any
    posting_members: Any

    @cached_property
    def collection(self) -> SnapshotSetCollection:
        """Lazy collection view over the mapped membership arrays."""
        return SnapshotSetCollection(
            self.tokens, self.names, self.set_lengths, self.set_members
        )

    @cached_property
    def postings(self) -> dict[str, list[int]]:
        """``token -> ascending set ids`` as Python lists.

        Materialized on first access (JSON export, eager overlays,
        tests); the serving path never touches it — engines adopt the
        CSR arrays directly.
        """
        offsets = self.posting_offsets
        members = self.posting_members
        return {
            token: members[offsets[i]:offsets[i + 1]].tolist()
            for i, token in enumerate(self.tokens)
            if offsets[i + 1] > offsets[i]
        }

    @cached_property
    def posting_offsets(self) -> np.ndarray:
        """int64 CSR offsets over ``posting_members`` (from the
        per-token lengths; tiny relative to the members array)."""
        offsets = np.zeros(len(self.tokens) + 1, dtype=np.int64)
        np.cumsum(self.posting_lengths, out=offsets[1:])
        return offsets

    @cached_property
    def csr(self):
        """The full-collection int64 CSR posting view (one conversion,
        shared by every engine shard built from this snapshot)."""
        from repro.index.interning import CSRPostings

        return CSRPostings(
            offsets=self.posting_offsets,
            sets=np.ascontiguousarray(self.posting_members, dtype=np.int64),
        )

    def mutable(self):
        """A :class:`~repro.store.mutable.MutableSetCollection` overlay
        adopting the mapped CSR arrays — per-set and per-token Python
        objects materialize copy-on-write, so R×P cluster workers keep
        sharing the page-cache copy until they actually mutate."""
        from repro.store.mutable import MutableSetCollection

        return MutableSetCollection.from_snapshot(self)

    def inverted_factory(self):
        """Per-partition index factory reusing the loaded CSR arrays.

        The full-collection branch adopts the arrays verbatim; the
        partition branch filters them with one vectorized mask pass
        (:func:`~repro.index.interning.csr_restrict`) instead of a
        Python scan over every posting list.
        """
        from repro.index.interning import csr_restrict

        total = len(self.names)

        def build(set_ids: Sequence[int]) -> InvertedIndex:
            if len(set_ids) == total:
                return InvertedIndex.from_csr(self.tokens, self.csr)
            keep = np.zeros(total, dtype=bool)
            keep[np.asarray(set_ids, dtype=np.int64)] = True
            return InvertedIndex.from_csr(
                self.tokens, csr_restrict(self.csr, keep)
            )

        return build


def _walk_sections(
    handle,
    file_size: int,
    *,
    digest,
    keep: frozenset[str],
) -> tuple[dict[str, tuple[int, int]], dict[str, bytes]]:
    """Walk the section headers after the manifest.

    Returns ``{name: (offset, length)}`` spans plus the payload bytes of
    the ``keep`` sections. Payloads outside ``keep`` are streamed through
    ``digest`` in bounded chunks when verifying, or skipped with a seek
    (bounds-checked against ``file_size``, since seeking past EOF does
    not fail) when not.
    """
    spans: dict[str, tuple[int, int]] = {}
    payloads: dict[str, bytes] = {}
    while True:
        head = handle.read(4)
        if not head:
            break
        if len(head) != 4:
            raise SnapshotError(
                "truncated snapshot: short read in section header"
            )
        (name_len,) = _U32.unpack(head)
        name = _read_exact(handle, name_len, "section name").decode("ascii")
        (payload_len,) = _U64.unpack(
            _read_exact(handle, 8, "section length")
        )
        offset = handle.tell()
        if offset + payload_len > file_size:
            raise SnapshotError(
                f"truncated snapshot: short read in section {name}"
            )
        spans[name] = (offset, payload_len)
        wanted = name in keep
        if digest is None and not wanted:
            handle.seek(offset + payload_len)
            continue
        chunks = bytearray() if wanted else None
        remaining = payload_len
        while remaining:
            chunk = handle.read(min(_CHUNK_BYTES, remaining))
            if not chunk:
                raise SnapshotError(
                    f"truncated snapshot: short read in section {name}"
                )
            remaining -= len(chunk)
            if digest is not None:
                digest.update(chunk)
            if chunks is not None:
                chunks += chunk
        if chunks is not None:
            payloads[name] = bytes(chunks)
    return spans, payloads


def verify_snapshot_checksum(path: str | Path) -> SnapshotManifest:
    """Stream-hash every section payload against the manifest checksum.

    O(file size) I/O, O(chunk) memory — no deserialization. The cluster
    coordinator runs this once per snapshot so that workers (and every
    replica) can bootstrap with ``verify=False`` instead of N processes
    re-hashing the same file. Returns the verified manifest; raises
    :class:`~repro.errors.SnapshotError` on corruption.
    """
    with open(path, "rb") as handle:
        manifest = read_manifest(handle)
        file_size = os.fstat(handle.fileno()).st_size
        digest = hashlib.sha256()
        _walk_sections(handle, file_size, digest=digest, keep=frozenset())
    if digest.hexdigest() != manifest.checksum:
        raise SnapshotError(
            "snapshot checksum mismatch: file is corrupt or was modified"
        )
    return manifest


_REQUIRED_SECTIONS = (
    "tokens", "names", "set_lengths", "set_members",
    "posting_lengths", "posting_members",
)


def load_snapshot(
    path: str | Path, *, verify: bool = True, mmap: bool = True
) -> LoadedSnapshot:
    """Deserialize a snapshot written by :func:`save_snapshot`.

    With ``mmap=True`` (the default) the array sections become read-only
    ``np.memmap`` views over the file: nothing but the (small) token
    table is copied onto the heap — set names stay a
    :class:`LazyStrings` view decoded per access — cold start is
    O(tokens) instead of O(file), and concurrent loaders of the same
    file share one page-cache copy of the big sections. ``mmap=False`` reads the sections onto the
    heap (read-only ``frombuffer`` arrays) — same lazy semantics, private
    memory; useful for files on filesystems without mmap or as the
    comparison baseline.

    ``verify`` streams every section payload through SHA-256 against the
    manifest checksum in bounded chunks (cheap relative to the old eager
    deserialization, but still O(file); the cluster verifies once
    coordinator-side via :func:`verify_snapshot_checksum` and bootstraps
    workers with ``verify=False``).
    """
    path = Path(path)
    with open(path, "rb") as handle:
        manifest = read_manifest(handle)
        file_size = os.fstat(handle.fileno()).st_size
        digest = hashlib.sha256() if verify else None
        # The mapped path needs no heap payloads at all — even the
        # string tables are served lazily out of the map; the heap path
        # keeps every section as bytes for frombuffer.
        keep = (
            frozenset() if mmap
            else frozenset(s for s in (*_REQUIRED_SECTIONS, "vectors"))
        )
        spans, payloads = _walk_sections(
            handle, file_size, digest=digest, keep=keep
        )
    if digest is not None and digest.hexdigest() != manifest.checksum:
        raise SnapshotError(
            "snapshot checksum mismatch: file is corrupt or was modified"
        )
    missing = [name for name in _REQUIRED_SECTIONS if name not in spans]
    if missing:
        raise SnapshotError(f"snapshot missing sections: {missing}")

    if mmap:
        # One mapping for the whole file; every section array is a
        # read-only view into it. numpy keeps the mapping alive through
        # the views' .base chain, so the arrays outlive this function's
        # handle (which the with-block already closed).
        raw = np.memmap(path, dtype=np.uint8, mode="r")

        def section_array(name: str, dtype: str) -> np.ndarray:
            offset, length = spans[name]
            return raw[offset:offset + length].view(dtype)

        def section_bytes(name: str):
            offset, length = spans[name]
            return raw[offset:offset + length]
    else:
        def section_array(name: str, dtype: str) -> np.ndarray:
            return np.frombuffer(payloads[name], dtype=dtype)

        def section_bytes(name: str):
            return payloads[name]

    # Tokens are needed as real strings everywhere (substrate restore,
    # interning, postings keys) and the vocabulary is small — decode
    # eagerly. Names are one-per-set and only read for top-k answers and
    # mutations, so they stay a lazy view over the (possibly mapped)
    # section.
    tokens = _decode_strings(section_bytes("tokens"))
    names = LazyStrings(section_bytes("names"))
    try:
        set_lengths = section_array("set_lengths", "<u4")
        set_members = section_array("set_members", "<u4")
        posting_lengths = section_array("posting_lengths", "<u4")
        posting_members = section_array("posting_members", "<u4")
    except ValueError as exc:
        raise SnapshotError(f"malformed snapshot section: {exc}") from exc
    if len(names) != len(set_lengths):
        raise SnapshotError("snapshot name/set count mismatch")
    if len(posting_lengths) != len(tokens):
        raise SnapshotError("snapshot posting/token count mismatch")
    # Cheap vectorized shape checks (the old eager loader would have
    # tripped over these while slicing; the lazy one must reject the
    # file up front, even with verify=False).
    if int(set_lengths.sum()) != len(set_members):
        raise SnapshotError("snapshot set_members length mismatch")
    if int(posting_lengths.sum()) != len(posting_members):
        raise SnapshotError("snapshot posting_members length mismatch")

    token_index = sim = None
    if manifest.substrate is not None:
        if mmap and "vectors" in spans:
            offset, length = spans["vectors"]
            vectors = raw[offset:offset + length]
        else:
            vectors = payloads.get("vectors")
        token_index, sim = restore_substrate(
            manifest.substrate, tokens, vectors
        )
    return LoadedSnapshot(
        manifest=manifest,
        token_index=token_index,
        sim=sim,
        tokens=tokens,
        names=names,
        set_lengths=set_lengths,
        set_members=set_members,
        posting_lengths=posting_lengths,
        posting_members=posting_members,
    )


def _hashing_provider(substrate: dict[str, Any]):
    """The descriptor's embedding provider — one construction shared by
    every path that interprets a substrate description."""
    from repro.embedding.hashing import HashingEmbeddingProvider

    return HashingEmbeddingProvider(
        dim=int(substrate["dim"]),
        n_min=int(substrate.get("n_min", 3)),
        n_max=int(substrate.get("n_max", 5)),
        salt=str(substrate.get("salt", "hashing-embedding")),
    )


def build_substrate(substrate: dict[str, Any], vocabulary):
    """Derive ``(token_index, sim)`` from a descriptor + vocabulary.

    The from-scratch counterpart of :func:`restore_substrate` (no
    persisted artifacts): both substrate kinds are deterministic
    functions of (descriptor, vocabulary), so replicas built from the
    same inputs — in any process — stream identically. This is THE
    constructor behind the CLI's ``--jaccard``/``--dim`` flags and
    every cluster worker bootstrap; keep it the only copy, because the
    cluster's exactness contract dies quietly if two copies drift.
    """
    kind = substrate.get("kind")
    if kind == "hashing-cosine":
        from repro.embedding.provider import VectorStore
        from repro.index.vector_index import ExactCosineIndex
        from repro.sim.cosine import CosineSimilarity

        provider = _hashing_provider(substrate)
        store = VectorStore(provider, vocabulary)
        index = ExactCosineIndex(
            store, provider, batch_size=int(substrate.get("batch_size", 100))
        )
        return index, CosineSimilarity(provider, store=store)
    if kind == "qgram-jaccard":
        from repro.index.lsh import PrefixJaccardIndex
        from repro.sim.jaccard import QGramJaccardSimilarity

        sim = QGramJaccardSimilarity(q=int(substrate.get("q", 3)))
        index = PrefixJaccardIndex(
            vocabulary, alpha=float(substrate["alpha"]), similarity=sim
        )
        return index, sim
    raise SnapshotError(f"unknown substrate kind: {kind!r}")


def restore_substrate(
    substrate: dict[str, Any],
    tokens: list[str],
    vectors,
):
    """Rebuild the ``(token_index, sim)`` pair a snapshot describes.

    ``vectors`` is the raw vectors-section payload: ``bytes`` or a
    ``uint8`` array view (a read-only memmap slice on the zero-copy load
    path — the embedding matrix then stays a map, never a heap copy).
    ``hashing-cosine`` adopts the persisted matrix; ``qgram-jaccard``
    re-derives the prefix index from the vocabulary (its build is cheap
    q-gram bookkeeping, not an embedding pass, so it is not persisted —
    it goes through :func:`build_substrate` like every other
    from-scratch derivation).
    """
    kind = substrate.get("kind")
    if kind == "hashing-cosine":
        from repro.embedding.provider import VectorStore
        from repro.index.vector_index import ExactCosineIndex
        from repro.sim.cosine import CosineSimilarity

        provider = _hashing_provider(substrate)
        if vectors is None:
            raise SnapshotError(
                "snapshot declares a hashing-cosine substrate but has no "
                "vectors section"
            )
        vec = (
            vectors if isinstance(vectors, np.ndarray)
            else np.frombuffer(vectors, dtype="<u1")
        )
        (header_len,) = _U32.unpack(bytes(vec[:4]))
        header = json.loads(bytes(vec[4:4 + header_len]))
        rows, dim = int(header["rows"]), int(header["dim"])
        if dim != provider.dim:
            raise SnapshotError(
                f"snapshot matrix dim {dim} != substrate dim {provider.dim}"
            )
        mask_off = 4 + header_len
        mask = vec[mask_off:mask_off + len(tokens)]
        try:
            matrix = (
                vec[mask_off + len(tokens):].view("<f4").reshape(rows, dim)
            )
        except ValueError as exc:
            raise SnapshotError(
                f"snapshot vector matrix shape mismatch: {exc}"
            ) from exc
        covered = [t for t, m in zip(tokens, mask.tolist()) if m]
        if len(covered) != rows:
            raise SnapshotError("snapshot vector mask/row count mismatch")
        store = VectorStore.from_state(provider, covered, matrix)
        index = ExactCosineIndex(
            store, provider, batch_size=int(substrate.get("batch_size", 100))
        )
        return index, CosineSimilarity(provider, store=store)
    return build_substrate(substrate, tokens)
