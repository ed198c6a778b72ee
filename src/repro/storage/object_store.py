"""The in-process object store.

Models the subset of OneLake/ADLS behaviour that the Polaris transaction
protocol relies on:

* flat namespace of blobs addressed by path, with prefix listing;
* immutable single-shot writes (``put``) for data files and checkpoints;
* block-blob staging (see :mod:`repro.storage.block_blob`) for manifest
  files that are written concurrently by many BE nodes;
* per-blob creation timestamps and creator metadata, which the garbage
  collector uses to distinguish orphans of aborted transactions from files
  of in-flight transactions (Section 5.3 of the paper);
* a latency model and fault injector shared by all requests;
* end-to-end integrity: every blob carries a crc32 checksum computed over
  the payload as written (:mod:`repro.storage.integrity`), armed
  corruption faults (bit-flip, torn-write, stale-read) hand readers wrong
  bytes, and :meth:`ObjectStore.get` verifies every served payload so a
  corrupt blob raises :class:`~repro.common.errors.IntegrityError` instead
  of returning bad rows.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.common.clock import SimulatedClock
from repro.common.config import StorageConfig
from repro.common.errors import (
    BlobAlreadyExistsError,
    BlobNotFoundError,
    BlockNotStagedError,
    EtagMismatchError,
    TransientStorageError,
)
from repro.storage import paths
from repro.storage.failures import FaultInjector
from repro.storage.integrity import (
    CHECKSUM_KEY,
    compute_checksum,
    verify_checksum,
)
from repro.storage.latency import LatencyModel
from repro.storage.metering import IoMeter

if TYPE_CHECKING:
    from repro.telemetry.facade import Telemetry


@dataclass
class Blob:
    """A committed blob: its bytes plus bookkeeping metadata."""

    path: str
    data: bytes
    etag: int
    created_at: float
    metadata: Dict[str, str] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Size of the committed content in bytes."""
        return len(self.data)


@dataclass
class _BlockState:
    """Staged and committed blocks backing one block blob."""

    staged: Dict[str, bytes] = field(default_factory=dict)
    committed: Dict[str, bytes] = field(default_factory=dict)
    committed_order: List[str] = field(default_factory=list)


class ObjectStore:
    """Deterministic in-memory object store with ADLS-like semantics."""

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        config: Optional[StorageConfig] = None,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.config = config or StorageConfig()
        self.meter = IoMeter()
        self.faults = FaultInjector(self.config)
        self.telemetry = telemetry
        self._latency = LatencyModel(self.clock, self.config)
        if telemetry is not None:
            self._latency.on_charge = telemetry.latency_charged
        self._blobs: Dict[str, Blob] = {}
        self._blocks: Dict[str, _BlockState] = {}
        #: Previous payload of each overwritten path, for stale-read faults.
        self._previous: Dict[str, bytes] = {}
        self._etag_counter = 0

    def _check(self, operation: str, path: str) -> None:
        """Fault-injection gate; injected faults are counted in telemetry."""
        try:
            self.faults.check(operation, path)
        except TransientStorageError:
            if self.telemetry is not None:
                self.telemetry.storage_fault(operation, path)
            raise

    def _account(
        self,
        operation: str,
        path: str,
        read_bytes: int = 0,
        written_bytes: int = 0,
        transfer_bytes: int = 0,
        charge: bool = True,
    ) -> None:
        """Charge latency and meter one request through every accounting sink.

        IO bytes flow into the meter and the metrics registry from here
        (and only here); simulated latency flows from the latency model's
        ``on_charge`` hook — each is booked exactly once.
        """
        cost = (
            self._latency.charge(transfer_bytes, operation) if charge else 0.0
        )
        self.meter.record(
            operation, read_bytes=read_bytes, written_bytes=written_bytes
        )
        if self.telemetry is not None:
            self.telemetry.storage_request(
                operation, path, read_bytes, written_bytes, cost
            )

    @contextmanager
    def latency_suspended(self) -> Iterator[None]:
        """Suspend per-request clock charging for the ``with`` body.

        The DCP wraps task execution in this: it accounts IO time inside
        per-node simulated timelines instead, so the shared clock must not
        also advance per request (that would serialize parallel IO).
        """
        self._latency.suspend()
        try:
            yield
        finally:
            self._latency.resume()

    # -- single-shot immutable blobs ---------------------------------------

    def put(
        self,
        path: str,
        data: bytes,
        metadata: Optional[Dict[str, str]] = None,
        overwrite: bool = False,
    ) -> Blob:
        """Create an immutable blob.

        Raises :class:`BlobAlreadyExistsError` if the path exists, unless
        ``overwrite`` is set (used only for republishing metadata files).
        The blob's checksum is computed over ``data`` as handed in — an
        armed write-side corruption persists *after* the checksum is
        stamped, exactly like at-rest rot under a real object store.
        """
        self._check("put", path)
        self._account("put", path, written_bytes=len(data), transfer_bytes=len(data))
        existing = self._blobs.get(path)
        if existing is not None and not overwrite:
            raise BlobAlreadyExistsError(path)
        meta = dict(metadata or {})
        meta.setdefault(CHECKSUM_KEY, compute_checksum(data))
        stored = self._apply_write_corruption("put", path, data)
        if existing is not None:
            self._previous[path] = existing.data
        blob = Blob(
            path=path,
            data=stored,
            etag=self._next_etag(),
            created_at=self.clock.now,
            metadata=meta,
        )
        self._blobs[path] = blob
        return blob

    def get(self, path: str) -> Blob:
        """Fetch a committed blob; raises :class:`BlobNotFoundError`.

        Every served payload is verified against the blob's recorded
        checksum — corrupt bytes (at rest or injected on this read) raise
        :class:`~repro.common.errors.IntegrityError` rather than being
        returned.  A stale-read fault with no previous version to serve
        degrades to :class:`TransientStorageError` (the request sees "not
        yet visible" and retries harmlessly).
        """
        self._check("get", path)
        blob = self._blobs.get(path)
        if blob is None:
            raise BlobNotFoundError(path)
        served = blob
        kind = self.faults.corruption_for("get", path)
        if kind is not None:
            if self.telemetry is not None:
                self.telemetry.integrity_corruption(kind, "get", path)
            if kind == "stale_read":
                previous = self._previous.get(path)
                if previous is None:
                    raise TransientStorageError(
                        f"stale read: {path} not yet visible on this replica"
                    )
                # The stale payload under the *current* metadata: the
                # checksum mismatch below is what detection looks like.
                served = Blob(
                    path=blob.path,
                    data=previous,
                    etag=blob.etag,
                    created_at=blob.created_at,
                    metadata=blob.metadata,
                )
            else:
                served = Blob(
                    path=blob.path,
                    data=self.faults.corrupt_payload(kind, path, blob.data),
                    etag=blob.etag,
                    created_at=blob.created_at,
                    metadata=blob.metadata,
                )
        self._account("get", path, read_bytes=served.size, transfer_bytes=served.size)
        verify_checksum(
            path,
            served.data,
            served.metadata.get(CHECKSUM_KEY),
            telemetry=self.telemetry,
        )
        return served

    def head(self, path: str) -> Blob:
        """Fetch blob metadata without charging a transfer cost."""
        self._check("head", path)
        self._account("head", path)
        blob = self._blobs.get(path)
        if blob is None:
            raise BlobNotFoundError(path)
        return blob

    def exists(self, path: str) -> bool:
        """Whether a committed blob exists at ``path``."""
        self._account("head", path, charge=False)
        return path in self._blobs

    def delete(self, path: str, if_etag: Optional[int] = None) -> None:
        """Delete a committed blob (idempotent for missing paths)."""
        self._check("delete", path)
        self._account("delete", path)
        blob = self._blobs.get(path)
        if blob is None:
            return
        if if_etag is not None and blob.etag != if_etag:
            raise EtagMismatchError(path)
        del self._blobs[path]
        self._blocks.pop(path, None)
        self._previous.pop(path, None)

    def list(self, prefix: str = "") -> Iterator[Blob]:
        """Iterate committed blobs whose path starts with ``prefix``."""
        self._check("list", prefix)
        self._account("list", prefix)
        for path in sorted(self._blobs):
            if path.startswith(prefix):
                yield self._blobs[path]

    # -- block blob API (manifest files) ------------------------------------

    def stage_block(self, path: str, block_id: str, data: bytes) -> None:
        """Stage a named block against ``path`` without making it visible.

        Multiple writers (BE nodes) stage blocks concurrently; staging never
        conflicts.  Staged blocks are invisible to :meth:`get` until a
        :meth:`commit_block_list` names them.
        """
        self._check("stage_block", path)
        self._account(
            "stage_block", path, written_bytes=len(data), transfer_bytes=len(data)
        )
        state = self._blocks.setdefault(path, _BlockState())
        state.staged[block_id] = data

    def staged_block_ids(self, path: str) -> List[str]:
        """Ids of currently staged (uncommitted) blocks for ``path``."""
        state = self._blocks.get(path)
        return sorted(state.staged) if state else []

    def commit_block_list(
        self,
        path: str,
        block_ids: List[str],
        metadata: Optional[Dict[str, str]] = None,
    ) -> Blob:
        """Atomically set the blob's content to the named blocks, in order.

        Each id may name a staged block or a previously committed block
        (this is how the FE *appends* to a transaction manifest across
        statements: it re-commits the old ids plus the new ones).  All
        staged blocks not named are discarded — exactly the property that
        lets the DCP restart failed tasks without corrupting the manifest.
        """
        self._check("commit_block_list", path)
        state = self._blocks.setdefault(path, _BlockState())
        new_committed: Dict[str, bytes] = {}
        for block_id in block_ids:
            if block_id in state.staged:
                new_committed[block_id] = state.staged[block_id]
            elif block_id in state.committed:
                new_committed[block_id] = state.committed[block_id]
            else:
                raise BlockNotStagedError(f"{path}: block {block_id!r}")
        if len(set(block_ids)) != len(block_ids):
            raise BlockNotStagedError(f"{path}: duplicate block id in commit list")
        state.committed = new_committed
        state.committed_order = list(block_ids)
        state.staged = {}
        data = b"".join(new_committed[block_id] for block_id in block_ids)
        self._account("commit_block_list", path)
        existing = self._blobs.get(path)
        meta = dict(metadata or (existing.metadata if existing else {}))
        # Recommits change the content, so the checksum is always
        # recomputed (never inherited from the previous commit).
        meta[CHECKSUM_KEY] = compute_checksum(data)
        stored = self._apply_write_corruption("commit_block_list", path, data)
        if existing is not None:
            self._previous[path] = existing.data
        blob = Blob(
            path=path,
            data=stored,
            etag=self._next_etag(),
            created_at=existing.created_at if existing else self.clock.now,
            metadata=meta,
        )
        self._blobs[path] = blob
        return blob

    def committed_block_ids(self, path: str) -> List[str]:
        """The ordered block ids of the last commit for ``path``."""
        state = self._blocks.get(path)
        return list(state.committed_order) if state else []

    def staged_paths(self) -> List[str]:
        """Paths that currently hold staged (uncommitted) blocks.

        Restart recovery scavenges these: a staged block belonged to a
        writer that died before its commit-block-list, so it can never be
        legitimately named again.
        """
        return sorted(
            path for path, state in self._blocks.items() if state.staged
        )

    def discard_staged(self, path: str) -> int:
        """Drop all staged (uncommitted) blocks of ``path``; returns count.

        Committed content is untouched.  Management operation used by
        restart recovery — not subject to fault injection.
        """
        state = self._blocks.get(path)
        if state is None or not state.staged:
            return 0
        count = len(state.staged)
        state.staged = {}
        self._account("discard_staged", path)
        return count

    # -- integrity management ops -------------------------------------------
    #
    # Like :meth:`discard_staged`, these are management operations used by
    # the scrubber and tests — not subject to fault injection, so the
    # auditor never fights the chaos it is auditing.

    def verify(self, path: str, expected: Optional[str] = None) -> Optional[str]:
        """Audit one blob in place; returns a problem string or ``None``.

        ``"missing"`` when no blob exists at ``path``; a checksum-mismatch
        description when the stored bytes do not match the recorded
        checksum; ``None`` when the blob is intact (or carries no checksum
        to check).  ``expected`` is an independently recorded checksum
        (e.g. mirrored into a manifest entry at commit time) checked *in
        addition* to the blob's own metadata — it catches a blob swapped
        wholesale for a different, internally consistent one.  Never raises
        and never mutates.
        """
        blob = self._blobs.get(path)
        if blob is None:
            return "missing"
        self._account("verify", path, read_bytes=blob.size)
        actual = compute_checksum(blob.data)
        recorded = blob.metadata.get(CHECKSUM_KEY)
        if recorded and actual != recorded:
            return f"checksum mismatch (expected {recorded}, got {actual})"
        if expected and actual != expected:
            return (
                f"checksum mismatch (manifest records {expected}, "
                f"blob carries {actual})"
            )
        return None

    def damage(self, path: str, kind: str = "bit_flip") -> None:
        """Corrupt a stored blob in place (test hook for at-rest rot).

        The recorded checksum is left untouched, so the next verified read
        or scrub detects the damage.  Raises :class:`BlobNotFoundError`
        for a missing path.
        """
        blob = self._blobs.get(path)
        if blob is None:
            raise BlobNotFoundError(path)
        blob.data = self.faults.corrupt_payload(kind, path, blob.data)
        if self.telemetry is not None:
            self.telemetry.integrity_corruption(kind, "damage", path)

    def quarantine(self, path: str) -> str:
        """Move a corrupt blob into the quarantine namespace; returns its new path.

        The blob is never deleted: its bytes move to
        ``quarantine/<original path>`` for forensics, with the original
        checksum preserved as ``original_checksum`` and a fresh checksum
        over the (corrupt) bytes so forensic reads do not themselves raise.
        Block state and stale-read history for the path are dropped.
        Raises :class:`BlobNotFoundError` for a missing path.
        """
        blob = self._blobs.pop(path, None)
        if blob is None:
            raise BlobNotFoundError(path)
        self._blocks.pop(path, None)
        self._previous.pop(path, None)
        target = paths.quarantine_path(path)
        meta = dict(blob.metadata)
        original = meta.pop(CHECKSUM_KEY, "")
        if original:
            meta["original_checksum"] = original
        meta["quarantined_from"] = path
        meta[CHECKSUM_KEY] = compute_checksum(blob.data)
        self._account("quarantine", path, written_bytes=blob.size)
        self._blobs[target] = Blob(
            path=target,
            data=blob.data,
            etag=self._next_etag(),
            created_at=blob.created_at,
            metadata=meta,
        )
        return target

    # -- internals ----------------------------------------------------------

    def _apply_write_corruption(
        self, operation: str, path: str, data: bytes
    ) -> bytes:
        """Persist an armed write-side corruption (at-rest rot), if any."""
        kind = self.faults.corruption_for(operation, path)
        if kind is None:
            return data
        if self.telemetry is not None:
            self.telemetry.integrity_corruption(kind, operation, path)
        return self.faults.corrupt_payload(kind, path, data)

    def _next_etag(self) -> int:
        self._etag_counter += 1
        return self._etag_counter
