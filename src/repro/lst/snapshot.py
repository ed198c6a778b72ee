"""Snapshot reconstruction: replaying manifests into table state.

A :class:`TableSnapshot` is the value of a table as of a sequence id: the
set of live data files, the current deletion vector (if any) of each, and
tombstones for files logically removed (needed by garbage collection and
retention accounting).  Replay is deterministic — the core invariant the
property tests exercise is that *checkpoint + tail replay ≡ full replay*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import FileFormatError
from repro.lst.actions import (
    Action,
    AddDataFile,
    AddDeletionVector,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDataFile,
    RemoveDeletionVector,
)


@dataclass(frozen=True)
class Tombstone:
    """A logically removed file, kept for retention-bounded history."""

    #: "data" or "dv"
    kind: str
    path: str
    name: str
    #: Commit timestamp of the transaction that removed the file.
    removed_at: float
    #: Sequence id of the manifest that removed the file.
    removed_seq: int


@dataclass
class TableSnapshot:
    """Immutable-by-convention reconstructed state of one table.

    ``apply_manifest`` returns a *new* snapshot, leaving the receiver
    untouched, so cached snapshots can be shared across readers at
    different sequence ids.
    """

    #: Sequence id of the last manifest applied (0 = empty table).
    sequence_id: int = 0
    #: Live data files by file name.
    files: Dict[str, DataFileInfo] = field(default_factory=dict)
    #: Current deletion vector per data file name.
    dvs: Dict[str, DeletionVectorInfo] = field(default_factory=dict)
    #: Logically removed files (within retention), newest last.
    tombstones: List[Tombstone] = field(default_factory=list)

    # -- derived metrics ----------------------------------------------------

    @property
    def live_rows(self) -> int:
        """Total rows after subtracting deletion-vector cardinalities."""
        deleted = sum(dv.cardinality for dv in self.dvs.values())
        return sum(f.num_rows for f in self.files.values()) - deleted

    @property
    def total_bytes(self) -> int:
        """Total bytes across live data files."""
        return sum(f.size_bytes for f in self.files.values())

    def dv_for(self, file_name: str) -> Optional[DeletionVectorInfo]:
        """The deletion vector currently attached to ``file_name``."""
        return self.dvs.get(file_name)

    def restricted_to(self, names: Iterable[str]) -> "TableSnapshot":
        """A view keeping only the files named in ``names`` and their DVs.

        Returns the receiver itself when no file is dropped.
        """
        names = set(names)
        files = {name: info for name, info in self.files.items() if name in names}
        if len(files) == len(self.files):
            return self
        return TableSnapshot(
            sequence_id=self.sequence_id,
            files=files,
            dvs={name: dv for name, dv in self.dvs.items() if name in files},
            tombstones=self.tombstones,
        )

    # -- replay ---------------------------------------------------------------

    def apply_manifest(
        self,
        actions: Iterable[Action],
        sequence_id: int,
        committed_at: float,
    ) -> "TableSnapshot":
        """Apply one committed manifest; returns the successor snapshot."""
        files = dict(self.files)
        dvs = dict(self.dvs)
        tombstones = list(self.tombstones)
        for action in actions:
            if isinstance(action, AddDataFile):
                if action.file.name in files:
                    raise FileFormatError(
                        f"manifest {sequence_id}: duplicate add of data file "
                        f"{action.file.name!r}"
                    )
                files[action.file.name] = action.file
            elif isinstance(action, RemoveDataFile):
                if files.pop(action.file.name, None) is None:
                    raise FileFormatError(
                        f"manifest {sequence_id}: remove of unknown data file "
                        f"{action.file.name!r}"
                    )
                # Removing a data file implicitly retires its DV as well.
                stale_dv = dvs.pop(action.file.name, None)
                tombstones.append(
                    Tombstone(
                        kind="data",
                        path=action.file.path,
                        name=action.file.name,
                        removed_at=committed_at,
                        removed_seq=sequence_id,
                    )
                )
                if stale_dv is not None:
                    tombstones.append(
                        Tombstone(
                            kind="dv",
                            path=stale_dv.path,
                            name=stale_dv.name,
                            removed_at=committed_at,
                            removed_seq=sequence_id,
                        )
                    )
            elif isinstance(action, RemoveDeletionVector):
                current = dvs.get(action.dv.target_file)
                if current is None or current.name != action.dv.name:
                    raise FileFormatError(
                        f"manifest {sequence_id}: remove of unknown DV "
                        f"{action.dv.name!r}"
                    )
                del dvs[action.dv.target_file]
                tombstones.append(
                    Tombstone(
                        kind="dv",
                        path=action.dv.path,
                        name=action.dv.name,
                        removed_at=committed_at,
                        removed_seq=sequence_id,
                    )
                )
            elif isinstance(action, AddDeletionVector):
                if action.dv.target_file not in files:
                    raise FileFormatError(
                        f"manifest {sequence_id}: DV targets unknown data file "
                        f"{action.dv.target_file!r}"
                    )
                if action.dv.target_file in dvs:
                    raise FileFormatError(
                        f"manifest {sequence_id}: data file "
                        f"{action.dv.target_file!r} already has a DV; the "
                        "manifest must remove it first"
                    )
                dvs[action.dv.target_file] = action.dv
            else:  # pragma: no cover - exhaustive over the Action union
                raise TypeError(f"unknown action {action!r}")
        return TableSnapshot(
            sequence_id=sequence_id, files=files, dvs=dvs, tombstones=tombstones
        )

    # -- serialization (for checkpoints) --------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (used by checkpoint files)."""
        return {
            "sequence_id": self.sequence_id,
            "files": [f.to_dict() for f in self.files.values()],
            "dvs": [dv.to_dict() for dv in self.dvs.values()],
            "tombstones": [
                {
                    "kind": t.kind,
                    "path": t.path,
                    "name": t.name,
                    "removed_at": t.removed_at,
                    "removed_seq": t.removed_seq,
                }
                for t in self.tombstones
            ],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "TableSnapshot":
        """Inverse of :meth:`to_dict`."""
        files = {
            item["name"]: DataFileInfo.from_dict(item) for item in raw["files"]
        }
        dvs = {
            item["target_file"]: DeletionVectorInfo.from_dict(item)
            for item in raw["dvs"]
        }
        tombstones = [
            Tombstone(
                kind=item["kind"],
                path=item["path"],
                name=item["name"],
                removed_at=item["removed_at"],
                removed_seq=item["removed_seq"],
            )
            for item in raw["tombstones"]
        ]
        return cls(
            sequence_id=raw["sequence_id"],
            files=files,
            dvs=dvs,
            tombstones=tombstones,
        )


def replay(
    manifests: Iterable[Tuple[int, float, List[Action]]],
    base: Optional[TableSnapshot] = None,
) -> TableSnapshot:
    """Replay ``(sequence_id, committed_at, actions)`` triples in order.

    ``base`` is an optional starting snapshot (e.g. a checkpoint); only
    manifests with a sequence id greater than the base's are applied.
    """
    snapshot = base if base is not None else TableSnapshot()
    for sequence_id, committed_at, actions in manifests:
        if sequence_id <= snapshot.sequence_id:
            continue
        snapshot = snapshot.apply_manifest(actions, sequence_id, committed_at)
    return snapshot
