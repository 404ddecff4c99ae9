"""Versioned, integrity-checked model package store.

Layout under the root directory:

- ``<model_id>/<version>.lcmp``, one container file per stored version.
  A full package holds all its parameters. A delta version (what
  :func:`~lcmsim.models.apply_delta` returns) holds only its
  ``DeltaPackage``, whose header names its root, the full version of the
  same model whose parameters it corrects, by id, version and payload
  checksum. Chains are one deep: every delta maps its root's raw output.
- ``index.txt``, an append-only journal of entry lines. Each operation
  appends, in one write, the line of every entry it changed and then a
  ``commit`` marker. Reopening applies the complete groups in order, the
  last line per key winning, and cuts off a torn tail. An index with no
  marker at all was written whole by an earlier version and loads as one
  committed group. ``gc``, and a reopen that finds the journal several
  times longer than its entry count, compact it by an atomic rewrite
  (temp file, then rename).

A package file is written in place before its journal line, so a crash
between the two leaves an orphan file: reopening never loads it,
``verify_all`` lists it and ``gc`` deletes it. ``gc`` keeps a retired root
while a live delta version still needs it.

Descriptor lookups rank the input descriptors held since ``store()`` and
read no package (``closest_entry``). Every fetch re-reads and re-verifies
the files its package is built from: a full package's file against its
SHA-256 trailer; a delta version's file and its root's file, each against
its own trailer, the root's trailer against the checksum the delta names,
and the rebuilt package against the delta file's trailer.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from .container import CHECKSUM_LEN
from .errors import IntegrityError, NotFoundError, PairingError
from .kpi import DescriptorRows, InputDescriptor
from .kpi import descriptor_divergence  # noqa: F401 -- kept as a traced site (perfbench/layers.py)
from .models import DeltaPackage, ModelKind, ModelPackage, rebuild_delta_version, verify_package

COMMIT = "commit"  # journal line that ends each operation's group
COMPACT_RATIO = 4  # reopen compacts a journal this many times longer than its entries


@dataclass(frozen=True)
class RegistryEntry:
    model_id: str
    version: int
    kind: str
    functionality_tag: str
    associated_id: str
    status: str
    stored_at_slot: int
    # 0 for a full package; for a delta version, the version of the same
    # model whose full package it corrects.
    root_version: int = 0
    # Set by store(), never written to the index: None after a reload
    # until the first lookup that reads the package.
    input_descriptor: InputDescriptor | None = field(default=None, compare=False)


# index.txt columns in order, each with its parser.
_INDEX_FIELDS = (
    ("model_id", str), ("version", int), ("kind", str), ("functionality_tag", str),
    ("associated_id", str), ("status", str), ("stored_at_slot", int),
)


def _entry_line(entry: RegistryEntry) -> str:
    line = " ".join(f"{name}={getattr(entry, name)}" for name, _ in _INDEX_FIELDS)
    return f"{line} root_version={entry.root_version}" if entry.root_version else line


def _parse_entry_line(line: str) -> RegistryEntry:
    fields = {}
    for token in line.split(" "):
        key, sep, value = token.partition("=")
        if not sep:
            raise IntegrityError(f"malformed index line: {line!r}")
        fields[key] = value
    try:
        return RegistryEntry(**{name: parse(fields[name]) for name, parse in _INDEX_FIELDS},
                             root_version=int(fields.get("root_version", 0)))
    except KeyError as exc:
        raise IntegrityError(f"index line missing field {exc}: {line!r}") from exc
    except ValueError as exc:
        raise IntegrityError(f"bad index line {line!r}: {exc}") from None


def _write_atomic(path: Path, data: bytes) -> None:
    """Write to a temp file beside ``path``, then rename it over ``path``."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def pairing_ids(associated_id: str) -> set[str]:
    """Reference ids an artifact was trained against.

    A single-source model carries one id; a multi-vendor decoder
    carries every source id joined with commas.
    """
    ids = {part for part in associated_id.split(",") if part}
    return ids


def verify_pairing(encoder_desc, decoder_desc) -> bool:
    """True iff both sides share at least one training reference."""
    enc = pairing_ids(getattr(encoder_desc, "associated_id", "") or "")
    dec = pairing_ids(getattr(decoder_desc, "associated_id", "") or "")
    if not enc or not dec:
        raise PairingError("associated_id missing on one side of the pairing check")
    return bool(enc & dec)


class ModelRegistry:
    """Single-writer package store with descriptor-keyed retrieval.

    The journal is opened once, at the first write, and stays open until
    :meth:`close`; use the registry as a context manager.
    """

    INDEX_NAME = "index.txt"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._entries: dict[tuple[str, int], RegistryEntry] = {}
        self._journal = None  # the index opened for appending
        self._sealed = False  # the index ends in a commit marker
        # By kind: closest_entry's candidates, as (-version, model_id) tie-break
        # keys and descriptor rows; dropped whenever an entry changes.
        self._ranking: dict[str, tuple[list, DescriptorRows | None]] = {}
        self._load_index()

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # index journal

    def _index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def _load_index(self) -> None:
        path = self._index_path()
        if not path.exists():
            return
        data = path.read_bytes()
        pieces = data.split(b"\n")
        lines = pieces[:-1]  # pieces[-1] is unterminated: empty, or torn
        marks = [i for i, line in enumerate(lines) if line == COMMIT.encode()]
        if marks:  # lines after the last marker belong to a torn write
            committed = lines[: marks[-1]]
            length = sum(map(len, lines[: marks[-1] + 1])) + marks[-1] + 1
        else:  # an index written whole by an earlier version, or empty
            committed = lines
            length = len(data) - len(pieces[-1])
        applied = 0
        for raw in committed:
            line = raw.decode("utf-8", "replace").strip()
            if line and line != COMMIT:
                entry = _parse_entry_line(line)
                self._entries[(entry.model_id, entry.version)] = entry
                applied += 1
        self._sealed = bool(marks)
        if length < len(data):  # the next append must not follow a torn tail
            os.truncate(path, length)
        if applied > COMPACT_RATIO * len(self._entries):
            self._compact()

    def _commit(self, *changed: RegistryEntry) -> None:
        """Append the lines of the changed entries and a marker in one
        write, then apply them. An index not ending in a marker (new, or
        from an earlier version) is sealed first, so a torn first group is
        never taken for an index written whole."""
        lines = [_entry_line(entry) for entry in changed] + [COMMIT]
        if not self._sealed:
            lines.insert(0, COMMIT)
        if self._journal is None:
            self._journal = open(self._index_path(), "ab", buffering=0)
        self._journal.write("".join(f"{line}\n" for line in lines).encode("utf-8"))
        self._sealed = True
        for entry in changed:
            self._entries[(entry.model_id, entry.version)] = entry
        self._ranking.clear()

    def _compact(self) -> None:
        """Rewrite the journal as one group, the current line per entry."""
        lines = [_entry_line(self._entries[key]) for key in sorted(self._entries)] + [COMMIT]
        self.close()  # the rename replaces the file the handle appends to
        _write_atomic(self._index_path(), "".join(f"{line}\n" for line in lines).encode("utf-8"))
        self._sealed = True

    def package_path(self, model_id: str, version: int) -> Path:
        return self.root / model_id / f"{version}.lcmp"

    # core operations

    def store(self, package: ModelPackage, stored_at_slot: int = 0) -> tuple[str, int]:
        """Write the package's container file, then journal its entry.

        A delta version is stored as its delta container; its root must be
        a full package already stored under the same model id.
        """
        desc = package.descriptor
        key = (desc.model_id, desc.model_version)
        if key in self._entries:
            raise IntegrityError(f"{desc.model_id} v{desc.model_version} already stored")
        root_version = 0
        if package.root is not None:
            root_id, root_version, _ = package.root
            if root_id != desc.model_id or self._require(root_id, root_version).root_version:
                raise IntegrityError(
                    f"root {root_id} v{root_version} of {desc.model_id} v{desc.model_version} "
                    "is not a full package of the same model"
                )
        # The container trailer is the checksum that verify_package would
        # recompute from these same bytes.
        data = package.take_container_bytes()
        if data[-CHECKSUM_LEN:] != desc.payload_checksum:
            raise IntegrityError(
                f"checksum mismatch storing {desc.model_id} v{desc.model_version}"
            )
        path = self.package_path(*key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        self._commit(RegistryEntry(
            model_id=desc.model_id,
            version=desc.model_version,
            kind=package.kind.value,
            functionality_tag=desc.functionality_tag,
            associated_id=desc.associated_id,
            status="available",
            stored_at_slot=stored_at_slot,
            root_version=root_version,
            input_descriptor=desc.input_descriptor,
        ))
        return key

    def _read_file(self, model_id: str, version: int) -> bytes:
        try:
            return self.package_path(model_id, version).read_bytes()
        except FileNotFoundError:
            raise NotFoundError(f"package file missing for {model_id} v{version}") from None

    def _read_package(self, model_id: str, version: int) -> ModelPackage:
        """Read the full package stored for a key."""
        # read_container has checked the SHA-256 trailer against the body.
        package = ModelPackage.from_bytes(self._read_file(model_id, version))
        if package.descriptor.model_id != model_id or package.descriptor.model_version != version:
            raise IntegrityError(
                f"package file for {model_id} v{version} carries descriptor "
                f"{package.descriptor.model_id} v{package.descriptor.model_version}"
            )
        return package

    def _load(self, entry: RegistryEntry) -> ModelPackage:
        """The package an entry stores, a delta version rebuilt over its root."""
        if not entry.root_version:
            return self._read_package(entry.model_id, entry.version)
        data = self._read_file(entry.model_id, entry.version)
        delta = DeltaPackage.from_bytes(data)
        if (delta.base_model_id, delta.base_model_version + 1) != (entry.model_id, entry.version):
            raise IntegrityError(
                f"delta file for {entry.model_id} v{entry.version} carries the delta "
                f"after {delta.base_model_id} v{delta.base_model_version}"
            )
        package = rebuild_delta_version(self._read_package(entry.model_id, entry.root_version), delta)
        if package.descriptor.payload_checksum != data[-CHECKSUM_LEN:]:
            raise IntegrityError(f"{entry.model_id} v{entry.version} does not rebuild to its checksum")
        return package

    def fetch_by_id(self, model_id: str, version: int | None = None) -> ModelPackage:
        if version is None:
            version = self.previous_version(model_id, math.inf)
            if version is None:
                raise NotFoundError(f"no stored versions of {model_id}")
        return self._load(self._require(model_id, version))

    def _descriptor(self, entry: RegistryEntry) -> InputDescriptor:
        """The input descriptor an entry ranks by. An entry reloaded from
        the index has none until its first lookup reads it from disk; a
        delta version ranks by its root's, which apply_delta keeps."""
        if entry.input_descriptor is None:
            if entry.root_version:
                stored = self._descriptor(self._require(entry.model_id, entry.root_version))
            else:
                stored = self._read_package(entry.model_id, entry.version).descriptor.input_descriptor
            entry = replace(entry, input_descriptor=stored)
            self._entries[(entry.model_id, entry.version)] = entry
        return entry.input_descriptor

    def closest_entry(
        self,
        query: InputDescriptor,
        kind: ModelKind | str,
        max_divergence: float,
    ) -> tuple[RegistryEntry, float] | None:
        """Closest stored entry of a kind and its divergence, or None beyond
        max_divergence. Reads no package once every candidate's descriptor
        is held.

        Candidates are the available and active entries; ties go to the
        newest version, then the lexicographically lowest model id. All
        are ranked in one pass, over rows kept until an entry changes.
        """
        kind_value = kind.value if isinstance(kind, ModelKind) else str(kind)
        if kind_value not in self._ranking:
            candidates = [
                self._entries[key] for key in sorted(self._entries)
                if self._entries[key].kind == kind_value and self._entries[key].status != "retired"
            ]
            held = [self._descriptor(entry) for entry in candidates]
            keys = [(-entry.version, entry.model_id) for entry in candidates]
            self._ranking[kind_value] = keys, (DescriptorRows.stack(held) if held else None)
        keys, rows = self._ranking[kind_value]
        if not keys:
            return None
        best = min((div, *key) for div, key in zip(rows.divergences(query)[1].tolist(), keys))
        if best[0] > max_divergence:
            return None
        return self._entries[(best[2], -best[1])], best[0]

    def fetch_by_descriptor(
        self,
        query: InputDescriptor,
        kind: ModelKind | str,
        max_divergence: float,
    ) -> tuple[ModelPackage, float] | None:
        """:meth:`closest_entry`, with the winner read by :meth:`fetch_by_id`."""
        match = self.closest_entry(query, kind, max_divergence)
        if match is None:
            return None
        entry, divergence = match
        return self.fetch_by_id(entry.model_id, entry.version), divergence

    # status management

    def _require(self, model_id: str, version: int) -> RegistryEntry:
        try:
            return self._entries[(model_id, version)]
        except KeyError:
            raise NotFoundError(f"{model_id} v{version} not in registry") from None

    def activate(self, model_id: str, version: int) -> None:
        """Mark one entry active, demoting any same-tag active entry."""
        entry = self._require(model_id, version)
        if entry.status == "retired":
            raise IntegrityError(f"cannot activate retired {model_id} v{version}")
        changed = [
            replace(other, status="available")
            for key, other in self._entries.items()
            if other.status == "active" and other.functionality_tag == entry.functionality_tag
            and key != (model_id, version)
        ]
        if entry.status != "active":
            changed.append(replace(entry, status="active"))
        if changed:
            self._commit(*changed)

    def deactivate(self, model_id: str, version: int) -> None:
        entry = self._require(model_id, version)
        if entry.status == "active":
            self._commit(replace(entry, status="available"))

    def retire(self, model_id: str, version: int) -> None:
        entry = self._require(model_id, version)
        if entry.status != "retired":
            self._commit(replace(entry, status="retired"))

    def previous_version(self, model_id: str, current_version: float) -> int | None:
        """Newest non-retired version below current_version (inf: the newest)."""
        versions = [
            v for (mid, v), entry in self._entries.items()
            if mid == model_id and v < current_version and entry.status != "retired"
        ]
        return max(versions) if versions else None

    def entries(self) -> list[RegistryEntry]:
        return [self._entries[key] for key in sorted(self._entries)]

    def orphans(self) -> list[tuple[str, int]]:
        """Package files on disk with no entry in the index."""
        found = []
        for path in self.root.glob("*/*.lcmp"):
            if path.stem.isdigit() and (path.parent.name, int(path.stem)) not in self._entries:
                found.append((path.parent.name, int(path.stem)))
        return sorted(found)

    def gc(self) -> list[tuple[str, int]]:
        """Delete retired entries and orphan files, then compact the journal;
        returns what was removed. A retired root stays while a non-retired
        delta version over it does."""
        needed = {
            (entry.model_id, entry.root_version) for entry in self._entries.values()
            if entry.root_version and entry.status != "retired"
        }
        removed = sorted(self.orphans() + [
            key for key in self._entries
            if self._entries[key].status == "retired" and key not in needed
        ])
        for key in removed:
            self._entries.pop(key, None)
        self._ranking.clear()
        self._compact()  # before the deletions: a crash between leaves orphans
        for key in removed:
            path = self.package_path(*key)
            path.unlink(missing_ok=True)
            if path.parent.exists() and not any(path.parent.iterdir()):
                path.parent.rmdir()
        return removed

    def verify_all(self) -> list[tuple[str, int, str]]:
        """Integrity report over every entry and orphan file:
        (id, version, 'ok' or the error)."""
        report = [(model_id, version, "orphan: no index entry")
                  for model_id, version in self.orphans()]
        for key in sorted(self._entries):
            try:  # beyond the read's checks, the package must re-serialize to its checksum
                ok = verify_package(self._load(self._entries[key]))
            except (IntegrityError, NotFoundError) as exc:
                status = str(exc)
            else:
                status = "ok" if ok else f"checksum mismatch reading {key[0]} v{key[1]}"
            report.append((key[0], key[1], status))
        return sorted(report)
