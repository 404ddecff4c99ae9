"""Versioned, integrity-checked model package store.

Layout: one directory per model id holding `<version>.lcmp` container
files, plus a flat `index.txt` listing every entry's status. Both are
written atomically (temp file then rename). Descriptor lookups rank the
input descriptors held since `store()`; every fetch, a lookup's winner
included, re-reads and re-verifies the package file from disk.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from .container import CHECKSUM_LEN
from .errors import IntegrityError, NotFoundError, PairingError
from .kpi import InputDescriptor, descriptor_divergence
from .models import ModelKind, ModelPackage, verify_package

STATUSES = ("available", "active", "retired")


@dataclass(frozen=True)
class RegistryEntry:
    model_id: str
    version: int
    kind: str
    functionality_tag: str
    associated_id: str
    status: str
    stored_at_slot: int
    # Set by store(), never written to the index: None after a reload
    # until the first lookup that reads the package.
    input_descriptor: InputDescriptor | None = field(default=None, compare=False)


# index.txt columns in order, each with its parser.
_INDEX_FIELDS = (
    ("model_id", str), ("version", int), ("kind", str), ("functionality_tag", str),
    ("associated_id", str), ("status", str), ("stored_at_slot", int),
)


def _entry_line(entry: RegistryEntry) -> str:
    return " ".join(f"{name}={getattr(entry, name)}" for name, _ in _INDEX_FIELDS)


def _parse_entry_line(line: str) -> RegistryEntry:
    fields = {}
    for token in line.split(" "):
        key, sep, value = token.partition("=")
        if not sep:
            raise IntegrityError(f"malformed index line: {line!r}")
        fields[key] = value
    try:
        return RegistryEntry(**{name: parse(fields[name]) for name, parse in _INDEX_FIELDS})
    except KeyError as exc:
        raise IntegrityError(f"index line missing field {exc}: {line!r}") from exc


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
    """Single-writer package store with descriptor-keyed retrieval."""

    INDEX_NAME = "index.txt"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._entries: dict[tuple[str, int], RegistryEntry] = {}
        self._load_index()

    # index persistence

    def _index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def _load_index(self) -> None:
        path = self._index_path()
        if not path.exists():
            return
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            entry = _parse_entry_line(line)
            self._entries[(entry.model_id, entry.version)] = entry

    def _write_index(self) -> None:
        lines = [_entry_line(self._entries[key]) for key in sorted(self._entries)]
        payload = "\n".join(lines) + ("\n" if lines else "")
        _write_atomic(self._index_path(), payload.encode("utf-8"))

    def package_path(self, model_id: str, version: int) -> Path:
        return self.root / model_id / f"{version}.lcmp"

    # core operations

    def store(self, package: ModelPackage, stored_at_slot: int = 0) -> tuple[str, int]:
        desc = package.descriptor
        key = (desc.model_id, desc.model_version)
        if key in self._entries:
            raise IntegrityError(f"{desc.model_id} v{desc.model_version} already stored")
        # Serialize once; the container trailer is the checksum that
        # verify_package would recompute from these same bytes.
        data = package.to_bytes()
        if data[-CHECKSUM_LEN:] != desc.payload_checksum:
            raise IntegrityError(
                f"checksum mismatch storing {desc.model_id} v{desc.model_version}"
            )
        path = self.package_path(*key)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, data)
        self._entries[key] = RegistryEntry(
            model_id=desc.model_id,
            version=desc.model_version,
            kind=package.kind.value,
            functionality_tag=desc.functionality_tag,
            associated_id=desc.associated_id,
            status="available",
            stored_at_slot=stored_at_slot,
            input_descriptor=desc.input_descriptor,
        )
        self._write_index()
        return key

    def _read_package(self, model_id: str, version: int) -> ModelPackage:
        path = self.package_path(model_id, version)
        if not path.exists():
            raise NotFoundError(f"package file missing for {model_id} v{version}")
        # read_container has checked the SHA-256 trailer against the body.
        package = ModelPackage.from_bytes(path.read_bytes())
        if package.descriptor.model_id != model_id or package.descriptor.model_version != version:
            raise IntegrityError(
                f"package file for {model_id} v{version} carries descriptor "
                f"{package.descriptor.model_id} v{package.descriptor.model_version}"
            )
        return package

    def fetch_by_id(self, model_id: str, version: int | None = None) -> ModelPackage:
        if version is None:
            version = self.previous_version(model_id, math.inf)
            if version is None:
                raise NotFoundError(f"no stored versions of {model_id}")
        self._require(model_id, version)
        return self._read_package(model_id, version)

    def fetch_by_descriptor(
        self,
        query: InputDescriptor,
        kind: ModelKind | str,
        max_divergence: float,
    ) -> tuple[ModelPackage, float] | None:
        """Closest stored model of a kind, or None beyond max_divergence.

        Candidates are the available and active entries; ties go to the
        newest version, then the lexicographically lowest model id. Only
        the winner is read from disk, and each entry reloaded from the
        index once, by the first lookup that ranks it.
        """
        kind_value = kind.value if isinstance(kind, ModelKind) else str(kind)
        ranked = []
        for entry in sorted(self._entries.values(), key=lambda e: (e.model_id, e.version)):
            if entry.kind != kind_value or entry.status == "retired":
                continue
            stored = entry.input_descriptor
            if stored is None:  # reloaded from the index: read once, then held
                key = (entry.model_id, entry.version)
                stored = self._read_package(*key).descriptor.input_descriptor
                self._entries[key] = replace(entry, input_descriptor=stored)
            ranked.append((descriptor_divergence(query, stored), -entry.version, entry.model_id))
        best = min(ranked, default=None)
        if best is None or best[0] > max_divergence:
            return None
        return self.fetch_by_id(best[2], -best[1]), best[0]

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
        for key, other in self._entries.items():
            if other.status == "active" and other.functionality_tag == entry.functionality_tag:
                self._entries[key] = replace(other, status="available")
        self._entries[(model_id, version)] = replace(entry, status="active")
        self._write_index()

    def deactivate(self, model_id: str, version: int) -> None:
        entry = self._require(model_id, version)
        if entry.status == "active":
            self._entries[(model_id, version)] = replace(entry, status="available")
            self._write_index()

    def retire(self, model_id: str, version: int) -> None:
        entry = self._require(model_id, version)
        self._entries[(model_id, version)] = replace(entry, status="retired")
        self._write_index()

    def previous_version(self, model_id: str, current_version: float) -> int | None:
        """Newest non-retired version below current_version (inf: the newest)."""
        versions = [
            v for (mid, v), entry in self._entries.items()
            if mid == model_id and v < current_version and entry.status != "retired"
        ]
        return max(versions) if versions else None

    def active_entry(self, functionality_tag: str) -> RegistryEntry | None:
        for entry in self._entries.values():
            if entry.status == "active" and entry.functionality_tag == functionality_tag:
                return entry
        return None

    def entries(self) -> list[RegistryEntry]:
        return [self._entries[key] for key in sorted(self._entries)]

    def gc(self) -> list[tuple[str, int]]:
        """Delete retired entries and their files; returns what was removed."""
        removed = []
        for key in sorted(self._entries):
            if self._entries[key].status != "retired":
                continue
            path = self.package_path(*key)
            if path.exists():
                path.unlink()
            if path.parent.exists() and not any(path.parent.iterdir()):
                path.parent.rmdir()
            del self._entries[key]
            removed.append(key)
        if removed:
            self._write_index()
        return removed

    def verify_all(self) -> list[tuple[str, int, str]]:
        """Integrity report over every entry: (id, version, 'ok' or error)."""
        report = []
        for key in sorted(self._entries):
            try:  # beyond the read's checks, the package must re-serialize to its checksum
                ok = verify_package(self._read_package(*key))
            except (IntegrityError, NotFoundError) as exc:
                status = str(exc)
            else:
                status = "ok" if ok else f"checksum mismatch reading {key[0]} v{key[1]}"
            report.append((key[0], key[1], status))
        return report
