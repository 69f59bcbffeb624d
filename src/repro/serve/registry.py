"""Named, versioned fitted-pipeline snapshots in the artifact store.

A *deployment* is a name; publishing a fitted
:class:`~repro.training.AdapterPipeline` under a name allocates the
next integer version and writes one store artifact holding the
flattened pipeline state (:func:`repro.training.pipeline_state`) plus
a content digest.  Loading verifies the digest before reconstructing —
the store's usual "corruption is a miss" contract is deliberately
upgraded to a hard :class:`RegistryIntegrityError` here, because a
server silently falling back to nothing (or to damaged weights) is
worse than refusing to start.

On a disk-backed store several processes may publish at once.  Each
version number is claimed by creating ``<cache_dir>/registry/<name>/v<N>.claim``
with ``O_CREAT | O_EXCL`` (the primitive :class:`repro.exec.LeaseBoard`
uses), moving on to ``N + 1`` when the file already exists, so no two
publishers ever get the same version.  Once the payload is written
(atomically: temp file + ``os.replace``) the publisher creates the
marker ``v<N>`` beside the claim, and only marked versions are listed,
so a concurrent :meth:`load` never resolves to a half-written version.
A publisher that dies between claim and marker leaves a gap in the
version sequence, never a broken version; a marked version whose
payload is later lost raises :class:`RegistryIntegrityError` instead of
falling back to an older one.  A memory-only store cannot be shared
across processes; it keeps its versions in a catalog artifact guarded
by a thread lock.  On disk that catalog is only read, as the record of
registries published before version claims existed: its versions stay
listed and numbering continues above them.

A small LRU keeps reconstructed *hot* pipelines in memory so a server
restart or a ``client()`` call does not rebuild the object graph per
request.
"""

from __future__ import annotations

import os
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..nn.serialization import state_dict_digest
from ..runtime import ArtifactStore, pipeline_catalog_key, pipeline_key
from ..training import AdapterPipeline
from ..training.persistence import pipeline_from_state, pipeline_state
from .errors import PipelineNotFoundError, RegistryIntegrityError

__all__ = ["PipelineRecord", "PipelineRegistry"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
#: ``v<N>`` marks a published version, ``v<N>.claim`` one claimed.
_VERSION_FILE_RE = re.compile(r"^v([0-9]+)(\.claim)?$")


@dataclass(frozen=True)
class PipelineRecord:
    """One published (name, version) entry and its provenance."""

    name: str
    version: int
    digest: str
    key: str
    manifest: dict

    @property
    def ref(self) -> str:
        return f"{self.name}@v{self.version}"


class PipelineRegistry:
    """Publish / resolve / load named pipeline versions.

    Parameters
    ----------
    store:
        An :class:`~repro.runtime.ArtifactStore`, or a cache-directory
        path (a disk-backed store is created over it).  A disk-backed
        store is what lets N serving workers share one registry.
    max_hot:
        LRU capacity of reconstructed pipelines held in memory.
    """

    def __init__(self, store: ArtifactStore | str | Path, max_hot: int = 4) -> None:
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(cache_dir=Path(store))
        if max_hot <= 0:
            raise ValueError("max_hot must be positive")
        self.store = store
        self.max_hot = max_hot
        self._hot: OrderedDict[tuple[str, int], AdapterPipeline] = OrderedDict()
        self._lock = threading.Lock()
        #: Version-claim files live here; ``None`` for a memory-only store.
        self._claims_root = store.cache_dir / "registry" if store.cache_dir else None

    # ------------------------------------------------------------------
    # Catalog (name -> published versions)
    # ------------------------------------------------------------------
    def _version_files(self, name: str) -> list[tuple[int, bool]]:
        """``(version, published)`` for every claim and marker of ``name``."""
        directory = self._claims_root / name
        if not directory.is_dir():
            return []
        found = []
        for entry in directory.iterdir():
            match = _VERSION_FILE_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), match.group(2) is None))
        return found

    def _claim_next(self, name: str) -> int:
        """Atomically claim the lowest unclaimed version above the latest."""
        directory = self._claims_root / name
        directory.mkdir(parents=True, exist_ok=True)
        taken = [version for version, _ in self._version_files(name)]
        taken += self._catalog().get(name, [])
        version = max(taken, default=0) + 1
        while not _create_exclusive(directory / f"v{version}.claim"):
            version += 1
        return version

    def _catalog(self) -> dict[str, list[int]]:
        artifact = self.store.get(pipeline_catalog_key())
        if artifact is None:
            return {}
        names = artifact.meta.get("names", {})
        return {name: [int(v) for v in versions] for name, versions in names.items()}

    def _write_catalog(self, catalog: dict[str, list[int]]) -> None:
        self.store.put(pipeline_catalog_key(), meta={"names": catalog})

    def names(self) -> list[str]:
        """All deployment names with at least one published version, sorted."""
        names = set(self._catalog())
        root = self._claims_root
        if root is not None and root.is_dir():
            names.update(
                entry.name
                for entry in root.iterdir()
                if any(published for _, published in self._version_files(entry.name))
            )
        return sorted(names)

    def versions(self, name: str) -> list[int]:
        """Published versions of ``name``, ascending (empty if none)."""
        versions = set(self._catalog().get(name, []))
        if self._claims_root is not None:
            versions.update(
                version for version, published in self._version_files(name) if published
            )
        return sorted(versions)

    # ------------------------------------------------------------------
    # Publish / resolve / load
    # ------------------------------------------------------------------
    def publish(self, pipeline: AdapterPipeline, name: str) -> PipelineRecord:
        """Write a fitted pipeline as the next version of ``name``.

        Versions are immutable: re-publishing a name never overwrites,
        it allocates ``latest + 1``, also when other processes publish
        to the same disk registry at the same time.  Returns the new
        record.
        """
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid pipeline name {name!r}; use letters, digits, '.', '_', '-'"
            )
        arrays, manifest = pipeline_state(pipeline)
        digest = state_dict_digest(arrays)
        with self._lock:
            memory_only = self._claims_root is None
            if memory_only:
                catalog = self._catalog()
                version = max(catalog.get(name, []), default=0) + 1
            else:
                version = self._claim_next(name)
            key = pipeline_key(name, version)
            meta = {
                "name": name,
                "version": version,
                "digest": digest,
                "manifest": manifest,
            }
            self.store.put(key, arrays=arrays, meta=meta)
            if memory_only:
                catalog[name] = sorted([*catalog.get(name, []), version])
                self._write_catalog(catalog)
            else:
                _create_exclusive(self._claims_root / name / f"v{version}")
        return PipelineRecord(
            name=name, version=version, digest=digest, key=key, manifest=manifest
        )

    def _resolve_version(self, name: str, version: int | None) -> int:
        versions = self.versions(name)
        if not versions:
            raise PipelineNotFoundError(f"no pipeline published under name {name!r}")
        if version is None:
            return versions[-1]
        if version not in versions:
            raise PipelineNotFoundError(
                f"pipeline {name!r} has no version {version} (published: {versions})"
            )
        return version

    def record(self, name: str, version: int | None = None) -> PipelineRecord:
        """The :class:`PipelineRecord` of ``name`` (latest by default)."""
        version = self._resolve_version(name, version)
        key = pipeline_key(name, version)
        artifact = self.store.get(key)
        if artifact is None:
            raise RegistryIntegrityError(
                f"registry catalog lists {name!r} v{version} but its payload "
                f"is missing or unreadable (key {key})"
            )
        return PipelineRecord(
            name=name,
            version=version,
            digest=str(artifact.meta.get("digest", "")),
            key=key,
            manifest=dict(artifact.meta.get("manifest", {})),
        )

    def load(self, name: str, version: int | None = None) -> AdapterPipeline:
        """Reconstruct ``name`` (latest version by default).

        Verifies the payload's content digest before rebuilding; a
        mismatch — truncated write, bit rot, foreign file — raises
        :class:`RegistryIntegrityError` rather than serving damaged
        weights.  Hot entries are returned from the LRU without
        touching the store again.
        """
        version = self._resolve_version(name, version)
        with self._lock:
            cached = self._hot.get((name, version))
            if cached is not None:
                self._hot.move_to_end((name, version))
                return cached
        key = pipeline_key(name, version)
        artifact = self.store.get(key)
        if artifact is None:
            raise RegistryIntegrityError(
                f"registry catalog lists {name!r} v{version} but its payload "
                f"is missing or unreadable (key {key})"
            )
        expected = str(artifact.meta.get("digest", ""))
        actual = state_dict_digest(artifact.arrays)
        if expected != actual:
            raise RegistryIntegrityError(
                f"pipeline {name!r} v{version} failed its integrity check "
                f"(stored digest {expected or '<missing>'}, payload digest {actual})"
            )
        pipeline = pipeline_from_state(artifact.arrays, artifact.meta["manifest"])
        with self._lock:
            self._hot[(name, version)] = pipeline
            self._hot.move_to_end((name, version))
            while len(self._hot) > self.max_hot:
                self._hot.popitem(last=False)
        return pipeline

    def __repr__(self) -> str:
        return f"PipelineRegistry(names={self.names()}, hot={len(self._hot)})"


def _create_exclusive(path: Path) -> bool:
    """Create an empty ``path``; ``False`` if it already exists."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    os.close(fd)
    return True
