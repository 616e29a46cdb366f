"""Crawler sources: where tables come from and how they are discovered.

A :class:`Source` is the crawler's view of one place tables live.  It has
two duties, both cheap to reason about under failure:

* :meth:`Source.scan` — enumerate what exists *right now* as
  :class:`TableRef` descriptors (no file contents touched beyond ``stat``);
* :meth:`Source.load` — materialize one ref into a
  :class:`~repro.tabular.Table`.

Failure vocabulary (see :mod:`repro.kg.errors`): a source that cannot be
scanned at all raises :class:`SourceUnavailableError` (transient — feeds the
per-source circuit breaker), a single unreadable file raises
:class:`TableReadError` (poison — feeds per-table quarantine), and a file
that vanished between scan and load raises ``FileNotFoundError`` (the next
scan will observe the deletion).  This split is what lets the crawler treat
"the share is down" and "one CSV is garbage" with different medicine.

:class:`DirectorySource` covers the common case — a local directory tree of
CSV/JSON files laid out like :meth:`repro.tabular.DataLake.from_directory`
expects.  Remote/parquet/object-store sources plug in by implementing the
same two methods.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import List, Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

from repro.kg.errors import SourceUnavailableError, TableReadError
from repro.tabular import Table
from repro.tabular.io import read_csv, read_json_records

PathLike = Union[str, Path]

__all__ = ["TableRef", "Source", "DirectorySource"]


class TableRef:
    """One discovered table: identity plus the cheap change signals.

    ``size`` and ``mtime_ns`` come from the scan's ``stat`` and let the
    crawler skip loading tables that cannot have changed; ``path`` is set
    for file-backed sources (and is what error messages point at).
    """

    __slots__ = ("dataset", "name", "path", "size", "mtime_ns")

    def __init__(
        self,
        dataset: str,
        name: str,
        path: Optional[Path] = None,
        size: int = 0,
        mtime_ns: int = 0,
    ):
        self.dataset = dataset
        self.name = name
        self.path = Path(path) if path is not None else None
        self.size = int(size)
        self.mtime_ns = int(mtime_ns)

    @property
    def key(self) -> Tuple[str, str]:
        """The governance identity: ``(dataset, table name)``."""
        return (self.dataset, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"TableRef(dataset={self.dataset!r}, name={self.name!r}, "
            f"size={self.size})"
        )


@runtime_checkable
class Source(Protocol):
    """What the crawler needs from a place tables live."""

    name: str

    def scan(self) -> List[TableRef]:
        """Enumerate the tables that exist right now (cheap; no loads)."""
        ...

    def load(self, ref: TableRef) -> Table:
        """Materialize one discovered table."""
        ...


class DirectorySource:
    """A local directory tree of CSV/JSON tables.

    The layout rule matches :meth:`DataLake.from_directory` exactly —
    ``root/<dataset>/<table>.csv`` with loose files under ``root`` grouped
    into a dataset named after the root — so a crawl of a directory
    converges to the same graph a one-shot ``from_directory`` load
    produces.

    Robustness contract:

    * an unlistable root (vanished, permission denied) raises
      :class:`SourceUnavailableError`;
    * a file that fails ``stat`` during the scan is *skipped* (it is
      mid-delete; the next scan settles it) — one vanishing file never
      aborts a scan;
    * an unreadable/unparsable file raises :class:`TableReadError` from
      :meth:`load`, a vanished one ``FileNotFoundError``.
    """

    def __init__(
        self,
        root: PathLike,
        name: Optional[str] = None,
        extensions: Sequence[str] = (".csv", ".json"),
    ):
        self.root = Path(root)
        self.name = name or self.root.name
        self.extensions = tuple(ext.lower() for ext in extensions)

    def scan(self) -> List[TableRef]:
        if not self.root.is_dir():
            raise SourceUnavailableError(
                f"source {self.name!r}: root {self.root} is not a listable directory"
            )
        try:
            paths = sorted(self.root.rglob("*"))
        except OSError as error:
            raise SourceUnavailableError(
                f"source {self.name!r}: cannot list {self.root}: {error}"
            ) from error
        refs: List[TableRef] = []
        for path in paths:
            if path.suffix.lower() not in self.extensions:
                continue
            try:
                stat = os.stat(path)
            except OSError:
                # Mid-delete (or a transient permission flap): skip this
                # file; whatever the truth is, the next scan observes it.
                continue
            if not os.path.isfile(path):
                continue
            relative = path.relative_to(self.root)
            dataset = relative.parts[0] if len(relative.parts) > 1 else self.root.name
            refs.append(
                TableRef(
                    dataset,
                    path.stem,
                    path=path,
                    size=stat.st_size,
                    mtime_ns=stat.st_mtime_ns,
                )
            )
        return refs

    def load(self, ref: TableRef) -> Table:
        if ref.path is None:
            raise TableReadError(ref.key, "ref has no file path")
        try:
            if ref.path.suffix.lower() == ".json":
                return read_json_records(ref.path, dataset=ref.dataset)
            return read_csv(ref.path, dataset=ref.dataset)
        except FileNotFoundError:
            raise  # vanished: the next scan retracts it, not a read error
        except (OSError, ValueError, UnicodeError, csv.Error) as error:
            raise TableReadError(ref.path, str(error), cause=error) from error

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"DirectorySource(name={self.name!r}, root={str(self.root)!r})"
