"""Database facade.

:class:`Database` wraps the storage catalog behind the small DDL/DML surface
the workloads and examples need: create a table (optionally with explicit
record padding, as the paper's ``<rest of fields>`` requires), bulk-load
rows or columns, build a non-clustered index, and inspect sizes.  The same
database instance is shared by every system profile measured against it --
the paper used "the exact same commands and datasets ... for all the
DBMSs".
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from ..index.btree import BTreeIndex
from ..storage.address_space import AddressSpace
from ..storage.catalog import Catalog, Table
from ..storage.page import DEFAULT_PAGE_SIZE
from ..storage.schema import Column, ColumnType, Schema


class Database:
    """A memory-resident database instance."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 address_space: Optional[AddressSpace] = None) -> None:
        self.catalog = Catalog(page_size=page_size, address_space=address_space)

    # ------------------------------------------------------------------ DDL
    def create_table(self, name: str, columns: Sequence[Tuple[str, ColumnType]],
                     record_size: Optional[int] = None,
                     layout_style: str = "nsm") -> Table:
        """Create a table from ``(name, type)`` pairs with optional padding.

        ``layout_style`` selects the page organisation: ``"nsm"`` (slotted
        pages, the default) or ``"pax"`` (per-column minipages).
        """
        schema = Schema(columns=tuple(Column(cname, ctype) for cname, ctype in columns),
                        name=name)
        return self.catalog.create_table(name, schema, record_size=record_size,
                                         layout_style=layout_style)

    def create_index(self, table: str, column: str, unique: bool = False) -> BTreeIndex:
        return self.catalog.create_index(table, column, unique=unique)

    def drop_index(self, table: str, column: str) -> None:
        self.catalog.drop_index(table, column)

    # ------------------------------------------------------------------ DML
    def load(self, table: str,
             data: Union[Mapping[str, Sequence], Iterable[Sequence]]) -> int:
        """Bulk-load an existing table; returns the row count.

        ``data`` is either a mapping of every column name to its values (a
        numpy array or any sequence, all of one length) or an iterable of
        rows, which is transposed once into that form.  Either way the
        table is built a page at a time (``Table.insert_many``), with the
        pages and index entries ``Table.insert`` of each row would leave.
        """
        target = self.catalog.table(table)
        if isinstance(data, Mapping):
            count = len(next(iter(data.values()))) if data else 0
            return target.insert_many(data, count)
        return target.insert_many(*target.schema.transpose(data))

    # -------------------------------------------------------------- queries
    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def row_count(self, name: str) -> int:
        return self.catalog.table(name).row_count

    def resident_bytes(self) -> int:
        """Total relation bytes in the buffer pool (must fit in memory)."""
        return self.catalog.total_data_bytes()

    @property
    def address_space(self) -> AddressSpace:
        return self.catalog.address_space

    # ------------------------------------------------------- data checkpoint
    def data_checkpoint(self) -> Dict[str, Tuple]:
        """Snapshot every table's raw page bytes (see ``HeapFile.data_checkpoint``).

        The address-space checkpoint rolls back *allocation cursors*; this
        rolls back *data* mutated in place (record updates), which is what
        lets an update-heavy workload (the TPC-C mix) be measured repeatedly
        against one shared warmed build with every measurement seeing the
        freshly built contents.  Purely Python-level: nothing is charged.
        """
        return {table.name: table.heap.data_checkpoint()
                for table in self.catalog.tables()}

    def data_restore(self, snapshot: Dict[str, Tuple]) -> None:
        """Write a :meth:`data_checkpoint` snapshot back into every table."""
        for name, pages in snapshot.items():
            self.catalog.table(name).heap.data_restore(pages)

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-table row/page/byte counts, for reports and examples."""
        out: Dict[str, Dict[str, int]] = {}
        for table in self.catalog.tables():
            out[table.name] = {
                "rows": table.row_count,
                "pages": table.heap.page_count,
                "bytes": table.heap.data_bytes(),
                "record_size": table.layout.record_size,
                "indexes": len(table.indexes),
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Database(tables={list(self.catalog.table_names())})"
