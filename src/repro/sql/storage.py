"""Typed row writes into one table of a database's SQLite connection.

A row enters through :meth:`TableData.insert`: the storage layer checks the
column count and coerces each value to its declared type; SQLite stores the
row and enforces primary-key uniqueness. Each row is a write on the
database's connection, so it clears the connection's result memo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import CatalogError, ExecutionError
from repro.sql.schema import Table
from repro.sql.types import DataType, SqlValue, coerce

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.engine import Connection


def quote_identifier(name: str) -> str:
    """``name`` as a quoted SQLite identifier."""
    return '"' + name.replace('"', '""') + '"'


class TableData:
    """Rows for a single table, written through to SQLite."""

    def __init__(self, table: Table, connection: "Connection") -> None:
        self.table = table
        self._connection = connection
        self._dtypes = tuple(column.dtype for column in table.columns)
        self._positions = {
            column.key: index for index, column in enumerate(table.columns)
        }
        name = quote_identifier(table.name)
        marks = ", ".join("?" * len(table.columns))
        self._insert_sql = f"INSERT INTO {name} VALUES ({marks})"
        self._select_sql = f"SELECT * FROM {name} ORDER BY rowid"
        self._count_sql = f"SELECT COUNT(*) FROM {name}"
        key = table.primary_key
        # SQLite assigns a fresh rowid to a NULL INTEGER PRIMARY KEY.
        self._rowid_position = (
            table.columns.index(key)
            if key is not None and key.dtype is DataType.INTEGER
            else None
        )

    @property
    def rows(self) -> list[tuple[SqlValue, ...]]:
        """Every row in rowid order: insertion order, or key order for a
        table with an INTEGER primary key."""
        return self._connection.fetch(self._select_sql)

    def insert(self, values: Sequence[SqlValue]) -> None:
        """Insert one row given values in declaration order."""
        if len(values) != len(self._dtypes):
            raise ExecutionError(
                f"table {self.table.name!r} expects {len(self._dtypes)} "
                f"values, got {len(values)}"
            )
        row = tuple(map(coerce, values, self._dtypes))
        if self._rowid_position is not None and row[self._rowid_position] is None:
            raise ExecutionError(
                f"NULL primary key in table {self.table.name!r}"
            )
        self._connection.write(self._insert_sql, row)

    def insert_named(self, values: dict[str, SqlValue]) -> None:
        """Insert a row given a column-name → value mapping.

        Unnamed columns default to NULL.
        """
        row: list[SqlValue] = [None] * len(self._dtypes)
        for name, value in values.items():
            position = self._positions.get(name.lower())
            if position is None:
                raise CatalogError(
                    f"table {self.table.name!r} has no column {name.lower()!r}"
                )
            row[position] = value
        self.insert(row)

    def column_index(self, name: str) -> int:
        """Position of a column in stored rows."""
        position = self._positions.get(name.lower())
        if position is None:
            raise CatalogError(f"table {self.table.name!r} has no column {name!r}")
        return position

    def __len__(self) -> int:
        return self._connection.fetch(self._count_sql)[0][0]
