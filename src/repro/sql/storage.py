"""Typed row writes into one table of a database's SQLite connection.

Rows enter through :meth:`TableData.insert`, any number in one call: the
storage layer checks each row's width, coerces each value to its declared
type and rejects a NULL INTEGER key, then the connection writes them all
in one transaction, where SQLite enforces primary-key uniqueness. A call
stores all its rows or none, and clears the connection's result memo
once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.errors import CatalogError, ExecutionError
from repro.sql.schema import Table
from repro.sql.types import NATIVE_TYPES, DataType, SqlValue, coerce

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
        self._natives = tuple(NATIVE_TYPES[dtype] for dtype in self._dtypes)
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

    def insert(self, *rows: Sequence[SqlValue]) -> int:
        """Insert rows given values in declaration order, all or none.

        Every row is checked before any is written, then all go to SQLite
        in one transaction; a row SQLite rejects (a repeated key) rolls
        the whole call back. Returns the number of rows written.
        """
        if not rows:
            return 0
        checked = [self._checked(values) for values in rows]
        self._connection.write_rows(self._insert_sql, checked)
        obs.count("sql.storage.writes")
        obs.count("sql.storage.rows", len(checked))
        return len(checked)

    def insert_named(self, *rows: dict[str, SqlValue]) -> int:
        """Insert rows given column-name → value mappings, all or none.

        Unnamed columns default to NULL.
        """
        return self.insert(*[self._positional(values) for values in rows])

    def _checked(self, values: Sequence[SqlValue]) -> tuple[SqlValue, ...]:
        """One row as stored: its width checked, each value coerced
        unless it already has its column's native type, and an INTEGER
        key present."""
        if tuple(map(type, values)) == self._natives:
            # Every value is native, so none is NULL: the generators' rows.
            return tuple(values)
        if len(values) != len(self._dtypes):
            raise ExecutionError(
                f"table {self.table.name!r} expects {len(self._dtypes)} "
                f"values, got {len(values)}"
            )
        row = tuple(
            value if type(value) is native else coerce(value, dtype)
            for value, native, dtype in zip(values, self._natives, self._dtypes)
        )
        if self._rowid_position is not None and row[self._rowid_position] is None:
            raise ExecutionError(
                f"NULL primary key in table {self.table.name!r}"
            )
        return row

    def _positional(self, values: dict[str, SqlValue]) -> list[SqlValue]:
        row: list[SqlValue] = [None] * len(self._dtypes)
        for name, value in values.items():
            row[self.column_index(name)] = value
        return row

    def column_index(self, name: str) -> int:
        """Position of a column in stored rows."""
        position = self._positions.get(name.lower())
        if position is None:
            raise CatalogError(f"table {self.table.name!r} has no column {name!r}")
        return position

    def __len__(self) -> int:
        return self._connection.fetch(self._count_sql)[0][0]
