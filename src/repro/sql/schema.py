"""Schema catalog: columns, tables, foreign keys, and databases.

Beyond the engine's needs, schema objects carry the *natural language*
annotations the NL2SQL stack uses: a human-readable name and a synonym list
per table/column (SPIDER ships the same information as "column names
(original)" vs "column names").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import CatalogError
from repro.sql.types import DataType

if TYPE_CHECKING:  # pragma: no cover - repro.core imports this module
    from repro.core.linking import SchemaLinker


@dataclass
class Column:
    """A column definition with NL annotations.

    Attributes:
        name: The SQL identifier (e.g. ``Song_release_year``).
        dtype: Declared type.
        nl_name: Human-readable name (e.g. ``song release year``).
        synonyms: Additional phrases users may use for this column.
        primary_key: Whether this column is the table's primary key.
    """

    name: str
    dtype: DataType
    nl_name: str = ""
    synonyms: tuple[str, ...] = ()
    primary_key: bool = False

    def __post_init__(self) -> None:
        if not self.nl_name:
            self.nl_name = self.name.replace("_", " ").lower()

    @property
    def key(self) -> str:
        return self.name.lower()


@dataclass
class ForeignKey:
    """``table.column`` references ``ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str


@dataclass
class Table:
    """A table definition with NL annotations and foreign keys."""

    name: str
    columns: list[Column]
    nl_name: str = ""
    synonyms: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.nl_name:
            self.nl_name = self.name.replace("_", " ").lower()
        self._by_key = {column.key: column for column in self.columns}
        if len(self._by_key) != len(self.columns):
            raise CatalogError(f"duplicate column names in table {self.name!r}")

    def column(self, name: str) -> Column:
        """Look up a column by (case-insensitive) name."""
        try:
            return self._by_key[name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_key

    @property
    def primary_key(self) -> Optional[Column]:
        for column in self.columns:
            if column.primary_key:
                return column
        return None

    @property
    def key(self) -> str:
        return self.name.lower()


class DatabaseSchema:
    """A named collection of tables with lookup helpers."""

    def __init__(self, name: str, tables: Iterable[Table]) -> None:
        self.name = name
        self.tables = list(tables)
        self._by_key = {table.key: table for table in self.tables}
        if len(self._by_key) != len(self.tables):
            raise CatalogError(f"duplicate table names in database {name!r}")
        self._ddl: Optional[str] = None
        self._linker: Optional["SchemaLinker"] = None
        self._linker_lock = threading.Lock()

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        try:
            return self._by_key[name.lower()]
        except KeyError:
            raise CatalogError(
                f"database {self.name!r} has no table {name!r}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._by_key

    def add_table(self, table: Table) -> None:
        if table.key in self._by_key:
            raise CatalogError(f"table {table.name!r} already exists")
        self.tables.append(table)
        self._by_key[table.key] = table
        self._ddl = None
        self._linker = None

    def drop_table(self, name: str) -> None:
        table = self.table(name)
        self.tables.remove(table)
        del self._by_key[table.key]
        self._ddl = None
        self._linker = None

    def join_path(self, left: str, right: str) -> Optional[ForeignKey]:
        """Find a direct FK linking ``left`` to ``right`` (either direction).

        Returns the FK as declared on whichever table declares it; callers
        inspect ``ref_table`` to orient the join condition.
        """
        left_table = self.table(left)
        right_table = self.table(right)
        for fk in left_table.foreign_keys:
            if fk.ref_table.lower() == right_table.key:
                return fk
        for fk in right_table.foreign_keys:
            if fk.ref_table.lower() == left_table.key:
                return fk
        return None

    def ddl(self) -> str:
        """Render the schema as CREATE TABLE statements (for prompts).

        Every prompt for the database carries this text, so it is rendered
        once and kept until :meth:`add_table` or :meth:`drop_table` changes
        the table set. Tables and columns are not changed in place once a
        schema is in use.
        """
        if self._ddl is None:
            self._ddl = self._render_ddl()
        return self._ddl

    def linker(self) -> "SchemaLinker":
        """The schema's one :class:`~repro.core.linking.SchemaLinker`.

        Every parser and feedback editor for the database links through
        it, so its memo answers each phrase once. Built on first use and
        kept, like :meth:`ddl`, until :meth:`add_table` or
        :meth:`drop_table` changes the table set.
        """
        linker = self._linker
        if linker is None:
            from repro.core.linking import SchemaLinker

            with self._linker_lock:
                if self._linker is None:
                    self._linker = SchemaLinker(self)
                linker = self._linker
        return linker

    def _render_ddl(self) -> str:
        statements = []
        for table in self.tables:
            pieces = []
            for column in table.columns:
                piece = f"{column.name} {column.dtype.value}"
                if column.primary_key:
                    piece += " PRIMARY KEY"
                pieces.append(piece)
            for fk in table.foreign_keys:
                pieces.append(
                    f"FOREIGN KEY ({fk.column}) REFERENCES "
                    f"{fk.ref_table}({fk.ref_column})"
                )
            body = ",\n  ".join(pieces)
            statements.append(f"CREATE TABLE {table.name} (\n  {body}\n);")
        return "\n".join(statements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseSchema({self.name!r}, {len(self.tables)} tables)"
