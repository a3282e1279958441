"""Database facade: a schema plus one in-memory SQLite connection.

Typical use::

    db = Database.from_ddl("my_db", "CREATE TABLE t (id INTEGER, name TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    result = db.execute("SELECT COUNT(*) FROM t")
    assert result.scalar() == 2

SQL runs on stdlib :mod:`sqlite3`, the engine the paper ran SPIDER on.
Each parsed tree is printed back to SQL and executed on the database's own
in-memory connection. The schema (with its natural-language annotations)
stays :class:`~repro.sql.schema.DatabaseSchema`, and rows enter through
:class:`~repro.sql.storage.TableData`, which coerces them to the declared
types. Every ``sqlite3`` error surfaces as a :class:`~repro.errors.SqlError`
subclass, so a prediction that fails to run counts as wrong.

Each connection memoizes the column names and rows of each query tree it
ran, and every write through it clears them (DESIGN.md, "Each query runs
once per database state").
"""

from __future__ import annotations

import dataclasses
import re
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from repro import obs
from repro.errors import CatalogError, ExecutionError, SqlError
from repro.sql import ast
from repro.sql.comparison import query_is_ordered, row_sort_key
from repro.sql.parser import parse_statement
from repro.sql.printer import print_expression, print_query, print_statement
from repro.sql.schema import Column, DatabaseSchema, ForeignKey, Table
from repro.sql.storage import TableData, quote_identifier
from repro.sql.types import DataType, SqlValue

#: Prepared statements ``sqlite3`` keeps per connection. Python's default
#: of 128 on each of a suite's 201 connections raised the peak RSS of a
#: full build plus its prediction rows from 78.3 to 95.7 MB (DESIGN.md,
#: "Why SQL runs on sqlite3"). Little repeats back to back any more: a
#: bulk write prepares its INSERT once for all its rows, and a query tree
#: runs once per database state. The one slot stays: a cache of none saved
#: 0.6 MB when every row was its own INSERT, and has not been measured since.
STATEMENT_CACHE_SIZE = 1

#: How many query answers (a tree's column names and rows) each
#: connection keeps, least recently used first out. After set-up and any
#: number of full sweeps the AEP database holds 129 and no SPIDER database
#: more than 20, so a sweep never evicts.
RESULT_MEMO_SIZE = 256

#: A call to a function SQLite may answer differently each time it runs.
#: The printer writes every call as ``NAME(`` in upper case, so a query
#: whose text matches is never memoized; a string literal that spells
#: one only costs the store.
_VOLATILE_CALL = re.compile(
    r"\b(?:RANDOM|RANDOMBLOB|CHANGES|LAST_INSERT_ROWID|TOTAL_CHANGES"
    r"|DATE|TIME|DATETIME|JULIANDAY|UNIXEPOCH|STRFTIME)\("
)

#: Errors a statement can raise besides ``sqlite3.Error``: an int beyond
#: 64 bits in a row, or a lone surrogate in the SQL text.
_SQLITE_ERRORS = (sqlite3.Error, OverflowError, UnicodeEncodeError)

Row = tuple[SqlValue, ...]

#: The SQLite column type each declared type is stored as. An INTEGER
#: primary key becomes ``INTEGER PRIMARY KEY``, the rowid itself, so SQLite
#: builds no second B-tree for it. DATE stays TEXT: ISO dates order as
#: strings. BOOLEAN is stored, and read back, as 0/1.
_SQLITE_TYPES = {
    DataType.INTEGER: "INTEGER",
    DataType.REAL: "REAL",
    DataType.TEXT: "TEXT",
    DataType.DATE: "TEXT",
    DataType.BOOLEAN: "INTEGER",
}


@dataclass
class QueryResult:
    """Result of a query: column names plus row tuples."""

    columns: list[str]
    rows: list[tuple[SqlValue, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> Optional[tuple[SqlValue, ...]]:
        """The first row, or None for an empty result."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> SqlValue:
        """The single value of a 1x1 result (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]


@dataclass
class DmlResult:
    """Result of a DDL/DML statement: number of rows affected."""

    rows_affected: int


ExecuteResult = Union[QueryResult, DmlResult]


class _Answer(NamedTuple):
    """A query tree's column names and rows on one database state.

    It holds the tree, so the tree's ``id`` that keys it cannot be reused
    while it is kept.
    """

    tree: ast.Query
    columns: tuple[str, ...]
    rows: tuple[Row, ...]


class Connection:
    """One in-memory SQLite connection, shared by threads under one lock.

    Serve threads and ``--workers`` sweeps share a suite's databases, so
    the connection is opened with ``check_same_thread=False`` and each
    statement runs, with its rows fetched, while holding the lock.

    :meth:`answer` keeps the answers of up to :data:`RESULT_MEMO_SIZE`
    query trees, keyed by tree identity. Every statement that changes the
    database goes through :meth:`write`, and every batch of rows through
    :meth:`write_rows`; both clear them: DDL changes what ``*`` names.
    """

    __slots__ = ("_answers", "_connection", "_lock")

    def __init__(self) -> None:
        self._connection = sqlite3.connect(
            ":memory:",
            isolation_level=None,
            check_same_thread=False,
            cached_statements=STATEMENT_CACHE_SIZE,
        )
        self._lock = threading.Lock()
        self._answers: OrderedDict[int, _Answer] = OrderedDict()

    def answer(
        self,
        tree: ast.Query,
        column_names: Callable[[ast.Query], list[str]],
    ) -> tuple[list[str], list[Row]]:
        """The column names and rows of the query ``tree``, as lists of
        the caller's own; rows sorted by
        :func:`~repro.sql.comparison.row_sort_key` unless ``tree`` orders
        them.

        Answered from the memo when ``tree`` ran since the last write. A
        miss counts ``sql.execute.misses`` and does its whole job under
        the lock, so no write lands inside it: print, run, sort, name the
        columns (after SQLite accepted the query, so a query SQLite
        rejects fails with SQLite's error) and keep the answer. A failing
        query is not kept, nor is one that calls a volatile function.
        """
        key = id(tree)
        with self._lock:
            kept = self._answers.get(key)
            if kept is not None and kept.tree is tree:
                self._answers.move_to_end(key)
            else:
                obs.count("sql.execute.misses")
                sql = print_query(_runnable(tree))
                rows = self._run(sql)[0]
                if not query_is_ordered(tree):
                    rows.sort(key=row_sort_key)
                kept = _Answer(tree, tuple(column_names(tree)), tuple(rows))
                if _VOLATILE_CALL.search(sql) is None:
                    self._answers[key] = kept
                    if len(self._answers) > RESULT_MEMO_SIZE:
                        self._answers.popitem(last=False)
        return list(kept.columns), list(kept.rows)

    def fetch(self, sql: str) -> list[Row]:
        """Run a statement that changes nothing and return its rows."""
        with self._lock:
            return self._run(sql)[0]

    def write(self, sql: str) -> int:
        """Run a statement that changes the database: rows affected.

        Clears the memo first, so no later query sees rows or column
        names from before.
        """
        with self._lock:
            self._answers.clear()
            return self._run(sql)[1]

    def write_rows(self, sql: str, rows: Sequence[Row]) -> None:
        """Run the INSERT ``sql`` once for each of ``rows``, all in one
        transaction: every row is stored, or none when one fails.

        Clears the memo once, first, as :meth:`write` does.
        """
        with self._lock:
            self._answers.clear()
            self._connection.execute("BEGIN")
            try:
                self._connection.executemany(sql, rows)
            except BaseException as exc:
                self._connection.execute("ROLLBACK")
                if isinstance(exc, _SQLITE_ERRORS):
                    raise _sql_error(exc) from exc
                raise
            self._connection.execute("COMMIT")

    def _run(self, sql: str) -> tuple[list[Row], int]:
        """(fetched rows, rows affected); the caller holds the lock."""
        try:
            cursor = self._connection.execute(sql)
            return cursor.fetchall(), cursor.rowcount
        except _SQLITE_ERRORS as exc:
            raise _sql_error(exc) from exc


def _sql_error(exc: Exception) -> SqlError:
    message = str(exc)
    if message.startswith(("no such table", "no such column")):
        return CatalogError(message)
    return ExecutionError(message)


class Database:
    """A named schema whose rows live in an in-memory SQLite database."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._connection = Connection()
        self._data: dict[str, TableData] = {}
        for table in schema.tables:
            self._create_storage(table)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_ddl(cls, name: str, ddl: str) -> "Database":
        """Build a database by running a script of CREATE TABLE statements."""
        db = cls(DatabaseSchema(name, []))
        for statement_text in _split_statements(ddl):
            db.execute(statement_text)
        return db

    def _create_storage(self, table: Table) -> None:
        key = table.primary_key
        pieces = []
        for column in table.columns:
            piece = f"{quote_identifier(column.name)} {_SQLITE_TYPES[column.dtype]}"
            if column is key:
                piece += " PRIMARY KEY"
            pieces.append(piece)
        self._connection.write(
            f"CREATE TABLE {quote_identifier(table.name)} ({', '.join(pieces)})"
        )
        self._data[table.key] = TableData(table, self._connection)

    # -- storage access -------------------------------------------------------

    def data(self, table_name: str) -> TableData:
        """Row storage for a table (raises CatalogError if unknown)."""
        key = table_name.lower()
        if key not in self._data:
            raise CatalogError(
                f"database {self.schema.name!r} has no table {table_name!r}"
            )
        return self._data[key]

    def load_rows(
        self, table_name: str, rows: Iterable[Sequence[SqlValue]]
    ) -> int:
        """Insert rows (values in declaration order) in one write, all or
        none. Returns count."""
        return self.data(table_name).insert(*rows)

    def row_count(self, table_name: str) -> int:
        return len(self.data(table_name))

    # -- execution --------------------------------------------------------------

    def execute(self, sql: str) -> ExecuteResult:
        """Parse and execute one SQL statement."""
        statement = parse_statement(sql)
        return self.execute_ast(statement)

    def query(self, sql: str) -> QueryResult:
        """Execute a statement that must be a query."""
        result = self.execute(sql)
        if not isinstance(result, QueryResult):
            raise ExecutionError("statement did not produce a result set")
        return result

    def execute_ast(self, statement: ast.Statement) -> ExecuteResult:
        """Execute an already-parsed statement.

        A query with no top-level ORDER BY returns its rows sorted by
        :func:`~repro.sql.comparison.row_sort_key`, so its row order
        depends on neither the engine nor the order rows were inserted in.
        A tree is printed, run and its columns named only the first time
        it arrives after a write (:meth:`Connection.answer`); every call
        still gets its own :class:`QueryResult`.
        """
        if not obs.is_enabled():
            return self._execute_ast(statement)
        obs.count("sql.execute.calls")
        with obs.timer("sql.execute.latency_ms"):
            try:
                return self._execute_ast(statement)
            except Exception:
                obs.count("sql.execute.failures")
                raise

    def _execute_ast(self, statement: ast.Statement) -> ExecuteResult:
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            return self._query(statement)
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.Insert):
            return self._insert(statement)
        if isinstance(statement, (ast.Update, ast.Delete)):
            affected = self._connection.write(print_statement(statement))
            return DmlResult(rows_affected=affected)
        if isinstance(statement, ast.DropTable):
            return self._drop_table(statement)
        raise ExecutionError(
            f"unsupported statement {type(statement).__name__}"
        )  # pragma: no cover

    def _query(self, query: ast.Query) -> QueryResult:
        columns, rows = self._connection.answer(query, self._column_names)
        return QueryResult(columns=columns, rows=rows)

    # -- result column names ----------------------------------------------------

    def _column_names(self, query: ast.Query) -> list[str]:
        """Output names: an alias, a column as written, a star's columns
        (lower-cased), or the printed expression."""
        if isinstance(query, ast.SetOperation):
            return self._column_names(query.left)
        names: list[str] = []
        for item in query.items:
            expr = item.expression
            if isinstance(expr, ast.Star) and item.alias is None:
                binding = expr.table.lower() if expr.table else None
                names.extend(
                    name
                    for source, name in self._source_columns(query.source)
                    if binding is None or source == binding
                )
            elif item.alias:
                names.append(item.alias)
            elif isinstance(expr, ast.ColumnRef):
                names.append(expr.column)
            else:
                names.append(print_expression(expr))
        return names

    def _source_columns(
        self, source: Optional[ast.TableExpression]
    ) -> list[tuple[str, str]]:
        """(binding, column) pairs a FROM clause makes visible, in order."""
        if source is None:
            return []
        if isinstance(source, ast.TableRef):
            binding = source.binding.lower()
            table = self.schema.table(source.name)
            return [(binding, column.key) for column in table.columns]
        if isinstance(source, ast.SubquerySource):
            binding = source.alias.lower()
            return [
                (binding, name.lower())
                for name in self._column_names(source.subquery)
            ]
        return self._source_columns(source.left) + self._source_columns(
            source.right
        )

    # -- DDL / DML ----------------------------------------------------------------

    def _create_table(self, stmt: ast.CreateTable) -> DmlResult:
        columns = [
            Column(
                name=col.name,
                dtype=DataType.from_name(col.type_name),
                primary_key=col.primary_key,
            )
            for col in stmt.columns
        ]
        foreign_keys = [
            ForeignKey(fk.column, fk.ref_table, fk.ref_column)
            for fk in stmt.foreign_keys
        ]
        table = Table(name=stmt.name, columns=columns, foreign_keys=foreign_keys)
        self.schema.add_table(table)
        self._create_storage(table)
        return DmlResult(rows_affected=0)

    def _insert(self, stmt: ast.Insert) -> DmlResult:
        """All rows or none, as SQLite runs one INSERT statement."""
        data = self.data(stmt.table)
        rows = [self._values(row_exprs) for row_exprs in stmt.rows]
        if not stmt.columns:
            return DmlResult(rows_affected=data.insert(*rows))
        if any(len(values) != len(stmt.columns) for values in rows):
            raise ExecutionError("INSERT value count does not match column list")
        return DmlResult(
            rows_affected=data.insert_named(
                *[dict(zip(stmt.columns, values)) for values in rows]
            )
        )

    def _values(self, exprs: Sequence[ast.Expression]) -> list[SqlValue]:
        """Evaluate one VALUES row. Literals keep their Python value for
        ``coerce`` (SQLite would turn TRUE into 1); SQLite computes the
        rest."""
        if all(isinstance(expr, ast.Literal) for expr in exprs):
            return [expr.value for expr in exprs]
        rows = self._connection.fetch(
            "SELECT " + ", ".join(print_expression(expr) for expr in exprs)
        )
        return list(rows[0])

    def _drop_table(self, stmt: ast.DropTable) -> DmlResult:
        key = stmt.name.lower()
        if key not in self._data:
            if stmt.if_exists:
                return DmlResult(rows_affected=0)
            raise CatalogError(
                f"database {self.schema.name!r} has no table {stmt.name!r}"
            )
        self._connection.write(f"DROP TABLE {quote_identifier(stmt.name)}")
        self.schema.drop_table(stmt.name)
        del self._data[key]
        return DmlResult(rows_affected=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.schema.name!r}, {len(self.schema.tables)} tables)"


def _runnable(query: ast.Query) -> ast.Query:
    """``query`` in a form SQLite accepts.

    SQLite has no parenthesized compound operands, so an operand with its
    own ORDER BY / LIMIT runs as a derived table:
    ``... UNION SELECT * FROM (SELECT ... ORDER BY ... LIMIT 1) AS operand``.
    """
    if isinstance(query, ast.Select):
        return query
    return dataclasses.replace(
        query, left=_operand(query.left), right=_operand(query.right)
    )


def _operand(query: ast.Query) -> ast.Query:
    if isinstance(query, ast.Select) and (
        query.order_by or query.limit is not None or query.offset is not None
    ):
        return ast.Select(
            items=(ast.SelectItem(ast.Star()),),
            source=ast.SubquerySource(query, "operand"),
        )
    return _runnable(query)


def _split_statements(script: str) -> list[str]:
    """Split a SQL script on semicolons that are outside string literals."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    index = 0
    while index < len(script):
        char = script[index]
        if in_string:
            current.append(char)
            if char == "'":
                if script[index + 1 : index + 2] == "'":
                    current.append("'")
                    index += 1
                else:
                    in_string = False
        elif char == "'":
            in_string = True
            current.append(char)
        elif char == ";":
            text = "".join(current).strip()
            if text:
                statements.append(text)
            current = []
        else:
            current.append(char)
        index += 1
    text = "".join(current).strip()
    if text:
        statements.append(text)
    return statements
