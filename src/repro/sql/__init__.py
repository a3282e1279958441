"""SQL front end (lexer, parser, AST, printer, edits) over stdlib sqlite3.

Public surface::

    from repro.sql import Database, parse_query, print_query

    db = Database.from_ddl("demo", "CREATE TABLE t (id INTEGER, name TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a')")
    print(db.query("SELECT name FROM t").rows)
"""

from repro.sql.comparison import (
    query_is_ordered,
    results_match,
    summarize_result,
)
from repro.sql.engine import Database, DmlResult, QueryResult
from repro.sql.io import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.sql.parser import parse_expression, parse_query, parse_statement
from repro.sql.printer import print_expression, print_query, print_statement
from repro.sql.schema import Column, DatabaseSchema, ForeignKey, Table
from repro.sql.types import DataType, SqlValue

__all__ = [
    "Column",
    "DataType",
    "Database",
    "DatabaseSchema",
    "DmlResult",
    "ForeignKey",
    "QueryResult",
    "SqlValue",
    "Table",
    "database_from_dict",
    "database_to_dict",
    "load_database",
    "save_database",
    "parse_expression",
    "parse_query",
    "parse_statement",
    "print_expression",
    "print_query",
    "print_statement",
    "query_is_ordered",
    "results_match",
    "summarize_result",
]
