"""The frozen-AST contract: nodes are immutable, hashable values.

A parsed tree may be shared by every caller that parses the same text, so
no node may change after construction, and every sequence inside a node
must be a tuple (a stray list makes the node unhashable and unequal to
the parser's tree for the same SQL).
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.eval import harness
from repro.eval.experiments import run_figure2, run_figure8, run_table2, run_table3
from repro.sql import ast, parser
from repro.sql.parser import Parser, parse_query, parse_statement

NODE_TYPES = [
    cls
    for _name, cls in inspect.getmembers(ast, inspect.isclass)
    if dataclasses.is_dataclass(cls) and cls.__module__ == ast.__name__
]


def nodes(value):
    """``value`` and every node nested in it, subqueries included."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif dataclasses.is_dataclass(item):
            yield item
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))


SAMPLE = (
    "SELECT DISTINCT T1.a, COUNT(DISTINCT b) AS n, CASE WHEN c > 1 THEN 'x' "
    "ELSE 'y' END FROM t AS T1 JOIN (SELECT a FROM u) AS T2 ON T1.a = T2.a "
    "WHERE T1.a IN (1, 2) AND b LIKE 'z%' AND c BETWEEN 1 AND 9 "
    "AND d IS NOT NULL AND EXISTS (SELECT 1 FROM v) AND -e < (SELECT MAX(e) "
    "FROM v) AND f NOT IN (SELECT f FROM w) GROUP BY T1.a "
    "HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5"
)


def test_every_node_type_is_frozen_and_slotted():
    assert len(NODE_TYPES) > 25
    for cls in NODE_TYPES:
        assert cls.__dataclass_params__.frozen, cls.__name__
        assert "__slots__" in cls.__dict__, cls.__name__


def test_assigning_any_field_of_any_node_raises():
    statements = [
        parse_query(SAMPLE),
        parse_query("SELECT a FROM t UNION SELECT a FROM u ORDER BY a"),
        parse_statement(
            "CREATE TABLE t (id INTEGER, PRIMARY KEY (id), "
            "FOREIGN KEY (id) REFERENCES u(id))"
        ),
        parse_statement("INSERT INTO t (a) VALUES (1), (2)"),
        parse_statement("UPDATE t SET a = 1 WHERE b = 2"),
        parse_statement("DELETE FROM t WHERE a = 1"),
        parse_statement("DROP TABLE IF EXISTS t"),
    ]
    seen = set()
    for statement in statements:
        for node in nodes(statement):
            seen.add(type(node))
            for f in dataclasses.fields(node):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, f.name, getattr(node, f.name))
    assert seen == set(NODE_TYPES)


def test_nodes_pickle_deepcopy_and_hash_by_value():
    tree = parse_query(SAMPLE)
    call = ast.FunctionCall("count", (ast.Star(),))
    assert call.name == "COUNT"  # __post_init__ upper-cases through the freeze
    for value in (tree, call):
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert clone == value and hash(clone) == hash(value)
            assert clone is not value
    assert pickle.loads(pickle.dumps(call)).name == "COUNT"
    assert hash(tree) == hash(Parser(SAMPLE).parse_query())


def test_rewrite_rebuilds_bottom_up_and_shares_what_it_keeps():
    tree = parse_query("SELECT a + b, c FROM t WHERE a = 1")
    visited = []

    def rename_a(node):
        visited.append(type(node).__name__)
        if isinstance(node, ast.ColumnRef) and node.column == "a":
            return dataclasses.replace(node, column="z")
        return node

    items = ast.rewrite(tree.items, rename_a)
    assert visited == [
        "ColumnRef", "ColumnRef", "BinaryOp", "SelectItem", "ColumnRef", "SelectItem",
    ]
    assert items[0].expression == ast.BinaryOp(
        ast.BinaryOperator.ADD, ast.ColumnRef("z"), ast.ColumnRef("b")
    )
    assert items[0].expression.right is tree.items[0].expression.right
    assert items[1] is tree.items[1]
    assert ast.rewrite(tree.items, lambda node: node) is tree.items
    assert tree == Parser("SELECT a + b, c FROM t WHERE a = 1").parse_query()


def test_every_node_a_small_build_and_sweep_parses_is_hashable():
    parsed = []
    parse_one, parse_any = Parser.parse_query, Parser.parse_statement

    def recording_query(self):
        parsed.append(parse_one(self))
        return parsed[-1]

    def recording_statement(self):
        parsed.append(parse_any(self))
        return parsed[-1]

    # An empty memo makes every distinct text reach the parser.
    parser._parse_query.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Parser, "parse_query", recording_query)
        patch.setattr(Parser, "parse_statement", recording_statement)
        # An empty cache makes build_context generate the suites, so the
        # generator's parses are recorded too.
        patch.setattr(harness, "_CONTEXT_CACHE", {})
        context = harness.build_context("small", 20250325)
        for run in (run_figure2, run_table2, run_figure8, run_table3):
            run(context)
    assert len(parsed) > 100
    for statement in parsed:
        for node in nodes(statement):
            hash(node)
