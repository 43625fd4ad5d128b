"""A minimal GraphQL dialect: the subset the ENS subgraph crawl needs.

Supports exactly the query shapes the paper's data collection issues:

    {
      domains(first: 1000, where: {expiryDate_lt: 123, labelName_not: null},
              orderBy: id, orderDirection: asc) {
        id name labelName expiryDate
        registrations { id registrant }
      }
    }

i.e. top-level entity collections with ``first``/``skip`` pagination,
``where`` filters (equality plus ``_gt/_gte/_lt/_lte/_ne/_not/_in``
suffixes), ordering, and nested field projection. Anything outside the
subset raises :class:`GraphQLError` with a position, like a real
endpoint's error payload. So does a string escape other than ``\\"``
and ``\\\\``, a malformed number literal, and nesting deeper than
:data:`MAX_DEPTH` — the text is untrusted input, and no query may end
in a ``ValueError`` or ``RecursionError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["GraphQLError", "MAX_DEPTH", "parse_query", "execute_query"]

#: Deepest nesting of selection sets, objects and lists a query may use.
#: The crawl's deepest query is three levels deep; the parser recurses once per
#: level, so the bound keeps hostile input far from the interpreter's
#: recursion limit.
MAX_DEPTH = 32


class GraphQLError(ValueError):
    """Query rejected: syntax error or unsupported construct."""


# -- lexer -------------------------------------------------------------------

_PUNCTUATION = set("{}():,[]")

#: A string literal: ``\"`` and ``\\`` are its only escapes, the
#: quoting subgraph clients send (a name may contain a ``"``).
_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # 'punct' | 'name' | 'int' | 'float' | 'string'
    value: Any
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    index, length = 0, len(text)
    while index < length:
        char = text[index]
        if char.isspace() or char == ",":
            index += 1
            continue
        if char in _PUNCTUATION:
            tokens.append(_Token("punct", char, index))
            index += 1
            continue
        if char == '"':
            match = _STRING.match(text, index)
            if match is None:
                raise GraphQLError(f"unterminated string at {index}")
            body = match.group(1)
            for escape in _ESCAPE.finditer(body):
                if escape.group(1) not in '"\\':
                    raise GraphQLError(
                        f"unsupported escape {escape.group()!r}"
                        f" at {match.start(1) + escape.start()}"
                    )
            tokens.append(_Token("string", _ESCAPE.sub(r"\1", body), index))
            index = match.end()
            continue
        if char.isdigit() or (char == "-" and index + 1 < length and text[index + 1].isdigit()):
            start = index
            index += 1
            while index < length and (text[index].isdigit() or text[index] == "."):
                index += 1
            literal = text[start:index]
            try:
                if "." in literal:
                    tokens.append(_Token("float", float(literal), start))
                else:
                    tokens.append(_Token("int", int(literal), start))
            except ValueError:
                raise GraphQLError(f"malformed number {literal!r} at {start}") from None
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            tokens.append(_Token("name", text[start:index], start))
            continue
        raise GraphQLError(f"unexpected character {char!r} at {index}")
    return tokens


# -- parser -------------------------------------------------------------------


@dataclass(slots=True)
class FieldNode:
    """A selected field, possibly with arguments and sub-selections."""

    name: str
    arguments: dict[str, Any] = field(default_factory=dict)
    selections: list["FieldNode"] = field(default_factory=list)


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> _Token | None:
        return self._tokens[self._index] if self._index < len(self._tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise GraphQLError("unexpected end of query")
        self._index += 1
        return token

    def _expect_punct(self, char: str) -> None:
        token = self._next()
        if token.kind != "punct" or token.value != char:
            raise GraphQLError(
                f"expected {char!r} at {token.position}, got {token.value!r}"
            )

    def parse(self) -> list[FieldNode]:
        token = self._peek()
        # optional leading 'query' keyword
        if token is not None and token.kind == "name" and token.value == "query":
            self._next()
        self._expect_punct("{")
        fields = self._parse_selections(1)
        if self._peek() is not None:
            extra = self._peek()
            raise GraphQLError(f"trailing content at {extra.position}")
        return fields

    @staticmethod
    def _check_depth(depth: int, token: _Token) -> None:
        if depth > MAX_DEPTH:
            raise GraphQLError(
                f"nested deeper than {MAX_DEPTH} levels at {token.position}"
            )

    def _parse_selections(self, depth: int) -> list[FieldNode]:
        fields: list[FieldNode] = []
        while True:
            token = self._peek()
            if token is None:
                raise GraphQLError("unterminated selection set")
            if token.kind == "punct" and token.value == "}":
                self._next()
                if not fields:
                    raise GraphQLError("empty selection set")
                return fields
            fields.append(self._parse_field(depth))

    def _parse_field(self, depth: int) -> FieldNode:
        token = self._next()
        if token.kind != "name":
            raise GraphQLError(f"expected field name at {token.position}")
        node = FieldNode(name=token.value)
        peeked = self._peek()
        if peeked is not None and peeked.kind == "punct" and peeked.value == "(":
            self._next()
            node.arguments = self._parse_arguments(depth)
        peeked = self._peek()
        if peeked is not None and peeked.kind == "punct" and peeked.value == "{":
            self._check_depth(depth + 1, self._next())
            node.selections = self._parse_selections(depth + 1)
        return node

    def _parse_arguments(self, depth: int) -> dict[str, Any]:
        arguments: dict[str, Any] = {}
        while True:
            token = self._next()
            if token.kind == "punct" and token.value == ")":
                return arguments
            if token.kind != "name":
                raise GraphQLError(f"expected argument name at {token.position}")
            self._expect_punct(":")
            arguments[token.value] = self._parse_value(depth + 1)

    def _parse_value(self, depth: int) -> Any:
        token = self._next()
        self._check_depth(depth, token)
        if token.kind in ("int", "float", "string"):
            return token.value
        if token.kind == "name":
            if token.value == "true":
                return True
            if token.value == "false":
                return False
            if token.value == "null":
                return None
            return token.value  # enum (asc/desc/orderBy targets)
        if token.kind == "punct" and token.value == "{":
            obj: dict[str, Any] = {}
            while True:
                inner = self._next()
                if inner.kind == "punct" and inner.value == "}":
                    return obj
                if inner.kind != "name":
                    raise GraphQLError(f"expected object key at {inner.position}")
                self._expect_punct(":")
                obj[inner.value] = self._parse_value(depth + 1)
        if token.kind == "punct" and token.value == "[":
            items: list[Any] = []
            while True:
                peeked = self._peek()
                if peeked is not None and peeked.kind == "punct" and peeked.value == "]":
                    self._next()
                    return items
                items.append(self._parse_value(depth + 1))
        raise GraphQLError(f"unexpected value at {token.position}")


def parse_query(text: str) -> list[FieldNode]:
    """Parse a query string into top-level field nodes."""
    return _Parser(_tokenize(text)).parse()


# -- execution -------------------------------------------------------------------

def _string_predicate(
    check: Callable[[str, str], bool]
) -> Callable[[Any, Any], bool]:
    """Wrap a str-vs-str check so null columns never match."""

    def predicate(lhs: Any, rhs: Any) -> bool:
        return isinstance(lhs, str) and isinstance(rhs, str) and check(lhs, rhs)

    return predicate


# Longest suffixes first so e.g. "_not_in" wins over "_in".
_FILTER_SUFFIXES: dict[str, Callable[[Any, Any], bool]] = {
    "_not_contains": _string_predicate(lambda lhs, rhs: rhs not in lhs),
    "_starts_with": _string_predicate(str.startswith),
    "_ends_with": _string_predicate(str.endswith),
    "_contains": _string_predicate(lambda lhs, rhs: rhs in lhs),
    "_not_in": lambda lhs, rhs: lhs not in rhs,
    "_gte": lambda lhs, rhs: lhs is not None and lhs >= rhs,
    "_lte": lambda lhs, rhs: lhs is not None and lhs <= rhs,
    "_gt": lambda lhs, rhs: lhs is not None and lhs > rhs,
    "_lt": lambda lhs, rhs: lhs is not None and lhs < rhs,
    "_ne": lambda lhs, rhs: lhs != rhs,
    "_not": lambda lhs, rhs: lhs != rhs,
    "_in": lambda lhs, rhs: lhs in rhs,
}


def _split_filter(key: str) -> tuple[str, Callable[[Any, Any], bool]]:
    for suffix, predicate in _FILTER_SUFFIXES.items():
        if key.endswith(suffix):
            return key[: -len(suffix)], predicate
    return key, lambda lhs, rhs: lhs == rhs


def _matches(row: dict[str, Any], where: dict[str, Any]) -> bool:
    for key, expected in where.items():
        # boolean combinators take a list of sub-filters (The Graph's
        # `and`/`or` operators)
        if key in ("and", "or"):
            if not isinstance(expected, list) or not all(
                isinstance(item, dict) for item in expected
            ):
                raise GraphQLError(f"{key!r} expects a list of filter objects")
            results = (_matches(row, sub_filter) for sub_filter in expected)
            combined = all(results) if key == "and" else any(results)
            if not combined:
                return False
            continue
        column, predicate = _split_filter(key)
        if column not in row:
            raise GraphQLError(f"unknown filter field {column!r}")
        if not predicate(row[column], expected):
            return False
    return True


def _project(row: dict[str, Any], selections: list[FieldNode]) -> dict[str, Any]:
    projected: dict[str, Any] = {}
    for selection in selections:
        if selection.name not in row:
            raise GraphQLError(f"unknown field {selection.name!r}")
        value = row[selection.name]
        if selection.selections:
            if isinstance(value, list):
                value = [_project(item, selection.selections) for item in value]
            elif isinstance(value, dict):
                value = _project(value, selection.selections)
            else:
                raise GraphQLError(
                    f"field {selection.name!r} has no sub-fields to select"
                )
        projected[selection.name] = value
    return projected


def execute_query(
    fields: list[FieldNode],
    collections: dict[str, Callable[[], list[dict[str, Any]]]],
    max_first: int,
    max_skip: int,
    default_first: int = 100,
) -> dict[str, Any]:
    """Run parsed fields against named collections; returns the data dict."""
    data: dict[str, Any] = {}
    for node in fields:
        provider = collections.get(node.name)
        if provider is None:
            raise GraphQLError(f"unknown collection {node.name!r}")
        if not node.selections:
            raise GraphQLError(f"collection {node.name!r} requires a selection set")
        first = node.arguments.get("first", default_first)
        skip = node.arguments.get("skip", 0)
        if not isinstance(first, int) or first <= 0:
            raise GraphQLError("'first' must be a positive integer")
        if not isinstance(skip, int) or skip < 0:
            raise GraphQLError("'skip' must be a non-negative integer")
        if first > max_first:
            raise GraphQLError(
                f"'first' of {first} exceeds the {max_first} limit"
            )
        if skip > max_skip:
            raise GraphQLError(f"'skip' of {skip} exceeds the {max_skip} limit")
        where = node.arguments.get("where", {})
        if not isinstance(where, dict):
            raise GraphQLError("'where' must be an object")
        rows = [row for row in provider() if _matches(row, where)]
        order_by = node.arguments.get("orderBy")
        if order_by is not None:
            if rows and order_by not in rows[0]:
                raise GraphQLError(f"unknown orderBy field {order_by!r}")
            descending = node.arguments.get("orderDirection", "asc") == "desc"
            # None sorts first ascending (stable across mixed-type columns).
            rows.sort(
                key=lambda row: (row[order_by] is not None, row[order_by]),
                reverse=descending,
            )
        window = rows[skip : skip + first]
        data[node.name] = [_project(row, node.selections) for row in window]
    return data
