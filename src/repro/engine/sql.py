"""A small SQL front end for the query shapes the engine supports.

Grammar (case-insensitive keywords)::

    query      := SELECT select_list FROM name [JOIN name ON colref = colref]
                  [WHERE disjunction]
    select_list := '*' | colref (',' colref)*
    colref      := name | name '.' name
    disjunction := conjunction (OR conjunction)*
    conjunction := negation (AND negation)*
    negation    := NOT negation | primary
    primary     := '(' disjunction ')' | colref op literal
    op          := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
    literal     := integer | float | 'string'

For join queries, WHERE terms are attributed to operands: every
comparison (and every OR subtree) must reference columns of exactly one
table, since the engine models per-operand local selections.  Unqualified
column names are resolved against the supplied schemas and must be
unambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import SQLSyntaxError
from .predicate import And, Comparison, Not, Or, Predicate, TRUE, conjoin, map_columns
from .query import JoinQuery, Query, SelectQuery
from .schema import TableSchema

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<float>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<string>'(?:[^']|'')*')
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op><=|>=|!=|<>|=|<|>)
    | (?P<punct>[(),.*-])
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select",
    "from",
    "where",
    "join",
    "on",
    "and",
    "or",
    "not",
    "order",
    "by",
    "asc",
    "desc",
    "limit",
}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    position: int


def tokenize(sql: str) -> list[_Token]:
    """Tokenize *sql*, raising :class:`SQLSyntaxError` on junk."""
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            if sql[pos:].strip() == "":
                break
            raise SQLSyntaxError(f"unexpected character {sql[pos]!r}", pos)
        kind = match.lastgroup
        assert kind is not None
        value = match.group(kind)
        if kind == "name" and value.lower() in _KEYWORDS:
            tokens.append(_Token("keyword", value.lower(), match.start(kind)))
        else:
            tokens.append(_Token(kind, value, match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str, schemas: Optional[Mapping[str, TableSchema]]) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.schemas = schemas or {}

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of query", len(self.sql))
        self.pos += 1
        return token

    def _expect_keyword(self, word: str) -> None:
        token = self._next()
        if token.kind != "keyword" or token.value != word:
            raise SQLSyntaxError(f"expected {word.upper()}, got {token.value!r}", token.position)

    def _expect_punct(self, char: str) -> None:
        token = self._next()
        if token.kind != "punct" or token.value != char:
            raise SQLSyntaxError(f"expected {char!r}, got {token.value!r}", token.position)

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "keyword" and token.value == word:
            self.pos += 1
            return True
        return False

    def _accept_punct(self, char: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "punct" and token.value == char:
            self.pos += 1
            return True
        return False

    def _expect_name(self) -> str:
        token = self._next()
        if token.kind != "name":
            raise SQLSyntaxError(f"expected a name, got {token.value!r}", token.position)
        return token.value

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Query:
        self._expect_keyword("select")
        star, columns = self._select_list()
        self._expect_keyword("from")
        left = self._expect_name()
        right = None
        join_left = join_right = None
        if self._accept_keyword("join"):
            right = self._expect_name()
            self._expect_keyword("on")
            join_left = self._colref()
            token = self._next()
            if token.kind != "op" or token.value != "=":
                raise SQLSyntaxError("join condition must be an equality", token.position)
            join_right = self._colref()
        where: Predicate = TRUE
        if self._accept_keyword("where"):
            where = self._disjunction()
        order_by = self._order_by_clause(left)
        limit = self._limit_clause()
        trailing = self._peek()
        if trailing is not None:
            raise SQLSyntaxError(f"trailing input: {trailing.value!r}", trailing.position)

        if right is None:
            cols = () if star else tuple(c[1] if c[0] is None else c[1] for c in columns)
            self._check_unary_qualifiers(left, columns)
            return SelectQuery(left, cols, where, order_by=order_by, limit=limit)
        if order_by or limit is not None:
            raise SQLSyntaxError("ORDER BY / LIMIT are not supported on join queries")
        return self._build_join(left, right, star, columns, join_left, join_right, where)

    def _order_by_clause(self, table: str) -> tuple[tuple[str, bool], ...]:
        if not self._accept_keyword("order"):
            return ()
        self._expect_keyword("by")
        terms = []
        while True:
            qualifier, column = self._colref()
            if qualifier is not None and qualifier != table:
                raise SQLSyntaxError(
                    f"ORDER BY qualifier {qualifier!r} does not match FROM table"
                )
            ascending = True
            if self._accept_keyword("desc"):
                ascending = False
            else:
                self._accept_keyword("asc")
            terms.append((column, ascending))
            if not self._accept_punct(","):
                break
        return tuple(terms)

    def _limit_clause(self) -> Optional[int]:
        if not self._accept_keyword("limit"):
            return None
        token = self._next()
        if token.kind != "int":
            raise SQLSyntaxError(
                f"LIMIT needs an integer, got {token.value!r}", token.position
            )
        return int(token.value)

    def _select_list(self):
        if self._accept_punct("*"):
            return True, []
        columns = [self._colref()]
        while self._accept_punct(","):
            columns.append(self._colref())
        return False, columns

    def _colref(self) -> tuple[Optional[str], str]:
        """Parse ``name`` or ``table.name`` → (qualifier | None, column)."""
        first = self._expect_name()
        if self._accept_punct("."):
            return first, self._expect_name()
        return None, first

    def _disjunction(self) -> Predicate:
        node = self._conjunction()
        while self._accept_keyword("or"):
            node = Or(node, self._conjunction())
        return node

    def _conjunction(self) -> Predicate:
        node = self._negation()
        while self._accept_keyword("and"):
            node = And(node, self._negation())
        return node

    def _negation(self) -> Predicate:
        if self._accept_keyword("not"):
            return Not(self._negation())
        return self._primary()

    def _primary(self) -> Predicate:
        if self._accept_punct("("):
            node = self._disjunction()
            self._expect_punct(")")
            return node
        qualifier, column = self._colref()
        token = self._next()
        if token.kind != "op":
            raise SQLSyntaxError(
                f"expected comparison operator, got {token.value!r}", token.position
            )
        op = "!=" if token.value == "<>" else token.value
        value = self._literal()
        name = f"{qualifier}.{column}" if qualifier else column
        return Comparison(name, op, value)

    def _literal(self):
        sign = 1
        if self._accept_punct("-"):
            sign = -1
        token = self._next()
        if token.kind == "int":
            return sign * int(token.value)
        if token.kind == "float":
            return sign * float(token.value)
        if token.kind == "string":
            if sign < 0:
                raise SQLSyntaxError("cannot negate a string literal", token.position)
            return token.value[1:-1].replace("''", "'")
        raise SQLSyntaxError(f"expected a literal, got {token.value!r}", token.position)

    # -- name resolution ----------------------------------------------------------

    def _check_unary_qualifiers(self, table, columns) -> None:
        for qualifier, _ in columns:
            if qualifier is not None and qualifier != table:
                raise SQLSyntaxError(f"qualifier {qualifier!r} does not match FROM table")

    def _build_join(self, left, right, star, columns, join_left, join_right, where) -> JoinQuery:
        resolve = _Resolver(left, right, self.schemas).resolve
        left_col = resolve(join_left, "join condition")
        right_col = resolve(join_right, "join condition")
        if left_col[0] == right_col[0]:
            raise SQLSyntaxError("join condition must relate the two tables")
        if left_col[0] == right:
            left_col, right_col = right_col, left_col
        out_cols: tuple[str, ...] = ()
        if not star:
            out_cols = tuple(
                "{}.{}".format(*resolve(c, "select list")) for c in columns
            )
        left_pred, right_pred = _split_join_predicate(where, left, right, resolve)
        return JoinQuery(
            left,
            right,
            left_col[1],
            right_col[1],
            out_cols,
            left_pred,
            right_pred,
        )


class _Resolver:
    """Resolve (qualifier, column) pairs against two operand schemas."""

    def __init__(self, left: str, right: str, schemas: Mapping[str, TableSchema]):
        self.left = left
        self.right = right
        self.schemas = schemas

    def resolve(self, colref: tuple[Optional[str], str], context: str) -> tuple[str, str]:
        qualifier, column = colref
        if qualifier is not None:
            if qualifier not in (self.left, self.right):
                raise SQLSyntaxError(
                    f"{context}: {qualifier!r} is not an operand table"
                )
            return qualifier, column
        owners = [
            t
            for t in (self.left, self.right)
            if t in self.schemas and column in self.schemas[t]
        ]
        if len(owners) == 1:
            return owners[0], column
        if len(owners) > 1:
            raise SQLSyntaxError(f"{context}: column {column!r} is ambiguous")
        raise SQLSyntaxError(
            f"{context}: cannot resolve column {column!r} "
            "(qualify it or provide schemas)"
        )


def _split_join_predicate(where: Predicate, left: str, right: str, resolve):
    """Attribute each conjunct of *where* to one operand.

    A subtree whose columns all belong to one table goes to that operand
    whole, so ``str(JoinQuery)`` parses back to an equal query; an AND
    that mixes tables is split further.  Below AND all columns must
    belong to a single table.  Column names are rewritten to their
    unqualified form for per-table evaluation.
    """
    terms: dict[str, list[Predicate]] = {left: [], right: []}

    def attribute(term: Predicate) -> None:
        owners: set[str] = set()

        def unqualified(name: str) -> str:
            qualifier, _, column = name.rpartition(".")
            table, column = resolve((qualifier or None, column), "WHERE clause")
            owners.add(table)
            return column

        rewritten = map_columns(term, unqualified)
        if len(owners) == 1:
            terms[owners.pop()].append(rewritten)
        elif isinstance(term, And):
            attribute(term.left)
            attribute(term.right)
        elif owners:
            raise SQLSyntaxError(
                f"WHERE term {term} must reference exactly one operand table"
            )

    attribute(where)
    return conjoin(terms[left]), conjoin(terms[right])


def parse_query(
    sql: str, schemas: Optional[Mapping[str, TableSchema]] = None
) -> Query:
    """Parse *sql* into a :class:`SelectQuery` or :class:`JoinQuery`.

    *schemas* (table name → schema) is required to resolve unqualified
    column names in join queries; unary queries never need it.
    """
    return _Parser(sql, schemas).parse()
