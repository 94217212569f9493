"""Text formats: the .alg algebra format, terms, identities, partitions.

The algebra grammar is line oriented:

    algebra NAME
    size N
    op NAME ARITY
    <n^ARITY entries, whitespace/newline separated, last argument fastest>
    derive NAME ARITY = TERM
    # comment

A table is read line by line: each line of it must be all decimal
digits (other scripts' digits are rewritten in ASCII), and its tokens
are kept as text.  When the table is complete they are converted in one
`np.fromstring` call and range-checked on the array, which
`OperationTable` takes as it is.  Before any error inside a table (too
many entries, too few, a line that is not entries) the lines read so far
are range-checked first, so the first entry out of range is reported at
its own line and column, as if each line were checked as it is read.

Terms are identifiers with parentheses and commas; element literals are
written @k.  Variables are identifiers bound by first use and mapped to
indices in order of appearance.
"""

from __future__ import annotations

import re
from typing import List, Tuple

import numpy as np

from .core import (MAX_VARIABLES, AlgebraError, App, CapExceeded, Const,
                   FiniteAlgebra, Identity, OperationTable, Quasiidentity, Term,
                   Var, check_power, fits_int, materialize_term)


class ParseError(ValueError):
    def __init__(self, line: int, col: int, reason: str):
        self.line = line
        self.col = col
        self.reason = reason
        super().__init__(f"line {line}, column {col}: {reason}")


def _number(digits: str, line: int, col: int) -> int:
    """`digits`, a string of decimal digits at (line, col), as an int; a
    ParseError there when it has more digits than `int` converts."""
    if not fits_int(digits):
        raise ParseError(line, col, f"a number of {len(digits)} digits is out of range")
    return int(digits)


def _column(body: str, index: int) -> int:
    """The column of the whitespace-separated token `index` of `body`."""
    return [m.start() + 1 for m in re.finditer(r"\S+", body)][index]


_TOKEN_RE = re.compile(r"\s*(->|[A-Za-z_][A-Za-z0-9_]*|@?\d+|[(),=&|])")


def _tokenize(text: str, line: int = 1):
    """(kind, value, line, col) tuples; kinds: name, int, const, punct."""
    tokens = []
    for lineno, raw in enumerate(text.splitlines() or [""], start=line):
        body = raw.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            if body[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(body, pos)
            if not m or m.start(1) != pos:
                raise ParseError(lineno, pos + 1, f"unexpected character {body[pos]!r}")
            tok = m.group(1)
            col = pos + 1
            if tok.startswith("@"):
                tokens.append(("const", _number(tok[1:], lineno, col + 1), lineno, col))
            elif tok.isdecimal():
                tokens.append(("int", _number(tok, lineno, col), lineno, col))
            elif tok[0].isalpha() or tok[0] == "_":
                tokens.append(("name", tok, lineno, col))
            else:
                tokens.append(("punct", tok, lineno, col))
            pos = m.end(1)
    return tokens


class _TermParser:
    """Recursive-descent term parser over a token list, with variables
    bound by first use across the whole expression."""

    def __init__(self, tokens, signature=None):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature
        self.variables: dict = {}

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected=None):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else (None, None, 1, 1)
            raise ParseError(last[2], last[3], "unexpected end of input")
        if expected is not None and (tok[0], tok[1]) != expected:
            raise ParseError(tok[2], tok[3],
                             f"expected {expected[1]!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def term(self) -> Term:
        tok = self._next()
        kind, value, lineno, col = tok
        if kind == "const":
            return Const(value)
        if kind != "name":
            raise ParseError(lineno, col, f"expected a term, found {value!r}")
        nxt = self._peek()
        if nxt is not None and nxt[:2] == ("punct", "("):
            self._next()
            args = [self.term()]
            while True:
                sep = self._next()
                if sep[:2] == ("punct", ")"):
                    break
                if sep[:2] != ("punct", ","):
                    raise ParseError(sep[2], sep[3],
                                     f"expected ',' or ')', found {sep[1]!r}")
                args.append(self.term())
            if self.signature is not None:
                if value not in self.signature:
                    raise ParseError(lineno, col, f"unknown operation '{value}'")
                if self.signature[value] != len(args):
                    raise ParseError(
                        lineno, col,
                        f"operation '{value}' has arity {self.signature[value]}, "
                        f"applied to {len(args)} arguments")
            return App(value, tuple(args))
        if value not in self.variables:
            self.variables[value] = len(self.variables)
        return Var(self.variables[value])

    def identity(self) -> Identity:
        lhs = self.term()
        self._next(("punct", "="))
        return Identity(lhs, self.term())

    def quasiidentity(self) -> Quasiidentity:
        idents = [self.identity()]
        while True:
            tok = self._peek()
            if tok is None:
                return Quasiidentity((), idents[0]) if len(idents) == 1 \
                    else self._fail_arrow()
            if tok[:2] == ("punct", "&"):
                self._next()
                idents.append(self.identity())
            elif tok[:2] == ("punct", "->"):
                self._next()
                conclusion = self.identity()
                self._expect_end()
                return Quasiidentity(tuple(idents), conclusion)
            else:
                raise ParseError(tok[2], tok[3],
                                 f"expected '&' or '->', found {tok[1]!r}")

    def _fail_arrow(self):
        last = self.tokens[-1]
        raise ParseError(last[2], last[3], "expected '->' before the conclusion")

    def _expect_end(self):
        tok = self._peek()
        if tok is not None:
            raise ParseError(tok[2], tok[3], f"unexpected trailing {tok[1]!r}")


def parse_term(text: str, signature=None) -> Term:
    parser = _TermParser(_tokenize(text), signature)
    term = parser.term()
    parser._expect_end()
    return term


def parse_identity(text: str, signature=None) -> Identity:
    parser = _TermParser(_tokenize(text), signature)
    ident = parser.identity()
    parser._expect_end()
    return ident


def parse_quasiidentity(text: str, signature=None) -> Quasiidentity:
    return _TermParser(_tokenize(text), signature).quasiidentity()


_VAR_NAMES = ("x", "y", "z", "u", "v", "w")


def var_name(index: int) -> str:
    return _VAR_NAMES[index] if index < len(_VAR_NAMES) else f"x{index}"


def format_term(term: Term) -> str:
    if isinstance(term, Var):
        return var_name(term.index)
    if isinstance(term, Const):
        return f"@{term.value}"
    return f"{term.symbol}({', '.join(format_term(a) for a in term.args)})"


# ---------------------------------------------------------------------------
# Algebra files

def _read_table(lines, size: int, need: int, header_line: int) -> np.ndarray:
    """The `need` entries of one table, read from `lines`, an iterator of
    (line number, line) pairs, up to the table's last line.  Too many
    entries, too few, or a line that is not entries is a ParseError, raised
    after the entries read so far are range-checked."""
    tokens_so_far: List[str] = []
    starts: List[Tuple[int, int]] = []     # (first token index, line number)
    for lineno, line in lines:
        body = line.split("#", 1)[0]
        tokens = body.split()
        if not tokens:
            continue
        if not "".join(tokens).isdecimal():
            break
        if not body.isascii():              # other decimal digits, e.g. U+FF11
            tokens = ["".join(str(int(c)) for c in t) for t in tokens]
        starts.append((len(tokens_so_far), lineno))
        tokens_so_far += tokens
        if len(tokens_so_far) >= need:
            entries = _table_entries(tokens_so_far, starts, size)
            if len(tokens_so_far) > need:
                raise ParseError(lineno, 1,
                                 f"expected {need} entries, got {len(tokens_so_far)}")
            return entries
    _table_entries(tokens_so_far, starts, size)
    raise ParseError(header_line, 1,
                     f"expected {need} entries, got {len(tokens_so_far)}")


def _table_entries(tokens: List[str], starts: List[Tuple[int, int]],
                   size: int) -> np.ndarray:
    """The entries read so far, as one int64 array, or a ParseError at the
    first one out of range.

    `tokens` are ASCII digit strings and `starts` holds (index of its
    first token, line number) for each line they came from.  A token past
    int64 parses as the int64 maximum (strtoll saturates), so it is out of
    range too, and the message quotes its text.
    """
    values = np.fromstring(" ".join(tokens), dtype=np.int64, sep=" ")
    if values.size and values.max() >= size:
        at = int(np.argmax(values >= size))
        first, lineno = next(start for start in reversed(starts) if start[0] <= at)
        raise ParseError(lineno, at - first + 1,
                         f"entry {tokens[at].lstrip('0') or '0'} "
                         f"out of range 0..{size - 1}")
    return values


def parse_algebra(text: str) -> FiniteAlgebra:
    name = None
    size = None
    ops: List[Tuple[str, OperationTable]] = []
    symbols = set()

    lines = enumerate(text.splitlines(), start=1)
    for lineno, line in lines:
        body = line.split("#", 1)[0]
        tokens = body.split()
        if not tokens:
            continue
        head = tokens[0]

        if head == "algebra":
            if name is not None:
                raise ParseError(lineno, 1, "duplicate 'algebra' line")
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "usage: algebra NAME")
            name = tokens[1]
        elif head == "size":
            if name is None:
                raise ParseError(lineno, 1, "'size' before 'algebra'")
            if size is not None:
                raise ParseError(lineno, 1, "duplicate 'size' line")
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(lineno, 1, "usage: size N with N >= 1")
            size = _number(tokens[1], lineno, _column(body, 1))
            if size < 1:
                raise ParseError(lineno, 1, "usage: size N with N >= 1")
        elif head == "op":
            if size is None:
                raise ParseError(lineno, 1, "'op' before 'size'")
            if len(tokens) != 3 or not tokens[2].isdecimal():
                raise ParseError(lineno, 1, "usage: op NAME ARITY")
            sym, arity = tokens[1], _number(tokens[2], lineno, _column(body, 2))
            if arity < 1:
                raise ParseError(lineno, 1, f"arity must be >= 1, got {arity}")
            if arity > MAX_VARIABLES:        # before size ** arity is computed
                raise ParseError(lineno, 1, f"arity {arity} is beyond the cap "
                                            f"of {MAX_VARIABLES}")
            try:                             # so is a count past int64
                check_power(size, arity, f"operation '{sym}'", 1 << 63)
            except CapExceeded as exc:
                raise ParseError(lineno, 1, str(exc)) from None
            if sym in symbols:
                raise ParseError(lineno, 1, f"duplicate operation symbol '{sym}'")
            symbols.add(sym)
            entries = _read_table(lines, size, size ** arity, lineno)
            ops.append((sym, OperationTable(arity, size, entries)))
        elif head == "derive":
            if size is None:
                raise ParseError(lineno, 1, "'derive' before 'size'")
            rest = body.split(None, 1)[1] if len(tokens) > 1 else ""
            m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s+(\d+)\s*=\s*(.+)$", rest)
            if not m:
                raise ParseError(lineno, 1, "usage: derive NAME ARITY = TERM")
            sym, term_text = m.group(1), m.group(3)
            arity = _number(m.group(2), lineno, len(body) - len(rest) + m.start(2) + 1)
            if arity < 1:
                raise ParseError(lineno, 1, f"arity must be >= 1, got {arity}")
            if sym in symbols:
                raise ParseError(lineno, 1, f"duplicate operation symbol '{sym}'")
            signature = {s: t.arity for s, t in ops}
            partial = FiniteAlgebra(name or "partial", size, ops)
            try:
                term = _TermParser(_tokenize(term_text, lineno), signature).term()
                table = materialize_term(partial, term, arity)
            except AlgebraError as exc:
                raise ParseError(lineno, 1, f"bad derive term: {exc}") from None
            except RecursionError:
                raise ParseError(lineno, 1, "derive term is nested too deeply") from None
            symbols.add(sym)
            ops.append((sym, table))
        else:
            raise ParseError(lineno, 1, f"unknown directive '{head}'")

    if name is None:
        raise ParseError(1, 1, "missing 'algebra NAME' line")
    if size is None:
        raise ParseError(1, 1, "missing 'size N' line")
    if not ops:
        raise ParseError(1, 1, "an algebra needs at least one operation")
    return FiniteAlgebra(name, size, ops)


def format_algebra(alg: FiniteAlgebra) -> str:
    lines = [f"algebra {alg.name}", f"size {alg.size}"]
    names = [str(v) for v in range(alg.size)]
    for sym, table in alg.operations.items():
        lines.append(f"op {sym} {table.arity}")
        words = map(names.__getitem__, table.array.tolist())
        lines += map(" ".join, zip(*[words] * alg.size))   # rows of n entries
    return "\n".join(lines) + "\n"
