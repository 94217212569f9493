"""Finite algebras as operation tables, plus terms and identity checking.

Every value here is immutable after construction and every operation is a
pure function, so results can be cached and evaluated in parallel without
any shared mutable state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union


class AlgebraError(ValueError):
    """Malformed algebras, terms, or arguments."""


class PreconditionError(AlgebraError):
    """An operation was invoked on input that fails its documented hypothesis."""


class CapExceeded(RuntimeError):
    """A configurable size cap would be exceeded (never silently truncated)."""


class FalsificationError(RuntimeError):
    """A cross-checked mathematical guarantee failed on concrete input.

    Raised only by internal consistency checks that must hold whenever the
    input satisfies the documented hypotheses; an ordinary negative verdict
    is reported, not raised.
    """


class OperationTable:
    """A k-ary operation on {0, ..., n-1} stored as one flat tuple.

    Index convention: row major with the last argument varying fastest,
    so index(x1, ..., xk) = ((x1*n + x2)*n + ...)*n + xk.  The same
    convention is used in files and in memory.
    """

    __slots__ = ("arity", "size", "entries", "_nested")

    def __init__(self, arity: int, size: int, entries: Sequence[int]):
        if arity < 1:
            raise AlgebraError(f"operation arity must be >= 1, got {arity}")
        if size < 1:
            raise AlgebraError(f"algebra size must be >= 1, got {size}")
        entries = tuple(entries)
        expected = size ** arity
        if len(entries) != expected:
            raise AlgebraError(f"expected {expected} entries, got {len(entries)}")
        for v in entries:
            if not isinstance(v, int) or not 0 <= v < size:
                raise AlgebraError(f"table entry {v!r} out of range 0..{size - 1}")
        self.arity = arity
        self.size = size
        self.entries = entries
        self._nested = None

    def index(self, args: Sequence[int]) -> int:
        n = self.size
        idx = 0
        for a in args:
            idx = idx * n + a
        return idx

    def apply(self, *args: int) -> int:
        if len(args) != self.arity:
            raise AlgebraError(
                f"operation of arity {self.arity} applied to {len(args)} arguments")
        n = self.size
        idx = 0
        for a in args:
            if not 0 <= a < n:
                raise AlgebraError(f"argument {a} out of range 0..{n - 1}")
            idx = idx * n + a
        return self.entries[idx]

    @property
    def nested(self):
        """Entries as nested tuples, one level per argument (hot-loop lookup)."""
        if self._nested is None:
            level = self.entries
            for _ in range(self.arity - 1):
                n = self.size
                level = tuple(level[i:i + n] for i in range(0, len(level), n))
            self._nested = level
        return self._nested

    def rows(self):
        """Entries chunked into rows of length `size` (last argument fastest)."""
        n = self.size
        return [self.entries[i:i + n] for i in range(0, len(self.entries), n)]

    def __eq__(self, other):
        return (isinstance(other, OperationTable)
                and self.arity == other.arity
                and self.size == other.size
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.arity, self.size, self.entries))

    def __repr__(self):
        return f"OperationTable(arity={self.arity}, size={self.size})"


class FiniteAlgebra:
    """A finite algebra: universe {0..n-1} plus named finitary operations.

    Operations are kept in declaration order.  The name takes no part in
    equality; two algebras are equal when they have the same size and the
    same symbol-to-table mapping.
    """

    __slots__ = ("name", "size", "operations", "_hash")

    def __init__(self, name: str, size: int,
                 operations: Union[Mapping[str, OperationTable],
                                   Iterable[tuple]]):
        if size < 1:
            raise AlgebraError(f"algebra size must be >= 1, got {size}")
        if isinstance(operations, Mapping):
            items = list(operations.items())
        else:
            items = list(operations)
        ops: dict = {}
        for sym, table in items:
            if sym in ops:
                raise AlgebraError(f"duplicate operation symbol '{sym}'")
            if not isinstance(table, OperationTable):
                raise AlgebraError(f"operation '{sym}' is not an OperationTable")
            if table.size != size:
                raise AlgebraError(
                    f"operation '{sym}' is over size {table.size}, algebra has size {size}")
            ops[sym] = table
        self.name = name
        self.size = size
        self.operations = ops
        self._hash = None

    def op(self, symbol: str) -> OperationTable:
        try:
            return self.operations[symbol]
        except KeyError:
            raise AlgebraError(f"unknown operation '{symbol}'") from None

    def has_op(self, symbol: str, arity: Optional[int] = None) -> bool:
        table = self.operations.get(symbol)
        if table is None:
            return False
        return arity is None or table.arity == arity

    def rename(self, name: str) -> "FiniteAlgebra":
        return FiniteAlgebra(name, self.size, self.operations)

    def __eq__(self, other):
        return (isinstance(other, FiniteAlgebra)
                and self.size == other.size
                and self.operations == other.operations)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.size, tuple(sorted(
                (sym, t.arity, t.entries) for sym, t in self.operations.items()))))
        return self._hash

    def __repr__(self):
        ops = ", ".join(f"{s}/{t.arity}" for s, t in self.operations.items())
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops=[{ops}])"


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var:
    """A variable leaf, identified by a 0-based index."""
    index: int


@dataclass(frozen=True)
class Const:
    """An element literal leaf; turns a term into a polynomial."""
    value: int


@dataclass(frozen=True)
class App:
    """An operation symbol applied to child terms."""
    symbol: str
    args: tuple


Term = Union[Var, Const, App]


def term_variables(term: Term) -> frozenset:
    """The set of variable indices occurring in `term`."""
    out = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t.index)
        elif isinstance(t, App):
            stack.extend(t.args)
    return frozenset(out)


def substitute(term: Term, mapping: Mapping[int, Term]) -> Term:
    """Replace Var(i) by mapping[i] where present; other leaves unchanged."""
    if isinstance(term, Var):
        return mapping.get(term.index, term)
    if isinstance(term, Const):
        return term
    return App(term.symbol, tuple(substitute(a, mapping) for a in term.args))


def eval_term(alg: FiniteAlgebra, term: Term, assignment: Sequence[int]) -> int:
    """Evaluate `term` in `alg` under an assignment of elements to variables.

    Shared subterms (DAG nodes) are evaluated once per call.
    """
    memo: dict = {}

    def ev(t):
        key = id(t)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(t, Var):
            if t.index >= len(assignment) or t.index < 0:
                raise AlgebraError(
                    f"assignment of length {len(assignment)} does not cover variable {t.index}")
            val = assignment[t.index]
            if not 0 <= val < alg.size:
                raise AlgebraError(f"assigned element {val} out of range 0..{alg.size - 1}")
        elif isinstance(t, Const):
            if not 0 <= t.value < alg.size:
                raise AlgebraError(f"element literal {t.value} out of range 0..{alg.size - 1}")
            val = t.value
        elif isinstance(t, App):
            table = alg.op(t.symbol)
            if len(t.args) != table.arity:
                raise AlgebraError(
                    f"operation '{t.symbol}' of arity {table.arity} applied to {len(t.args)} arguments")
            n = table.size
            idx = 0
            for sub in t.args:
                idx = idx * n + ev(sub)
            val = table.entries[idx]
        else:
            raise AlgebraError(f"not a term node: {t!r}")
        memo[key] = val
        return val

    return ev(term)


def materialize_term(alg: FiniteAlgebra, term: Term, arity: int) -> OperationTable:
    """Tabulate `term` as an operation of the given arity.

    The term's variables must lie in {0..arity-1}; unused argument
    positions are allowed.
    """
    if arity < 1:
        raise AlgebraError(f"materialized arity must be >= 1, got {arity}")
    vs = term_variables(term)
    if vs and max(vs) >= arity:
        raise AlgebraError(
            f"term uses variable {max(vs)} but is materialized at arity {arity}")
    entries = [eval_term(alg, term, args)
               for args in itertools.product(range(alg.size), repeat=arity)]
    return OperationTable(arity, alg.size, entries)


# ---------------------------------------------------------------------------
# Identities and quasi-identities

@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term

    def variables(self) -> frozenset:
        return term_variables(self.lhs) | term_variables(self.rhs)


@dataclass(frozen=True)
class Quasiidentity:
    """premises => conclusion; with no premises it degenerates to an identity."""
    premises: tuple
    conclusion: Identity

    def variables(self) -> frozenset:
        out = self.conclusion.variables()
        for p in self.premises:
            out |= p.variables()
        return out


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive check: holds, or the least failing assignment."""
    holds: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.holds

    def as_dict(self) -> dict:
        return {"holds": self.holds,
                "witness": None if self.witness is None else list(self.witness)}


def _var_count(variables: frozenset) -> int:
    return max(variables) + 1 if variables else 0


def check_identity(alg: FiniteAlgebra, ident: Identity) -> Verdict:
    """Exhaustively test an identity; on failure the witness is the
    lexicographically least failing assignment."""
    nvars = _var_count(ident.variables())
    if nvars == 0:
        ok = eval_term(alg, ident.lhs, ()) == eval_term(alg, ident.rhs, ())
        return Verdict(ok, None if ok else ())
    for args in itertools.product(range(alg.size), repeat=nvars):
        if eval_term(alg, ident.lhs, args) != eval_term(alg, ident.rhs, args):
            return Verdict(False, args)
    return Verdict(True)


def check_quasiidentity(alg: FiniteAlgebra, quasi: Quasiidentity) -> Verdict:
    """Like check_identity, with premises filtering the assignments."""
    nvars = _var_count(quasi.variables())
    for args in itertools.product(range(alg.size), repeat=max(nvars, 0)):
        ok = True
        for prem in quasi.premises:
            if eval_term(alg, prem.lhs, args) != eval_term(alg, prem.rhs, args):
                ok = False
                break
        if not ok:
            continue
        concl = quasi.conclusion
        if eval_term(alg, concl.lhs, args) != eval_term(alg, concl.rhs, args):
            return Verdict(False, args)
    return Verdict(True)


# ---------------------------------------------------------------------------
# Operation classification

def idempotence_violation(table: OperationTable) -> Optional[int]:
    """The least x with table(x, ..., x) != x, or None when idempotent."""
    step = sum(table.size ** i for i in range(table.arity))   # index of (1, ..., 1)
    return next((x for x in range(table.size) if table.entries[x * step] != x), None)


@dataclass(frozen=True)
class OperationFlags:
    idempotent: bool
    wnu: bool
    special_wnu: bool
    malcev: bool
    second_projection: bool


def table_flags(table: OperationTable) -> OperationFlags:
    """Exhaustive truth values of the defining identity sets for one table."""
    n = table.size
    k = table.arity
    entries = table.entries

    idem = idempotence_violation(table) is None

    # weak near-unanimity: idempotent and all one-dissident patterns agree
    wnu = idem
    if wnu and k >= 2:
        for x in range(n):
            for y in range(n):
                base = [x] * k
                base[0] = y
                v0 = entries[table.index(base)]
                for pos in range(1, k):
                    args = [x] * k
                    args[pos] = y
                    if entries[table.index(args)] != v0:
                        wnu = False
                        break
                if not wnu:
                    break
            if not wnu:
                break

    special = wnu
    if special:
        # x o y := w(x, ..., x, y); require x o (x o y) = x o y
        for x in range(n):
            row = [entries[table.index((x,) * (k - 1) + (y,))] for y in range(n)]
            if any(row[row[y]] != row[y] for y in range(n)):
                special = False
                break

    malcev = k == 3 and all(
        entries[table.index((x, y, y))] == x and entries[table.index((y, y, x))] == x
        for x in range(n) for y in range(n))

    second_proj = k == 2 and all(
        entries[table.index((x, y))] == y for x in range(n) for y in range(n))

    return OperationFlags(idem, wnu, special, malcev, second_proj)


def classify_operation(alg: FiniteAlgebra, symbol: str) -> OperationFlags:
    return table_flags(alg.op(symbol))

