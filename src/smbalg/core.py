"""Finite algebras as operation tables, plus terms and identity checking.

Every value here is immutable after construction and every operation is a
pure function, so results can be cached and evaluated in parallel without
any shared mutable state.

Terms have one evaluator, the numpy kernel `term_table`: `_compile`
validates symbols, arities, literals and variables and lists the distinct
subterms children first, and each is evaluated once over all n**nvars
assignments by broadcasting (variable i is an index range along axis i),
in boxes of at most `BLOCK_SIZE` assignments cut by `_blocks` and visited
in lexicographic order.  Identities, quasi-identities, `materialize_term`,
the operation flags and the witness chains of `analyzer.verify_cg_d3_pairs`
(the one-variable polynomials of all generator pairs in a single
`_term_boxes` pass) run on it.
The pointwise pure-Python evaluator is the tests' reference for it and
lives in `smbalg.oracles`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

BLOCK_SIZE = 1 << 20                # combinations a numpy kernel evaluates at once
# Largest table a term may fill and largest A^4 a matrix closure may span; a
# subpower closure of a power no larger finds known tuples in a bitmap, else by
# binary search in the sorted keys.  All three read it here, at call time.
FAST_CLOSURE_SPACE_CAP = 6_000_000
MAX_VARIABLES = 32                  # one array axis per variable; numpy 1.x has 32
_INTEGER = (int, np.integer)        # what a table entry may be; bool is an int


class AlgebraError(ValueError):
    """Malformed algebras, terms, or arguments."""


class PreconditionError(AlgebraError):
    """An operation was invoked on input that fails its documented hypothesis."""


class CapExceeded(RuntimeError):
    """A size cap would be exceeded; raised before the work starts, never
    by silent truncation."""


class FalsificationError(RuntimeError):
    """A cross-checked mathematical guarantee failed on concrete input.

    Raised only by internal consistency checks that must hold whenever the
    input satisfies the documented hypotheses; an ordinary negative verdict
    is reported, not raised.
    """


class _Frozen:
    """Attributes are set in `__init__` or on a lazy first read, through
    object.__setattr__; any other assignment or deletion raises, so the
    content key a cache files an object under stays true."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class OperationTable(_Frozen):
    """A k-ary operation on {0, ..., n-1} stored once, as a flat int64 array.

    Index convention: row major with the last argument varying fastest,
    so index(x1, ..., xk) = ((x1*n + x2)*n + ...)*n + xk.  The same
    convention is used in files and in memory.  entries may be a sequence
    of integers (ints, bools, numpy integer scalars) or a 1-d integer array.

    `array` is read-only and views one `bytes` buffer, its `base`, which
    equality and hashing read; `entries`, the values as a tuple of Python
    ints for pure-Python loops, is made from it on first read.
    """

    __slots__ = ("arity", "size", "array", "_entries")

    def __init__(self, arity: int, size: int, entries: Sequence[int]):
        if arity < 1:
            raise AlgebraError(f"operation arity must be >= 1, got {arity}")
        if size < 1:
            raise AlgebraError(f"algebra size must be >= 1, got {size}")
        integers = (isinstance(entries, np.ndarray) and entries.ndim == 1
                    and entries.dtype.kind in "iu")
        if not integers:
            entries = tuple(entries)
        expected = size ** arity
        if len(entries) != expected:
            raise AlgebraError(f"expected {expected} entries, got {len(entries)}")
        if integers:
            valid = entries.min() >= 0 and entries.max() < size
        else:
            valid = (all(map(isinstance, entries, itertools.repeat(_INTEGER)))
                     and frozenset(range(size)).issuperset(entries))
        if not valid:
            bad = next(v for v in entries
                       if not isinstance(v, _INTEGER) or not 0 <= v < size)
            if isinstance(bad, (np.generic, np.ndarray)):
                bad = bad.tolist()
            raise AlgebraError(f"table entry {bad!r} out of range 0..{size - 1}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "array", np.frombuffer(
            np.asarray(entries, dtype=np.int64).tobytes(), dtype=np.int64))
        object.__setattr__(self, "_entries", None)

    @property
    def entries(self) -> tuple:
        """The values as a tuple of Python ints, made from `array` once."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(self.array.tolist()))
        return self._entries

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

    def rows(self):
        """Entries cut into rows of length `size` (last argument fastest)."""
        n = self.size
        return [self.entries[i:i + n] for i in range(0, len(self.entries), n)]

    def __eq__(self, other):
        return (isinstance(other, OperationTable)
                and self.arity == other.arity
                and self.size == other.size
                and self.array.base == other.array.base)

    def __hash__(self):
        return hash((self.arity, self.size, self.array.base))

    def __repr__(self):
        return f"OperationTable(arity={self.arity}, size={self.size})"


class FiniteAlgebra(_Frozen):
    """A finite algebra: universe {0..n-1} plus named finitary operations.

    Operations are kept in declaration order, in a read-only mapping.  The
    name takes no part in equality; two algebras are equal when they have
    the same size and the same symbol-to-table mapping.  Equality and
    hashing read one content key, the size plus the (symbol, table) pairs
    sorted by symbol, built once per object together with its hash; a
    table compares and hashes by the bytes of its `array`, so cache
    lookups with a fresh parse of the same algebra never walk the tables.
    """

    __slots__ = ("name", "size", "operations", "_key", "_hash")

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
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "operations", MappingProxyType(ops))
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", None)

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

    def _content(self) -> tuple:
        if self._key is None:
            key = (self.size, tuple(sorted(self.operations.items())))
            object.__setattr__(self, "_key", key)
            object.__setattr__(self, "_hash", hash(key))
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteAlgebra)
                                 and self._content() == other._content())

    def __hash__(self):
        self._content()
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


def _compile(alg: FiniteAlgebra, terms: Sequence[Term], nvars: int) -> tuple:
    """Validate `terms` for an assignment of length `nvars` and list their
    distinct subterms, children first.

    Returns (steps, roots).  A step is a Var or Const leaf, or (table,
    child step indices) for an application; equal subterms share one step,
    and roots[i] is the step of terms[i].  Each node is validated when it
    is first met, an application before its arguments, depth first and
    left to right: symbol and arity, a variable's index, a literal's range.
    """
    steps: list = []
    slots: dict = {}           # structural key -> step index
    memo: dict = {}            # id(node) -> step index

    def visit(t):
        slot = memo.get(id(t))
        if slot is None:
            if isinstance(t, App):
                table = alg.op(t.symbol)
                if len(t.args) != table.arity:
                    raise AlgebraError(
                        f"operation '{t.symbol}' of arity {table.arity} applied to "
                        f"{len(t.args)} arguments")
                children = tuple([visit(a) for a in t.args])
                key, step = (t.symbol, children), (table, children)
            else:
                if isinstance(t, Var):
                    if not 0 <= t.index < nvars:
                        raise AlgebraError(
                            f"assignment of length {nvars} does not cover variable {t.index}")
                elif isinstance(t, Const):
                    if not 0 <= t.value < alg.size:
                        raise AlgebraError(
                            f"element literal {t.value} out of range 0..{alg.size - 1}")
                else:
                    raise AlgebraError(f"not a term node: {t!r}")
                key = step = t
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(steps)
                steps.append(step)
            memo[id(t)] = slot
        return slot

    return steps, [visit(t) for t in terms]


def _blocks(bounds: list, width: int = 1):
    """Split the product of the index ranges `bounds` into boxes of at most
    BLOCK_SIZE combinations, in lexicographic order.

    The longest run of trailing ranges whose product fits in a box stays
    whole; the range before it is cut into slices, and any ranges before
    that are walked one index at a time.  Usually the trailing ranges fit,
    so only the leading argument's slice is split.  A kernel that holds
    `width` values for each combination of the leading ranges charges the
    last range as at least `width` long; a box keeps one leading
    combination even where that alone is over BLOCK_SIZE.
    """
    if any(lo == hi for lo, hi in bounds):
        return
    sizes = [hi - lo for lo, hi in bounds]
    if sizes:
        sizes[-1] = max(sizes[-1], width)
    cut = len(bounds)
    inner = 1
    while cut and inner * sizes[cut - 1] <= BLOCK_SIZE:
        cut -= 1
        inner *= sizes[cut]
    if cut == 0:
        yield bounds
        return
    cut -= 1
    step = BLOCK_SIZE // inner
    lo, hi = bounds[cut]
    for head in itertools.product(*(range(a, b) for a, b in bounds[:cut])):
        for start in range(lo, hi, step):
            yield ([(h, h + 1) for h in head] + [(start, min(start + step, hi))]
                   + bounds[cut + 1:])


def _term_boxes(alg: FiniteAlgebra, terms: Sequence[Term], nvars: int):
    """Yield (box, values) for the boxes of all n**nvars assignments in
    lexicographic order; values[i] holds terms[i] over the box, with
    nvars axes (length one along a variable the term does not use) or
    none for a constant.

    Variable i is its index range laid along axis i, so an application's
    table index `acc * n + child` broadcasts only over the axes its
    arguments use.
    """
    if nvars > MAX_VARIABLES:
        raise CapExceeded(f"{nvars} variables are beyond the cap of {MAX_VARIABLES}")
    steps, roots = _compile(alg, terms, nvars)
    n = alg.size
    for box in _blocks([(0, n)] * nvars):
        values = []
        for step in steps:
            if isinstance(step, Var):
                lo, hi = box[step.index]
                axis = [1] * nvars
                axis[step.index] = hi - lo
                val = np.arange(lo, hi).reshape(axis)
            elif isinstance(step, Const):
                val = np.int64(step.value)
            else:
                table, (first, *rest) = step
                acc = values[first]
                for c in rest:
                    acc = acc * n + values[c]
                val = table.array[acc]
            values.append(val)
        yield box, [values[r] for r in roots]


def term_table(alg: FiniteAlgebra, term: Term, nvars: int) -> np.ndarray:
    """The values of `term` at all n**nvars assignments, as an int64 array
    of shape (n,) * nvars indexed by the assignment.

    Raises CapExceeded before any work when the table would have more than
    FAST_CLOSURE_SPACE_CAP entries or MAX_VARIABLES axes.
    """
    n = alg.size
    if nvars > MAX_VARIABLES or n ** nvars > FAST_CLOSURE_SPACE_CAP:
        raise CapExceeded(
            f"a table of {nvars} variables over {n} elements is beyond the cap "
            f"of {FAST_CLOSURE_SPACE_CAP} entries and {MAX_VARIABLES} variables")
    out = np.empty((n,) * nvars, dtype=np.int64)
    for box, (values,) in _term_boxes(alg, [term], nvars):
        out[tuple(slice(lo, hi) for lo, hi in box)] = values
    return out


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
    return OperationTable(arity, alg.size, term_table(alg, term, arity).ravel())


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


def first_failure(bad: np.ndarray, box: Optional[Sequence] = None) -> Verdict:
    """Holds when `bad` has no True entry, else fails at the first one in C
    order, shifted by the lower corner of `box` when given.  An axis of
    length one stands for a whole range on which `bad` is constant."""
    if not bad.any():
        return Verdict(True)
    at = np.unravel_index(np.argmax(bad), bad.shape)
    lows = [0] * bad.ndim if box is None else [lo for lo, _ in box]
    return Verdict(False, tuple(int(i) + lo for i, lo in zip(at, lows)))


def check_identity(alg: FiniteAlgebra, ident: Identity) -> Verdict:
    """Exhaustively test an identity; on failure the witness is the
    lexicographically least failing assignment."""
    return check_quasiidentity(alg, Quasiidentity((), ident))


def check_quasiidentity(alg: FiniteAlgebra, quasi: Quasiidentity) -> Verdict:
    """Like check_identity, with premises filtering the assignments."""
    variables = quasi.variables()
    nvars = max(variables) + 1 if variables else 0
    idents = (*quasi.premises, quasi.conclusion)
    terms = [t for ident in idents for t in (ident.lhs, ident.rhs)]
    for box, values in _term_boxes(alg, terms, nvars):
        bad = values[-2] != values[-1]
        for lhs, rhs in zip(values[:-2:2], values[1:-2:2]):
            bad = bad & (lhs == rhs)
        verdict = first_failure(bad, box)
        if not verdict.holds:
            return verdict
    return Verdict(True)


# ---------------------------------------------------------------------------
# Operation classification

def idempotence_violation(table: OperationTable) -> Optional[int]:
    """The least x with table(x, ..., x) != x, or None when idempotent."""
    step = sum(table.size ** i for i in range(table.arity))   # index of (1, ..., 1)
    bad = np.flatnonzero(table.array[::step] != np.arange(table.size))
    return int(bad[0]) if len(bad) else None


@dataclass(frozen=True)
class OperationFlags:
    idempotent: bool
    wnu: bool
    special_wnu: bool
    malcev: bool
    second_projection: bool


def table_flags(table: OperationTable) -> OperationFlags:
    """Exhaustive truth values of the defining identity sets for one table."""
    k = table.arity
    alg = FiniteAlgebra("table", table.size, {"w": table})
    x, y = Var(0), Var(1)

    def holds(lhs: Term, rhs: Term) -> bool:
        return check_identity(alg, Identity(lhs, rhs)).holds

    def w(*args: Term) -> Term:
        return App("w", args)

    def dissident(pos: int) -> Term:      # w(x, ..., x) with y at pos
        return w(*(y if i == pos else x for i in range(k)))

    idem = idempotence_violation(table) is None
    # weak near-unanimity: idempotent and all one-dissident patterns agree
    wnu = idem and all(holds(dissident(0), dissident(pos)) for pos in range(1, k))
    # x o y := w(x, ..., x, y); special when x o (x o y) = x o y
    special = wnu and holds(w(*[x] * (k - 1), dissident(k - 1)), dissident(k - 1))
    malcev = k == 3 and holds(w(x, y, y), x) and holds(w(y, y, x), x)
    second_proj = k == 2 and holds(w(x, y), y)
    return OperationFlags(idem, wnu, special, malcev, second_proj)


def classify_operation(alg: FiniteAlgebra, symbol: str) -> OperationFlags:
    return table_flags(alg.op(symbol))

