"""Finite algebras as operation tables, plus terms and identity checking.

Every value here is immutable after construction and every operation is a
pure function, so results can be cached and evaluated in parallel without
any shared mutable state.

Terms have one evaluator, the numpy kernel `_term_boxes`.  It works in
two steps.  `_compile` turns terms into a program that needs no algebra:
the distinct subterms children first, each application keyed by its
symbol, with the symbol and arity checks and literals listed in the
order one walk meets them.  `_term_boxes` binds an algebra's tables by
symbol (`_bind`, which raises the first failing check) and evaluates each
step once over all n**nvars assignments by broadcasting (variable i is an
index range along axis i), in boxes cut by `_blocks` and visited in
lexicographic order.  A box holds one array per step, so it is bounded in
step values: at most `BLOCK_SIZE` of them over all steps, or one row of
the last variable where that alone is more, however large the term.
`check_identities` is the one law checker: it tests a whole batch of
identities and quasi-identities (an identity is a law with no premises)
in one pass, each against its own variables.  The fixed sets of
`analyzer` (the regular base, the regularity conditions, the Taylor
instances) are compiled once at import and only bound per call; ad hoc
laws and terms compile per call.  `term_table`, `materialize_term` and
the witness chains of `analyzer.verify_cg_d3_pairs` (the one-variable
polynomials of all generator pairs in a single pass) run on the same
kernel; the flags and the circ of one table are read off its array.
One rule per resource, each read at call time: `check_power` caps tables
and powers, `int_dtype` picks a narrow integer type from a bound its
caller has proved (the term kernel and the public arrays stay int64),
and `chunks` cuts every chunked numpy pass to `BLOCK_SIZE` values.
The pointwise pure-Python evaluator is the tests' reference for it and
lives in `smbalg.oracles`.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

BLOCK_SIZE = 1 << 20                # combinations a numpy kernel evaluates at once
# The one table-size cap, `check_power`'s default: largest table a term may
# fill and largest A^4 a matrix closure may span.  8 times it, the bytes of
# the largest int64 table it admits, bounds the one-byte flags of a subpower
# closure's bitmap of known tuples: a lane with more keys is refused, and
# lanes close in chunks that fit it.  All read it here, at call time.
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


def check_power(n: int, k: int, what: str, limit: Optional[int] = None):
    """Raise CapExceeded when `what`, of n**k entries, is over `limit`
    (FAST_CLOSURE_SPACE_CAP, read at call time, by default).  For n >= 2,
    n**k is over it once k passes its bit length, so no power past that is
    formed, and the message names n and k, never n**k."""
    limit = FAST_CLOSURE_SPACE_CAP if limit is None else limit
    if n ** min(k, limit.bit_length() + 1) > limit:
        raise CapExceeded(f"{what} would have {n}^{k} entries, beyond the cap of {limit}")


# The integer types of bounded arrays, narrowest first; `int_dtype` alone
# reads it.
_INT_TYPES = (np.int16, np.int32, np.int64)


def int_dtype(bound: int) -> np.dtype:
    """The narrowest of `_INT_TYPES` (int16, int32, int64) that holds every
    value from -1 to `bound`: the one place the library picks a narrow
    integer type.  numpy's arithmetic in that type wraps silently, so
    `bound` must be one the caller has proved of every value the array, and
    every sum or product formed in its type, can take.  A bound past int64
    raises CapExceeded."""
    for dtype in _INT_TYPES:
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise CapExceeded(f"a bound of {int(bound).bit_length()} bits is past int64")


def _power_text(n: int, k: int) -> str:
    """n**k for a message: in decimal below 2**63, else as n^k, and with n
    named by its bit length when it has more digits than `str` prints."""
    if n ** min(k, 64) < 1 << 63:
        return str(n ** k)
    try:
        return f"{n}^{k}"
    except ValueError:
        return f"({n.bit_length()}-bit number)^{k}"


def fits_int(digits: str) -> bool:
    """Whether `int` converts `digits`, a string of decimal digits: it
    refuses more digits than `sys.get_int_max_str_digits()` (0: no limit,
    as on Pythons before 3.10.7, which lack it), leading zeros included."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or len(digits) <= limit


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
    ints for pure-Python loops, is made from it on first read.  An arity
    above MAX_VARIABLES is refused, since a table is reshaped to one axis
    per argument.
    """

    __slots__ = ("arity", "size", "array", "_entries")

    def __init__(self, arity: int, size: int, entries: Sequence[int]):
        if arity < 1:
            raise AlgebraError(f"operation arity must be >= 1, got {arity}")
        if arity > MAX_VARIABLES:
            raise CapExceeded(
                f"operation arity {arity} is beyond the cap of {MAX_VARIABLES}")
        if size < 1:
            raise AlgebraError(f"algebra size must be >= 1, got {size}")
        integers = (isinstance(entries, np.ndarray) and entries.ndim == 1
                    and entries.dtype.kind in "iu")
        if not integers:
            entries = tuple(entries)
        count = len(entries)
        if size ** min(arity, count.bit_length() + 1) != count:   # exact, as in check_power
            raise AlgebraError(f"expected {_power_text(size, arity)} entries, got {count}")
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


@dataclass(frozen=True)
class _Program:
    """Terms compiled for an assignment of length `nvars`, with no algebra.

    steps lists the distinct subterms children first: a Var or Const leaf,
    or (symbol, child step indices) for an application; roots[i] is the
    step of terms[i] and spans[i] is 1 + its largest variable index (0
    when it has none).  checks holds what only an algebra can decide, an
    application's (symbol, argument count) and each literal, in the order
    their nodes were first met; error is the first fault that needs no
    algebra, or None.  sides[i], set by `_identity_program`, is how many
    consecutive terms law i has; with none recorded, each law is a pair.
    """
    nvars: int
    steps: tuple
    roots: tuple
    spans: tuple
    checks: tuple
    error: Optional[str]
    sides: tuple = ()

    @functools.cached_property
    def side_spans(self) -> list:
        """The span of each law, the largest span among its sides."""
        sides = self.sides or (2,) * (len(self.roots) // 2)
        ends = itertools.accumulate(sides)
        return [max(self.spans[end - k:end], default=0) for k, end in zip(sides, ends)]


def _compile(terms: Sequence[Term], nvars: int, sides: tuple = ()) -> _Program:
    """List the distinct subterms of `terms` for an assignment of length
    `nvars`, children first, and what binding to an algebra must check.

    Nodes are met depth first and left to right, an application before its
    arguments; equal subterms share one step.  Nothing is raised here: a
    variable outside the assignment or a node that is not a term ends the
    walk as the program's error, which `_bind` raises after the checks met
    before it, so every term is validated in the order of one walk.
    """
    steps: list = []
    spans: list = []
    slots: dict = {}           # structural key -> step index
    memo: dict = {}            # id(node) -> step index
    checks: dict = {}          # first met first; a repeat checks nothing new

    def visit(t):
        slot = memo.get(id(t))
        if slot is None:
            if isinstance(t, App):
                checks[(t.symbol, len(t.args))] = None
                children = tuple([visit(a) for a in t.args])
                key, span = (t.symbol, children), max([spans[c] for c in children], default=0)
            else:
                if isinstance(t, Var):
                    if not 0 <= t.index < nvars:
                        raise AlgebraError(
                            f"assignment of length {nvars} does not cover variable {t.index}")
                    span = t.index + 1
                elif isinstance(t, Const):
                    checks[t] = None
                    span = 0
                else:
                    raise AlgebraError(f"not a term node: {t!r}")
                key = t
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(steps)
                steps.append(key)
                spans.append(span)
            memo[id(t)] = slot
        return slot

    try:
        roots, error = [visit(t) for t in terms], None
    except AlgebraError as exc:
        roots, error = [], str(exc)
    return _Program(nvars, tuple(steps), tuple(roots), tuple(spans[r] for r in roots),
                    tuple(checks), error, sides)


def _bind(alg: FiniteAlgebra, program: _Program) -> dict:
    """The table array of each symbol `program` applies, after its checks
    against `alg` in their order; the first to fail, or else the program's
    own error, raises AlgebraError."""
    tables = {}
    for check in program.checks:
        if isinstance(check, Const):
            if not 0 <= check.value < alg.size:
                raise AlgebraError(
                    f"element literal {check.value} out of range 0..{alg.size - 1}")
            continue
        symbol, nargs = check
        table = alg.op(symbol)
        if nargs != table.arity:
            raise AlgebraError(
                f"operation '{symbol}' of arity {table.arity} applied to {nargs} arguments")
        tables[symbol] = table.array
    if program.error is not None:
        raise AlgebraError(program.error)
    return tables


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


def chunks(count: int, size: int):
    """The (lo, hi) slices of range(count), in order, each of as many items
    of `size` values as BLOCK_SIZE holds (at least one): `_blocks` on one
    range, the one cut of every chunked numpy pass."""
    for (lo, hi), _ in _blocks([(0, count), (0, 1)], size):
        yield lo, hi


def _term_boxes(alg: FiniteAlgebra, program: _Program):
    """Yield (box, values) for the boxes of all n**nvars assignments of
    `program` in lexicographic order, once `_bind` has checked it against
    `alg`; values[i] holds the i-th compiled term over the box, with nvars
    axes (length one along a variable the term does not use) or none for a
    constant.

    Variable i is its index range laid along axis i, so an application's
    table index `acc * n + child` broadcasts only over the axes its
    arguments use.  Every step keeps its array for the box, so `_blocks`
    charges each assignment once per step.
    """
    nvars = program.nvars
    if nvars > MAX_VARIABLES:
        raise CapExceeded(f"{nvars} variables are beyond the cap of {MAX_VARIABLES}")
    tables = _bind(alg, program)
    n = alg.size
    for box in _blocks([(0, n)] * nvars, n * len(program.steps)):
        values = []
        for step in program.steps:
            if isinstance(step, Var):
                lo, hi = box[step.index]
                axis = [1] * nvars
                axis[step.index] = hi - lo
                val = np.arange(lo, hi).reshape(axis)
            elif isinstance(step, Const):
                val = np.int64(step.value)
            else:
                symbol, (first, *rest) = step
                acc = values[first]
                for c in rest:
                    acc = acc * n + values[c]
                val = tables[symbol][acc]
            values.append(val)
        yield box, [values[r] for r in program.roots]


def term_table(alg: FiniteAlgebra, term: Term, nvars: int) -> np.ndarray:
    """The values of `term` at all n**nvars assignments, as an int64 array
    of shape (n,) * nvars indexed by the assignment.

    Raises CapExceeded before any work past MAX_VARIABLES axes, which
    numpy refuses even at n = 1, or when `check_power` refuses n**nvars.
    """
    n = alg.size
    if nvars > MAX_VARIABLES:
        raise CapExceeded(f"{nvars} variables are beyond the cap of {MAX_VARIABLES}")
    check_power(n, nvars, "the term's table")
    out = np.empty((n,) * nvars, dtype=np.int64)
    for box, (values,) in _term_boxes(alg, _compile([term], nvars)):
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


def _least_failures(boxes: Iterable, widths: Sequence[int]) -> list:
    """One Verdict per check: `boxes` yields (box, masks) in the order of
    `_term_boxes`, masks[i] True where check i fails over the box.  Verdict
    i holds, or fails at the least failing assignment cut to its first
    widths[i] variables; the boxes stop once every check has failed."""
    found = [None] * len(widths)
    for box, masks in boxes:
        for i, bad in enumerate(masks):
            if found[i] is None:
                verdict = first_failure(bad, box)
                if not verdict.holds:
                    found[i] = verdict.witness[:widths[i]]
        if None not in found:
            break
    return [Verdict(True) if w is None else Verdict(False, w) for w in found]


def _identity_program(laws: Sequence) -> _Program:
    """The sides of `laws` compiled over the largest variable count among
    them: for each law its premises, then its conclusion, lhs before rhs,
    with the number of sides of each law recorded."""
    equations = [(*law.premises, law.conclusion) if isinstance(law, Quasiidentity) else (law,)
                 for law in laws]
    terms = [t for eqs in equations for eq in eqs for t in (eq.lhs, eq.rhs)]
    variables = frozenset().union(*map(term_variables, terms))
    return _compile(terms, max(variables) + 1 if variables else 0,
                    tuple(2 * len(eqs) for eqs in equations))


def check_identities(alg: FiniteAlgebra, laws) -> list:
    """Exhaustively test identities and quasi-identities in one kernel
    pass over the assignments of the largest variable count among them.
    Verdict i holds, or fails at the lexicographically least assignment of
    law i's own variables 0..v-1 (v = 1 + its largest variable index) at
    which every premise holds and the conclusion does not.  One law is
    `check_identities(alg, [law])[0]`.

    `laws` may also be the program `_identity_program` compiled from them,
    so that a fixed set is compiled once."""
    program = laws if isinstance(laws, _Program) else _identity_program(laws)

    def failing(values):        # law by law: every premise holds, the conclusion does not
        for k, end in zip(program.sides, itertools.accumulate(program.sides)):
            bad = values[end - 2] != values[end - 1]
            for i in range(end - k, end - 2, 2):
                bad = bad & (values[i] == values[i + 1])
            yield bad

    masks = ((box, list(failing(values))) for box, values in _term_boxes(alg, program))
    return _least_failures(masks, program.side_spans)


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


def _circ(table: OperationTable) -> np.ndarray:
    """x o y = w(x, ..., x, y) as the n x n array at [x, y] (w's values at arity 1)."""
    n, k = table.size, table.arity
    x = np.arange(n)[:, None]
    return table.array.reshape((n,) * k)[(x,) * (k - 1) + (np.arange(n),)]


def table_flags(table: OperationTable) -> OperationFlags:
    """Exhaustive truth values of the defining laws of one table, read off its array."""
    n, k = table.size, table.arity
    values, circ = table.array.reshape((n,) * k), _circ(table)
    x, y = np.arange(n)[:, None], np.arange(n)
    idem = idempotence_violation(table) is None
    # a wnu: arity >= 2, idempotent, every one-dissident pattern equal to
    # x o y; special when x o (x o y) = x o y
    wnu = idem and k > 1 and all(np.array_equal(values[(x,) * i + (y,) + (x,) * (k - 1 - i)], circ)
                                 for i in range(k - 1))
    special = wnu and np.array_equal(circ[x, circ], circ)
    malcev = k == 3 and bool((values[x, y, y] == x).all() and (values[y, y, x] == x).all())
    second_proj = k == 2 and bool((values == y).all())
    return OperationFlags(idem, wnu, special, malcev, second_proj)
