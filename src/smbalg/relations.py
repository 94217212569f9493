"""Closure computations in finite powers.

Subuniverse generation with derivation traces, principal congruences and
congruence lattices, quotients, products and subalgebras, the D-relation,
unary polynomials, and the binary commutator.

One evaluation kernel, `_apply_block`, closes subsets of finite powers,
with two element orders.  For every operation, the argument columns lie
along their own axes of one array of argument combinations, cut into
blocks of at most `core.BLOCK_SIZE` combinations by `_blocks`, which the
term kernel of `core` shares.
`generate_subpower` keeps the breadth-first order of processing one
element at a time and records a derivation trace per element; it is used
wherever witnesses must be replayed.  `subpower_closure_fast` keeps no
traces and closes in semi-naive rounds, in the order: the generators
sorted, then each round's new tuples ascending; it gives the
commutator's matrix sets in A^4 and generated subuniverses.  The test
suite checks each order against a plain Python loop.

The commutator [alpha, beta] is computed by construction as the least
congruence satisfying the term condition, by a fixpoint over class-id
masks of the matrix array.  It closes the matrices M(S, beta) of a
symmetric generating set S of alpha, which have the same term condition
as M(alpha, beta) and are far fewer; `matrix_set` and `commutator_oracle`
keep the full M(alpha, beta), and the oracle finds the commutator instead
by scanning the congruence lattice.

The congruence layer follows R. Freese, "Computing congruences
efficiently", Algebra Universalis 59 (2008) 337-343.  Principal
congruences come from a union-find over the unary translations.
`congruence_lattice` is a breadth-first search from 0_A that joins each
congruence found with the distinct principal congruences only, and reads
the upper covers of theta off those same joins: they are the minimal
elements of {theta v Cg(a, b)} minus {theta}.  `congruence_violation`
tests every operation and argument position at once with numpy, over the
table of value classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .core import (FAST_CLOSURE_SPACE_CAP, AlgebraError, App, CapExceeded,
                   Const, FalsificationError, FiniteAlgebra, OperationTable,
                   PreconditionError, Term, Var, _blocks)
from .partitions import DisjointSet, Partition

POL1_SIZE_CAP = 8
LATTICE_SIZE_CAP = 10
SUBUNIVERSE_SIZE_CAP = 12


# ---------------------------------------------------------------------------
# Traced subpower generation

@dataclass(frozen=True)
class GeneratedSet:
    """A generated subset of A^k with one derivation trace per element.

    `trace[i]` is None for a generator and otherwise a pair
    (operation symbol, tuple of parent element indices).  Replaying the
    trace from the generators reproduces the element.
    """
    power: int
    elements: tuple            # tuples of length `power`, in discovery order
    trace: tuple               # parallel to elements

    def __post_init__(self):
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.elements)})

    @property
    def index(self):
        return self._index  # type: ignore[attr-defined]

    def __contains__(self, item) -> bool:
        return tuple(item) in self.index

    def __len__(self):
        return len(self.elements)

    def as_set(self) -> frozenset:
        return frozenset(self.elements)

    def term_for(self, i: int, leaf_terms: dict) -> Term:
        """A term over the generators witnessing element i.

        `leaf_terms` maps generator element index to a Term; derived
        elements become applications along the trace.
        """
        memo: dict = {}

        def build(j):
            if j in memo:
                return memo[j]
            step = self.trace[j]
            if step is None:
                try:
                    t = leaf_terms[j]
                except KeyError:
                    raise AlgebraError(
                        f"no leaf term supplied for generator index {j}") from None
            else:
                sym, parents = step
                t = App(sym, tuple(build(p) for p in parents))
            memo[j] = t
            return t

        return build(i)


def generate_subpower(alg: FiniteAlgebra, k: int,
                      generators: Sequence[tuple]) -> GeneratedSet:
    """Least subset of A^k containing `generators`, closed under all
    operations applied coordinatewise.

    Element order: the generators in the given order (duplicates dropped),
    then breadth-first discovery.  Element `cur` is processed against the
    argument tuples pre + (cur,) + post in which every index in pre is
    below cur and every index in post is at most cur: operations in
    declaration order, then the position `pos` of cur, then pre + post in
    lexicographic order.  Each result not seen before is appended, with
    the trace (symbol, pre + (cur,) + post).

    Results found while processing cur get indices past all those that
    cur's argument tuples use, so the elements known but not yet processed
    form one frontier and are processed together.  For each operation and
    `pos`, the box of argument tuples is evaluated by the broadcast kernel
    of `subpower_closure_fast`, in blocks of at most `core.BLOCK_SIZE`
    combinations, and masked to pre < cur and post <= cur.  The boxes are in
    lexicographic order already, so a new tuple is kept at its first
    occurrence under a stable sort by cur of the candidates gathered
    operation by operation and `pos` by `pos`.  A tuple's key is its
    base-n value, so n**k must fit in int64.
    """
    if k < 1:
        raise AlgebraError(f"power must be >= 1, got {k}")
    n = alg.size
    if n ** k > 1 << 63:
        raise CapExceeded(f"A^{k} has {n ** k} tuples, beyond the int64 key range")
    elements: list = []
    seen: set = set()
    for g in generators:
        g = tuple(g)
        if len(g) != k:
            raise AlgebraError(f"generator {g} does not have length {k}")
        if any(not 0 <= x < n for x in g):
            raise AlgebraError(f"generator {g} has entries outside 0..{n - 1}")
        if g not in seen:
            seen.add(g)
            elements.append(g)
    if not elements:
        raise AlgebraError("at least one generator is required")
    trace: list = [None] * len(elements)

    weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    rows = np.asarray(elements, dtype=np.int64)
    known = np.sort(rows @ weights)
    plans = [(sym, t.arity, pos, weights[:, None] * t.array)
             for sym, t in alg.operations.items() for pos in range(t.arity)]
    width = max((arity for _, arity, _, _ in plans), default=1)

    lo = 0
    while lo < len(rows):
        hi = len(rows)
        columns = np.ascontiguousarray(rows.T)
        keys, curs, plan_ids, args = [], [], [], []
        for s, (sym, arity, pos, tables) in enumerate(plans):
            bounds = [(0, hi)] * pos + [(lo, hi)] + [(0, hi)] * (arity - 1 - pos)
            for box in _blocks(bounds):
                shape = [b - a for a, b in box]
                axes = [np.arange(a, b).reshape([-1] + [1] * (arity - 1 - i))
                        for i, (a, b) in enumerate(box)]
                valid = np.ones(shape, dtype=bool)
                for i, ax in enumerate(axes):
                    if i != pos:
                        valid &= ax < axes[pos] if i < pos else ax <= axes[pos]
                flat = np.flatnonzero(valid)
                box_keys = _apply_block(tables, columns, box, n)[flat]
                at = np.minimum(np.searchsorted(known, box_keys), len(known) - 1)
                fresh = known[at] != box_keys
                if not fresh.any():
                    continue
                idx = np.full((int(fresh.sum()), width), -1, dtype=np.int64)
                idx[:, :arity] = np.stack(np.unravel_index(flat[fresh], shape), axis=1)
                idx[:, :arity] += [a for a, _ in box]
                keys.append(box_keys[fresh])
                curs.append(idx[:, pos])
                plan_ids.append(np.full(len(idx), s))
                args.append(idx)
        lo = hi
        if not keys:
            continue
        # gathered plan by plan, each box in lexicographic order, so a stable
        # sort by cur puts the candidates in processing order
        found, cur = np.concatenate(keys), np.concatenate(curs)
        order = np.argsort(cur, kind="stable")
        _, first = np.unique(found[order], return_index=True)
        chosen = order[np.sort(first)]
        new = found[chosen]
        plan = np.concatenate(plan_ids)[chosen]
        for s, arg in zip(plan.tolist(), np.concatenate(args)[chosen].tolist()):
            sym, arity = plans[s][:2]
            trace.append((sym, tuple(arg[:arity])))
        new_rows = new[:, None] // weights % n
        elements.extend(map(tuple, new_rows.tolist()))
        rows = np.concatenate([rows, new_rows])
        known = np.sort(np.concatenate([known, new]))
    return GeneratedSet(k, tuple(elements), tuple(trace))


def generate_subuniverse(alg: FiniteAlgebra, generators: Iterable[int]) -> tuple:
    """Subuniverse of A generated by a set of elements, as a sorted tuple."""
    closed = subpower_closure_fast(alg, 1, [(g,) for g in generators])
    return tuple(sorted(closed[:, 0].tolist()))


# ---------------------------------------------------------------------------
# Congruence generation

@lru_cache(maxsize=None)
def _translations(alg: FiniteAlgebra) -> tuple:
    """All unary translations f(c1,..,x,..,ck) of the basic operations,
    except the identity map, as sorted distinct tuples."""
    n = alg.size
    out = set()
    for table in alg.operations.values():
        values = table.array.reshape((n,) * table.arity)
        for pos in range(table.arity):
            out.update(map(tuple, np.moveaxis(values, pos, -1).reshape(-1, n).tolist()))
    out.discard(tuple(range(n)))
    return tuple(sorted(out))


def congruence_generated(alg: FiniteAlgebra, pairs: Iterable[tuple]) -> Partition:
    """Least congruence containing the given pairs.

    Union-find over the one-step images: whenever two elements merge, all
    their images under unary translations are queued to merge as well.
    """
    n = alg.size
    maps = _translations(alg)
    ds = DisjointSet(n)
    queue = [(a, b) for a, b in pairs]
    for a, b in queue:
        if not (0 <= a < n and 0 <= b < n):
            raise AlgebraError(f"pair ({a}, {b}) out of range 0..{n - 1}")
    while queue:
        a, b = queue.pop()
        if ds.find(a) == ds.find(b):
            continue
        ds.union(a, b)
        for m in maps:
            ma, mb = m[a], m[b]
            if ds.find(ma) != ds.find(mb):
                queue.append((ma, mb))
    return ds.partition()


@lru_cache(maxsize=None)
def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence of `alg` containing (a, b)."""
    return congruence_generated(alg, [(a, b)])


def congruence_by_alternating_closure(alg: FiniteAlgebra, pairs: Iterable[tuple]) -> Partition:
    """Reference implementation: alternate subpower closure of the relation
    in A^2 with reflexive-symmetric-transitive closure until stable.

    Slower than `congruence_generated`; kept as an independent oracle and
    exercised against it in the tests.
    """
    n = alg.size
    relation = set((c, c) for c in range(n))
    for a, b in pairs:
        relation.add((a, b))
        relation.add((b, a))
    while True:
        closed = generate_subpower(alg, 2, sorted(relation)).as_set()
        part = Partition.from_pairs(n, closed)
        new_rel = set(part.pairs())
        if new_rel == relation:
            return part
        relation = new_rel


def congruence_violation(alg: FiniteAlgebra, p: Partition) -> Optional[tuple]:
    """None when p is a congruence, else (symbol, args, args') with the two
    argument tuples related coordinatewise but with unrelated outputs.

    For each operation and argument position, the value classes must be
    constant along every p-class fiber through that position.  The witness
    is the first failing symbol in declaration order, then the
    lexicographically least failing argument tuple, then the least failing
    position, then the least b in the class of args[pos] whose substitution
    there changes the value class.
    """
    if p.size != alg.size:
        raise AlgebraError(f"partition size {p.size} does not match algebra size {alg.size}")
    n = alg.size
    ids = np.asarray(p.class_ids, dtype=np.int64)
    by_class = np.argsort(ids, kind="stable")
    starts = np.searchsorted(ids[by_class], np.arange(p.num_classes))
    for sym, table in alg.operations.items():
        arity = table.arity
        values = ids[table.array].reshape((n,) * arity)
        unstable = []          # per position: args whose fiber is not constant
        for pos in range(arity):
            grouped = np.take(values, by_class, axis=pos)
            lo = np.minimum.reduceat(grouped, starts, axis=pos)
            hi = np.maximum.reduceat(grouped, starts, axis=pos)
            unstable.append(np.take(lo != hi, ids, axis=pos))
        failing = np.logical_or.reduce(unstable)
        if not failing.any():
            continue
        args = tuple(int(a) for a in np.unravel_index(np.argmax(failing), failing.shape))
        pos = next(i for i in range(arity) if unstable[i][args])
        alts = (args[:pos] + (b,) + args[pos + 1:] for b in p.block_of(args[pos]))
        return (sym, args, next(alt for alt in alts if values[alt] != values[args]))
    return None


def is_congruence(alg: FiniteAlgebra, p: Partition) -> bool:
    return congruence_violation(alg, p) is None


@dataclass(frozen=True)
class CongruenceLattice:
    """Con(alg): all congruences plus the covering relation by inclusion."""
    congruences: tuple         # Partitions, sorted from 0_A towards 1_A
    covers: tuple              # (i, j) index pairs with congruences[i] -< congruences[j]

    def __len__(self):
        return len(self.congruences)

    def __iter__(self):
        return iter(self.congruences)

    def __contains__(self, p):
        return p in self.congruences

    def index(self, p: Partition) -> int:
        return self.congruences.index(p)


@lru_cache(maxsize=None)
def congruence_lattice(alg: FiniteAlgebra, max_size: int = LATTICE_SIZE_CAP) -> CongruenceLattice:
    """All congruences and the covering relation (Freese 2008).

    Breadth-first search from 0_A: each congruence theta found is joined
    with every distinct nonzero principal congruence Cg(a, b) not below
    it.  Every congruence is a join of principals, so the search finds
    them all with L*P joins.  The upper covers of theta are the minimal
    elements of {theta v Cg(a, b)} minus {theta}: any congruence above
    theta contains some theta v Cg(a, b).  Among those joins,
    theta v Cg(a, b) lies below mu exactly when mu relates a and b, so
    minimality needs no further joins.

    Congruences are sorted from 0_A towards 1_A by (-classes, class ids),
    and covers are sorted (i, j) index pairs.
    """
    n = alg.size
    if n > max_size:
        raise CapExceeded(
            f"congruence lattice capped at universe size {max_size}, algebra has {n}")
    principals: dict = {}      # distinct nonzero Cg(a, b) -> its first pair
    for a in range(n):
        for b in range(a + 1, n):
            principals.setdefault(principal_congruence(alg, a, b), (a, b))
    zero = Partition.zero(n)
    members = [zero]           # in discovery order
    found = {zero: 0}
    upper = []                 # discovery index -> upper covers' indices
    for theta in members:
        steps = []             # (index of theta v Cg(a, b), a, b)
        for pi, (a, b) in principals.items():
            if theta.related(a, b):
                continue
            joined = theta.join(pi)
            if joined not in found:
                found[joined] = len(members)
                members.append(joined)
            steps.append((found[joined], a, b))
        upper.append([j for j in {s[0] for s in steps}
                      if all(k == j for k, a, b in steps if members[j].related(a, b))])
    ordered = sorted(members, key=lambda p: (-p.num_classes, p.class_ids))
    rank = {p: i for i, p in enumerate(ordered)}
    covers = sorted((rank[members[i]], rank[members[j]])
                    for i, ups in enumerate(upper) for j in ups)
    return CongruenceLattice(tuple(ordered), tuple(covers))


# ---------------------------------------------------------------------------
# Quotients, subalgebras, products

def _restricted(alg: FiniteAlgebra, table: OperationTable,
                elements: Sequence[int]) -> np.ndarray:
    """The values of `table` at all argument tuples over `elements`, as a
    (len(elements),) * arity array in lexicographic order."""
    values = table.array.reshape((alg.size,) * table.arity)
    return values[np.ix_(*[elements] * table.arity)]


def quotient_algebra(alg: FiniteAlgebra, theta: Partition) -> Tuple[FiniteAlgebra, tuple]:
    """The algebra on theta-classes, plus the element -> class-id map.

    theta is verified to be a congruence; induced tables are computed via
    representatives, which the congruence property makes well defined.
    """
    _check_congruences(alg, theta)
    ids = np.asarray(theta.class_ids)
    reps = [block[0] for block in theta.blocks()]
    m = theta.num_classes
    ops = {sym: OperationTable(table.arity, m,
                               ids[_restricted(alg, table, reps)].ravel().tolist())
           for sym, table in alg.operations.items()}
    return FiniteAlgebra(f"{alg.name}_mod", m, ops), tuple(theta.class_ids)


def push_partition(theta: Partition, class_map: Sequence[int], quotient_size: int,
                   p: Partition) -> Partition:
    """Image of a partition p >= theta under the quotient map."""
    ids = [0] * quotient_size
    seen = [False] * quotient_size
    for x in range(p.size):
        c = class_map[x]
        if seen[c] and ids[c] != p.class_ids[x]:
            raise AlgebraError("partition does not factor through the quotient")
        ids[c] = p.class_ids[x]
        seen[c] = True
    return Partition(quotient_size, tuple(ids))


def all_subuniverses(alg: FiniteAlgebra) -> list:
    """Every nonempty subuniverse, each as a sorted tuple of elements.

    Closes each of the 2^n - 1 nonempty subsets, so the universe size is
    capped at SUBUNIVERSE_SIZE_CAP.
    """
    n = alg.size
    if n > SUBUNIVERSE_SIZE_CAP:
        raise CapExceeded(
            f"subuniverse enumeration capped at universe size {SUBUNIVERSE_SIZE_CAP}, "
            f"algebra has {n}")
    out = set()
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            out.add(generate_subuniverse(alg, subset))
    return sorted(out, key=lambda s: (len(s), s))


def subalgebra(alg: FiniteAlgebra, subuniverse: Sequence[int]) -> FiniteAlgebra:
    """Restrict to a subuniverse, relabelling elements by their sorted position."""
    sub = tuple(sorted(subuniverse))
    pos = np.full(alg.size, -1)
    pos[list(sub)] = np.arange(len(sub))
    ops = {}
    for sym, table in alg.operations.items():
        values = _restricted(alg, table, sub)
        mapped = pos[values]
        if (mapped < 0).any():
            at = np.unravel_index(np.argmin(mapped), mapped.shape)
            args = tuple(sub[i] for i in at)
            raise AlgebraError(
                f"{sub} is not closed under '{sym}' at {args} (value {values[at]})")
        ops[sym] = OperationTable(table.arity, len(sub), mapped.ravel().tolist())
    return FiniteAlgebra(f"{alg.name}_sub", len(sub), ops)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Binary direct product; element (x, y) is encoded as x*b.size + y."""
    if set(a.operations) != set(b.operations):
        raise AlgebraError("product factors must share their signature")
    ops = {}
    nb = b.size
    pairs = np.arange(a.size * nb)
    for sym, ta in a.operations.items():
        tb = b.operations[sym]
        if ta.arity != tb.arity:
            raise AlgebraError(f"arity mismatch for '{sym}' in product")
        values = (_restricted(a, ta, pairs // nb) * nb
                  + _restricted(b, tb, pairs % nb))
        ops[sym] = OperationTable(ta.arity, a.size * nb, values.ravel().tolist())
    return FiniteAlgebra(f"{a.name}x{b.name}", a.size * b.size, ops)


# ---------------------------------------------------------------------------
# D-relations and relation composition

def d_rel(alg: FiniteAlgebra, a: int, b: int) -> GeneratedSet:
    """D_{a,b}: the subuniverse of A^2 generated by (a,b), (b,a) and the
    diagonal.  Always reflexive and symmetric."""
    gens = [(a, b), (b, a)] + [(c, c) for c in range(alg.size)]
    return generate_subpower(alg, 2, gens)


def polynomial_image_pairs(alg: FiniteAlgebra, a: int, b: int) -> GeneratedSet:
    """{(p(a), p(b)) : p a unary polynomial}, as the subuniverse of A^2
    generated by (a,b) and the diagonal."""
    gens = [(a, b)] + [(c, c) for c in range(alg.size)]
    return generate_subpower(alg, 2, gens)


def compose_relations(r: Iterable[tuple], s: Iterable[tuple]) -> frozenset:
    """{(x, z) : exists y with (x,y) in r and (y,z) in s}."""
    by_mid: dict = {}
    for y, z in s:
        by_mid.setdefault(y, []).append(z)
    out = set()
    for x, y in r:
        for z in by_mid.get(y, ()):
            out.add((x, z))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Unary polynomials

def unary_polynomials(alg: FiniteAlgebra, max_size: int = POL1_SIZE_CAP) -> tuple:
    """All unary polynomial operations, each with one witnessing term.

    Computed as the subuniverse of the function power A^A generated by the
    identity map and the constant maps.  Returns ((values, term), ...) in
    deterministic discovery order; `values` is the map as a tuple.
    """
    n = alg.size
    if n > max_size:
        raise CapExceeded(
            f"unary polynomial enumeration capped at universe size {max_size}, "
            f"algebra has {n}")
    identity = tuple(range(n))
    gens = [identity] + [(c,) * n for c in range(n)]
    gen_set = generate_subpower(alg, n, gens)
    leaf_terms = {0: Var(0)}
    for c in range(n):
        idx = gen_set.index[(c,) * n]
        if idx != 0:
            leaf_terms.setdefault(idx, Const(c))
    return tuple((elem, gen_set.term_for(i, leaf_terms))
                 for i, elem in enumerate(gen_set.elements))


# ---------------------------------------------------------------------------
# Fast (untraced) closure and the commutator

def _apply_block(tables: np.ndarray, columns: np.ndarray, box: list,
                 n: int) -> np.ndarray:
    """Keys of op(x_1, .., x_k) for x_i over the element rows in box[i].

    `tables[c]` is the operation table times the weight of coordinate c.
    Argument i's column is laid along axis i, so the table index `acc`
    broadcasts up to the full box only at its last step.  Returns the keys
    flattened.
    """
    arity = len(box)
    key = 0
    for table, col in zip(tables, columns):
        acc = 0
        for i, (lo, hi) in enumerate(box):
            shape = [1] * arity
            shape[i] = hi - lo
            acc = acc * n + col[lo:hi].reshape(shape)
        key += table[acc]
    return key.ravel()


def subpower_closure_fast(alg: FiniteAlgebra, power: int,
                          generators: Sequence[tuple]) -> np.ndarray:
    """Vectorized closure of a generated subset of A^power, no traces.

    Returns an (m, power) int array.  A tuple's key is its base-n value.
    The closure runs in semi-naive rounds: for each operation and each
    argument position `pos`, the arguments before `pos` range over the
    elements known before the round, argument `pos` over those found in the
    last round, and the arguments after `pos` over all of them, so every
    combination is evaluated once.  A combination's key is summed one
    coordinate at a time, from a table index built by broadcasting the
    argument columns against each other.  `core.BLOCK_SIZE` bounds the
    combinations evaluated at once, and with them the size of the
    temporary arrays.

    Element order: the generators sorted, then each round's new keys in
    ascending order.  It differs from the breadth-first order of
    `generate_subpower`.
    """
    n = alg.size
    space = n ** power
    if space > FAST_CLOSURE_SPACE_CAP:
        raise CapExceeded(f"A^{power} has {space} tuples, beyond the closure cap")
    weights = n ** np.arange(power - 1, -1, -1, dtype=np.int64)
    visited = np.zeros(space, dtype=bool)

    gen = np.asarray(sorted(set(tuple(g) for g in generators)), dtype=np.int64)
    if gen.ndim != 2 or gen.shape[1] != power:
        raise AlgebraError("generators must be tuples of length `power`")
    if gen.min() < 0 or gen.max() >= n:
        raise AlgebraError(f"generators have entries outside 0..{n - 1}")
    visited[gen @ weights] = True
    elements = gen
    new_count = len(gen)
    ops = [(t.arity, weights[:, None] * t.array) for t in alg.operations.values()]

    while new_count:
        total = len(elements)
        old = total - new_count
        columns = np.ascontiguousarray(elements.T)
        fresh = []
        for arity, tables in ops:
            for pos in range(arity):
                bounds = ([(0, old)] * pos + [(old, total)]
                          + [(0, total)] * (arity - 1 - pos))
                for box in _blocks(bounds):
                    keys = _apply_block(tables, columns, box, n)
                    keys = keys[~visited[keys]]
                    if len(keys):
                        fresh.append(np.unique(keys))
        if not fresh:
            break
        keys = np.unique(np.concatenate(fresh))
        visited[keys] = True
        elements = np.concatenate([elements, keys[:, None] // weights % n])
        new_count = len(keys)
    return elements


def _matrix_closure(alg: FiniteAlgebra, alpha_pairs: Iterable[tuple],
                    beta: Partition) -> np.ndarray:
    """Closure in A^4 of the rows (a, a, b, b) for each given alpha-pair
    and (c, d, c, d) for every beta-pair, as an (m, 4) int64 array."""
    gens = {(a, a, b, b) for a, b in alpha_pairs}
    gens.update((c, d, c, d) for c, d in beta.pairs())
    return subpower_closure_fast(alg, 4, sorted(gens))


def matrix_set(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> np.ndarray:
    """M(alpha, beta): rows (m11, m12, m21, m22) read as 2x2 matrices,
    generated from alpha-pairs duplicated as rows and beta-pairs duplicated
    as columns.  The closure's (m, 4) int64 array."""
    return _matrix_closure(alg, alpha.pairs(), beta)


def _spanning_pairs(p: Partition) -> list:
    """A symmetric generating set of p: (b0, x) and (x, b0) for each member
    x of a class other than its least element b0."""
    return [pair for block in p.blocks() for x in block[1:]
            for pair in ((block[0], x), (x, block[0]))]


def _check_congruences(alg: FiniteAlgebra, *parts: Partition):
    for p in parts:
        bad = congruence_violation(alg, p)
        if bad is not None:
            raise PreconditionError(
                f"partition {p} is not a congruence of {alg.name}: "
                f"operation '{bad[0]}' separates {bad[1]} and {bad[2]}")


def _term_condition_fixpoint(alg: FiniteAlgebra, matrices: np.ndarray) -> Partition:
    """The least congruence delta such that every row of `matrices` with a
    delta-related top row has a delta-related bottom row: the least fixpoint
    of delta <- Cg(delta u {(m21, m22) : m11 delta m12}) from 0_A."""
    result = Partition.zero(alg.size)
    pairs = np.empty((0, 2), dtype=np.int64)
    while True:
        ids = np.asarray(result.class_ids, dtype=np.int64)[matrices]
        grow = (ids[:, 0] == ids[:, 1]) & (ids[:, 2] != ids[:, 3])
        if not grow.any():
            return result
        pairs = np.concatenate([pairs, matrices[grow, 2:]])
        result = congruence_generated(alg, pairs.tolist())


@lru_cache(maxsize=None)
def commutator(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Partition:
    """The binary commutator [alpha, beta], via 2x2 matrix generation.

    The least congruence delta such that every matrix with a delta-related
    top row has a delta-related bottom row, which is the term condition
    itself, found by `_term_condition_fixpoint`; the first step is the
    congruence generated by the bottom rows of the matrices with a
    constant top row.  The matrices are M(S, beta), generated from a
    symmetric generating set S of alpha (`_spanning_pairs`) duplicated as
    rows and from every beta-pair duplicated as columns; they have the same
    term condition as M(alpha, beta):
      {(a, b) : t(a,c) delta t(a,d) <=> t(b,c) delta t(b,d) for all t, c beta d}
      is a congruence, and the condition on M(S, beta) puts S, so alpha, in it.
    S must be symmetric and beta must stay whole, because the term condition
    is not symmetric.  Guaranteed to lie below alpha meet beta; a violation
    of that bound is raised loudly.
    """
    _check_congruences(alg, alpha, beta)
    matrices = _matrix_closure(alg, _spanning_pairs(alpha), beta)
    result = _term_condition_fixpoint(alg, matrices)
    if not result.refines(alpha.meet(beta)):
        raise FalsificationError(
            f"commutator bound failed on {alg.name}: [{alpha}, {beta}] = {result} "
            f"is not below the meet")
    return result


def commutator_oracle(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Partition:
    """Independent commutator: the least congruence delta for which every
    matrix in M(alpha, beta) with a delta-related top row has a
    delta-related bottom row, found by scanning the whole lattice."""
    _check_congruences(alg, alpha, beta)
    matrices = matrix_set(alg, alpha, beta)
    lattice = congruence_lattice(alg)

    def satisfies(delta: Partition) -> bool:
        ids = np.asarray(delta.class_ids, dtype=np.int64)
        top = ids[matrices[:, 0]] == ids[matrices[:, 1]]
        bottom = ids[matrices[:, 2]] == ids[matrices[:, 3]]
        return not bool(np.any(top & ~bottom))

    candidates = [delta for delta in lattice if satisfies(delta)]
    if not candidates:
        raise FalsificationError(
            f"no congruence of {alg.name} satisfies the term condition for "
            f"({alpha}, {beta}); 1_A should always work")
    least = candidates[0]
    for delta in candidates[1:]:
        least = least.meet(delta)
    if not satisfies(least):
        raise FalsificationError(
            "congruences satisfying the term condition are not meet closed "
            f"on {alg.name} for ({alpha}, {beta})")
    return least


def is_abelian(alg: FiniteAlgebra, alpha: Partition) -> bool:
    """Whether [alpha, alpha] is the identity congruence."""
    return commutator(alg, alpha, alpha).is_zero
