"""Closure computations in finite powers.

Subuniverse generation with derivation traces, principal congruences and
congruence lattices, quotients, products and subalgebras, the D-relation,
and the binary commutator.

One closure engine, `_subpower_closure`, closes subsets of finite
powers in semi-naive rounds and records for each new tuple the first
argument combination that produced it, as a step row of operation number
and argument indices.  It takes a sequence of generator
sets, its lanes, and closes each on its own in the one round loop, so the
fixed work of a call (set-up, sorting the new keys, round bookkeeping) is
paid once for many small closures.  Each operation's table, weighted per
coordinate, is laid out once per call as rows of n values, one row per
combination of the leading arguments.  The argument combinations of a
round are cut into boxes by `_blocks`, which the term kernel of `core`
shares, so that neither the gathered rows nor the keys of a box exceed
`core.BLOCK_SIZE`; `_apply_block` evaluates a box by gathering one row per
leading combination and coordinate and indexing it by the last argument.
`generate_subpower` wraps the rows and steps of one lane, as they come,
in a `GeneratedSet`, and `d_rels` those of one lane per generator pair;
these sets are used wherever witnesses must be replayed (D-relations,
polynomial image pairs, and `oracles.unary_polynomials`), and their
`terms` builder is the one place a trace becomes a term.  A caller that
looks elements up builds its own index over the rows.  The commutator's
matrix sets in A^4 and `oracles.generate_subuniverse` take the int64 rows
directly.  The element order is documented at `generate_subpower`, and
the test suite checks it, trace for trace, against a plain Python loop.

The commutator [alpha, beta] is computed by construction as the least
congruence satisfying the term condition, by a fixpoint over class-id
masks of the matrix array.  It closes the matrices M(S, beta) of a
symmetric generating set S of alpha, which have the same term condition
as M(alpha, beta) and are far fewer; S is one star per alpha-class, each
centred where its one-step translation image is smallest.  It closes them
over orbit representatives of the fixed Klein four-group `_KLEIN_GROUP`
of row and column swaps: S and beta are symmetric, so the generator set
is invariant under the swaps, and the operations act coordinatewise, so
they commute with them; hence M(S, beta) is invariant too, and a round
needs the first argument of its combinations only from the least tuple
of each orbit, provided it adds the whole orbit of each new tuple (see
`_subpower_closure`).  The closure refuses generators that are not
invariant.  The public `commutator` checks its arguments are congruences;
the library's own callers pass congruences it built to the cached
`_commutator`.  `matrix_set` keeps the full M(alpha, beta) in the plain
rounds, so `oracles.commutator_oracle`, which scans the congruence
lattice against it, shares neither reduction with `commutator`.

The congruence layer follows R. Freese, "Computing congruences
efficiently", Algebra Universalis 59 (2008) 337-343.  Principal
congruences come from a quick-find union over the unary translations: a
flat list of class labels, relabelled whole on each merge, so the inner
loop over translations reads two labels per map.  In a finite algebra
every congruence is a join of join-irreducible ones, and those are
principal, so `congruence_lattice` is a breadth-first search from 0_A
that joins each congruence found with the join-irreducible principals
only, and reads the upper covers of theta off those same joins: they are
the minimal elements of {theta v J} minus {theta}.  `congruence_violation`
tests every operation and argument position at once with numpy, over the
table of value classes.  Of the library, only the `con` command builds the
lattice; the independent oracles that the tests compare against this
module (the alternating-closure congruence generator and the lattice-scan
commutator) live in `smbalg.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import (AlgebraError, App, CapExceeded, Const, FalsificationError,
                   FiniteAlgebra, OperationTable, PreconditionError, _blocks)
from .partitions import Partition

LATTICE_SIZE_CAP = 10


# ---------------------------------------------------------------------------
# Subpower closure

@dataclass(frozen=True, eq=False)
class GeneratedSet:
    """A generated subset of A^k with one derivation step per element: the
    int64 `rows` and `steps` of one lane of `_subpower_closure`, as they are.

    Step i is all -1 for a generator, else an index into `symbols` (the
    operation names in `alg.operations` order) and then the parent indices,
    -1-padded.  Replaying the steps from the generators gives the rows.
    """
    symbols: tuple
    rows: np.ndarray
    steps: np.ndarray

    def __len__(self):
        return len(self.rows)

    def terms(self, variables: dict):
        """The witness-term builder of this set: a function from element
        index to a term over the generators, read along the steps.

        A generator that is a key of `variables` becomes that key's term;
        any other generator must be a constant tuple (c, .., c) and becomes
        Const(c).  Derived elements become applications.  All calls to one
        builder share a memo, so equal subterms are one object.
        """
        steps = self.steps.tolist()
        memo: dict = {}

        def build(j):
            if j in memo:
                return memo[j]
            o, *parents = steps[j]
            if o >= 0:
                t = App(self.symbols[o], tuple(build(p) for p in parents if p >= 0))
            else:
                elem = tuple(self.rows[j].tolist())
                t = variables.get(elem)
                if t is None:
                    if len(set(elem)) != 1:
                        raise AlgebraError(
                            f"no leaf term supplied for generator index {j}")
                    t = Const(elem[0])
            memo[j] = t
            return t

        return build


def _apply_block(tables: np.ndarray, heads: np.ndarray, columns: np.ndarray,
                 box: list, n: int) -> np.ndarray:
    """Keys of op(x_1, .., x_r) for x_1 over the rows in box[0] of `heads`
    and x_i, i > 1, over the element rows in box[i], in lexicographic
    order of the combination (last argument fastest).

    `tables[c]` is the operation table times the weight of coordinate c,
    laid out as n**(r-1) rows of n values, one row per combination of the
    leading arguments.  For each coordinate the leading arguments' columns
    pick one row per leading combination, the last argument's column
    indexes into those rows, and the k coordinates are summed.  A box
    with L leading combinations gathers k * n * L row values, which
    `_subpower_closure` keeps within BLOCK_SIZE along with its keys.
    """
    *lead, (lo, hi) = box
    if lead:        # (k, leading combinations): the row each one picks
        at = heads[:, lead[0][0]:lead[0][1]]
        for a, b in lead[1:]:
            at = (at[:, :, None] * n + columns[:, None, a:b]).reshape(len(columns), -1)
        last = columns[:, lo:hi]
    else:
        at, last = np.zeros((len(heads), 1), dtype=np.int64), heads[:, lo:hi]
    key = 0
    for table, row, col in zip(tables, at, last):
        key += table[row][:, col]
    return key.ravel()


def _subpower_closure(alg: FiniteAlgebra, k: int, lanes: Sequence,
                      group=()) -> list:
    """Least subsets of A^k containing each generator set of `lanes`,
    closed under all operations applied coordinatewise: every lane closed
    on its own, all in one loop of semi-naive rounds.

    Returns one (rows, steps) per lane: its elements as an (m, k) int64
    array in the order of `generate_subpower`, and their derivation steps
    as an (m, 1 + max arity) int64 array.  Row i of `steps` holds the
    operation number (in `alg.operations` order) of the first argument
    combination that produced element i, then that combination's argument
    indices into the lane's rows, padded with -1; a generator's row is all
    -1.  Each lane's elements and steps are those it has when closed alone.

    A tuple's key in lane l is l * n**k plus its base-n value, so
    len(lanes) * n**k must fit in int64, which is checked before any work.
    Keys already known are found in one `visited` bitmap when there are at
    most core.FAST_CLOSURE_SPACE_CAP keys, and by binary search in the sorted
    known keys above it.  Each round lays every lane's rows out in one
    contiguous run, so a lane's argument combinations are a product of
    index ranges, cut into boxes by `_blocks` and evaluated by
    `_apply_block`.  Each operation's weighted tables are laid out once per
    call as (k, n**(r-1), n): for coordinate c, one row of n values per
    combination of the r - 1 leading arguments.  A box gathers k * n row
    values per leading combination, more than its keys when the last range
    is shorter than k * n, so `_blocks` charges the last range as at least
    k * n long and keeps both within BLOCK_SIZE.  A box's keys come in
    lexicographic order of the combination, last argument fastest, and are
    filtered against the known ones at once.  The new keys of all lanes are
    sorted together once per operation and argument position, where a
    key's first occurrence gives its step, its flat index unravelled
    against its box, and once per round, where each lane takes its slice
    of rows and steps.

    `group` is a closed group G of coordinate permutations, identity
    first (in practice `_KLEIN_GROUP`), and takes one lane only: g moves
    coordinate c to position g[c], so column g of `rows @ weights[group].T`
    holds the keys of the images under g.  G must map the generator set
    onto itself, else AlgebraError before any work.  Operations act
    coordinatewise, so they commute with every g in G, and the closure is
    G-invariant.  Each box's new tuples are then closed under G at once, so
    the earlier and the new tuples of every round stay G-invariant, and
    argument 0 runs over orbit representatives only (the tuples whose key
    is least in their orbit).  Nothing is lost: any combination is g^-1 of
    one whose argument 0 is a representative, with every argument in the
    same range (earlier or new), and its value is g^-1 of that one's value.
    No steps are kept then (`steps` is None), and each round's new tuples
    come in ascending key order.
    """
    if k < 1:
        raise AlgebraError(f"power must be >= 1, got {k}")
    n = alg.size
    space = n ** k
    if len(lanes) * space > 1 << 63:
        raise CapExceeded(f"{len(lanes)} lane(s) of A^{k} hold {len(lanes) * space} "
                          f"tuples, beyond the int64 key range")
    if group and len(lanes) != 1:
        raise AlgebraError("a closure under a group takes exactly one lane")
    if not len(lanes):
        return []
    gens = []
    for lane in lanes:
        try:
            lane = np.asarray(lane)
        except ValueError:
            raise AlgebraError(f"generators must be tuples of {k} integers") from None
        if not len(lane):
            raise AlgebraError("at least one generator is required")
        if lane.ndim != 2 or lane.shape[1] != k or lane.dtype.kind not in "iu":
            raise AlgebraError(f"generators must be tuples of {k} integers")
        gens.append(lane)
    offsets = [lane * space for lane in range(len(gens))]
    ends = offsets[1:]                   # where each lane's keys end
    sizes = [len(lane) for lane in gens]
    gens = np.concatenate(gens).astype(np.int64, copy=False)
    if gens.min() < 0 or gens.max() >= n:
        raise AlgebraError(f"generators have entries outside 0..{n - 1}")

    weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    keys = gens @ weights
    if ends:
        keys += np.repeat(np.array(offsets), sizes)
    known, first = np.unique(keys, return_index=True)
    if len(offsets) * space <= core.FAST_CLOSURE_SPACE_CAP:
        visited = np.zeros(len(offsets) * space, dtype=bool)
        visited[known] = True
    else:
        visited = None

    def unseen(keys, off):
        if visited is not None:
            return ~visited[off:off + space][keys]
        keys = keys + off
        return known[np.minimum(np.searchsorted(known, keys), len(known) - 1)] != keys

    def least(new):
        """Indices of the rows of `new` that are least in their G-orbit."""
        images = new @ orbit.T
        return (images.min(1) == images[:, 0]).nonzero()[0]

    def lane_bounds(keys):
        """Where each lane's run starts and ends in the sorted `keys`."""
        return [0, *(np.searchsorted(keys, ends).tolist() if ends else []), len(keys)]

    traced = not group
    first.sort()
    new, cut = gens[first], lane_bounds(known)   # lane-major, like the lanes
    ops = [(t.arity, (weights[:, None] * t.array).reshape(k, -1, n))
           for t in alg.operations.values()]
    width = 1 + max((arity for arity, _ in ops), default=0)
    parts = [[] for _ in offsets]        # per lane: its rows, round by round
    traces = [[] for _ in offsets]       # per lane: its steps, round by round
    old, total = [0] * len(offsets), [0] * len(offsets)
    steps = np.full((len(new), width), -1, dtype=np.int64)    # the generators'
    if not traced:
        orbit = weights[np.array(group)]
        if unseen((new @ orbit.T).ravel(), 0).any():
            raise AlgebraError(f"generators are not invariant under the group {group}")
        heads, heads_old = least(new), 0
    while True:
        for lane, (lo, hi) in enumerate(zip(cut, cut[1:])):
            old[lane] = total[lane]
            if hi > lo:
                parts[lane].append(new[lo:hi])
                if traced:
                    traces[lane].append(steps[lo:hi])
                total[lane] += hi - lo
        rows = np.concatenate([chunk for part in parts for chunk in part])
        columns = np.ascontiguousarray(rows.T)
        spans = []             # (lane, its head columns, its columns) if it grew
        start = 0
        for lane, size in enumerate(total):
            if size > old[lane]:
                lane_columns = columns[:, start:start + size]
                spans.append((lane, lane_columns if traced else lane_columns[:, heads],
                              lane_columns))
            start += size
        found, found_steps = [], []
        for o, (arity, tables) in enumerate(ops):
            for pos in range(arity):
                got, got_at, got_box = [], [], []
                for lane, head_columns, lane_columns in spans:
                    bounds = ([(0, old[lane])] * pos + [(old[lane], total[lane])]
                              + [(0, total[lane])] * (arity - 1 - pos))
                    if not traced:
                        bounds[0] = (0, heads_old) if pos else (heads_old, len(heads))
                    for box in _blocks(bounds, k * n):
                        keys = _apply_block(tables, head_columns, lane_columns, box, n)
                        at = unseen(keys, offsets[lane]).nonzero()[0]
                        keys = keys[at]      # lets the whole box go before the next
                        if not len(at):
                            continue
                        if traced:
                            keys += offsets[lane]
                            got.append(keys)
                            got_at.append(at)
                            got_box.append(box)
                        else:    # whole orbits, so later boxes see them as known
                            keys = np.unique(keys, return_index=True)[0]
                            images = (keys[:, None] // weights % n) @ orbit.T
                            # return_index, since plain np.unique imports numpy.ma
                            keys = np.unique(images, return_index=True)[0]
                            found.append(keys)
                        if visited is not None:
                            visited[keys] = True
                if got:
                    # boxes were gathered in processing order, so the first
                    # occurrence of a key carries its first producing combination
                    keys, first = np.unique(np.concatenate(got), return_index=True)
                    at = np.concatenate(got_at)[first]
                    box = np.repeat(got_box, [len(g) for g in got], axis=0)[first]
                    step = np.full((len(keys), width), -1, dtype=np.int64)
                    step[:, 0] = o
                    for i in reversed(range(arity)):   # box[:, i] is (lo, hi)
                        at, step[:, 1 + i] = np.divmod(at, box[:, i, 1] - box[:, i, 0])
                    step[:, 1:1 + arity] += box[:, :, 0]
                    found.append(keys)
                    found_steps.append(step)
        if not found:
            break
        keys, first = np.unique(np.concatenate(found), return_index=True)
        new, cut = keys[:, None] // weights % n, lane_bounds(keys)
        if traced:
            steps = np.concatenate(found_steps)[first]
        else:
            heads_old = len(heads)
            heads = np.concatenate([heads, total[0] + least(new)])
        if visited is None:
            known = np.sort(np.concatenate([known, keys]))
    return [(np.concatenate(part), np.concatenate(trace) if traced else None)
            for part, trace in zip(parts, traces)]


def _generated_sets(alg: FiniteAlgebra, k: int, lanes: Sequence) -> list:
    """One traced `GeneratedSet` per generator set of `lanes`, all closed
    together by `_subpower_closure`, each holding its lane's arrays."""
    symbols = tuple(alg.operations)
    return [GeneratedSet(symbols, rows, steps)
            for rows, steps in _subpower_closure(alg, k, lanes)]


def generate_subpower(alg: FiniteAlgebra, k: int,
                      generators: Sequence[tuple]) -> GeneratedSet:
    """Least subset of A^k containing `generators`, closed under all
    operations applied coordinatewise, with a derivation step per element.

    Element order: the generators in the given order (duplicates dropped),
    then each semi-naive round's new tuples in ascending order.  A round
    takes each operation in declaration order and each argument position
    `pos`, with the arguments before `pos` from earlier rounds, at `pos`
    from the last round and after `pos` from any round, so every argument
    combination is evaluated once.  The combinations of one operation and
    `pos` are taken in lexicographic order of their element indices, in
    boxes of at most `core.BLOCK_SIZE` evaluated at once by numpy; a new
    tuple's step is the operation number and argument indices of the first
    combination that produced it.  The set holds the `rows` and `steps` of
    one lane of `_subpower_closure` as they come; `d_rels` closes many
    lanes at once, each in this same order.
    """
    return _generated_sets(alg, k, [generators])[0]


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

    Quick-find over the one-step images: `label[x]` names the class of x,
    and merging two classes relabels one of them in a single pass over the
    list.  Whenever two classes merge, the images of the merged pair under
    every unary translation are queued to merge as well, unless they
    already carry one label.
    """
    n = alg.size
    maps = _translations(alg)
    label = list(range(n))
    queue = [(a, b) for a, b in pairs]
    for a, b in queue:
        if not (0 <= a < n and 0 <= b < n):
            raise AlgebraError(f"pair ({a}, {b}) out of range 0..{n - 1}")
    while queue:
        a, b = queue.pop()
        keep, drop = label[a], label[b]
        if keep == drop:
            continue
        label = [keep if c == drop else c for c in label]
        for m in maps:
            ma, mb = m[a], m[b]
            if label[ma] != label[mb]:
                queue.append((ma, mb))
    return Partition(n, tuple(label))


@lru_cache(maxsize=None)
def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence of `alg` containing (a, b)."""
    return congruence_generated(alg, [(a, b)])


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


def _join_irreducibles(principals: dict) -> dict:
    """The join-irreducible members of {Cg(a, b) -> (a, b)}, in its order.

    Every congruence strictly below a principal p is a join of principals
    strictly below p, so p is join-irreducible exactly when the join of
    the principals strictly below it is not p itself."""
    out = {}
    for p, pair in principals.items():
        below = Partition.zero(p.size)
        for q in principals:
            if q is not p and q.refines(p):
                below = below.join(q)
        if below != p:
            out[p] = pair
    return out


def congruence_lattice(alg: FiniteAlgebra) -> CongruenceLattice:
    """All congruences and the covering relation (Freese 2008).

    Breadth-first search from 0_A: each congruence theta found is joined
    with every join-irreducible congruence J not below it.  In a finite
    algebra the join-irreducibles are principal (`_join_irreducibles`
    picks them from the distinct nonzero Cg(a, b)), and every congruence
    is the join of those below it, so the search finds every member.  The
    upper covers of theta are the minimal elements of {theta v J} minus
    {theta}: for mu > theta some join-irreducible J <= mu is not below
    theta, and then theta < theta v J <= mu.  With (a, b) the first pair
    of J = Cg(a, b), theta v J lies below mu exactly when mu relates a and
    b, so minimality needs no further joins.

    Congruences are sorted from 0_A towards 1_A by (-classes, class ids),
    and covers are sorted (i, j) index pairs.
    """
    n = alg.size
    if n > LATTICE_SIZE_CAP:
        raise CapExceeded(
            f"congruence lattice capped at universe size {LATTICE_SIZE_CAP}, algebra has {n}")
    principals: dict = {}      # distinct nonzero Cg(a, b) -> its first pair
    for a in range(n):
        for b in range(a + 1, n):
            principals.setdefault(congruence_generated(alg, [(a, b)]), (a, b))
    irreducibles = _join_irreducibles(principals)
    zero = Partition.zero(n)
    members = [zero]           # in discovery order
    found = {zero: 0}
    upper = []                 # discovery index -> upper covers' indices
    for theta in members:
        steps = []             # (index of theta v J, a, b) with J = Cg(a, b)
        for ji, (a, b) in irreducibles.items():
            if theta.related(a, b):
                continue
            joined = theta.join(ji)
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
    ops = {sym: OperationTable(table.arity, m, ids[_restricted(alg, table, reps)].ravel())
           for sym, table in alg.operations.items()}
    return FiniteAlgebra(f"{alg.name}_mod", m, ops), tuple(theta.class_ids)


def push_partition(theta: Partition, class_map: Sequence[int], quotient_size: int,
                   p: Partition) -> Partition:
    """Image of a partition p >= theta under the quotient map."""
    if not p.size == theta.size == len(class_map):
        raise AlgebraError(f"partitions of {theta.size} and {p.size} elements "
                           f"with a class map of length {len(class_map)}")
    if not all(0 <= c < quotient_size for c in class_map):
        raise AlgebraError(f"class map leaves the range 0..{quotient_size - 1}")
    ids = [0] * quotient_size
    seen = [False] * quotient_size
    for x in range(p.size):
        c = class_map[x]
        if seen[c] and ids[c] != p.class_ids[x]:
            raise AlgebraError("partition does not factor through the quotient")
        ids[c] = p.class_ids[x]
        seen[c] = True
    return Partition(quotient_size, tuple(ids))


def subalgebra(alg: FiniteAlgebra, subuniverse: Sequence[int]) -> FiniteAlgebra:
    """Restrict to a subuniverse, relabelling elements by their sorted position."""
    sub = tuple(sorted(subuniverse))
    if len(set(sub)) < len(sub) or not all(0 <= x < alg.size for x in sub):
        raise AlgebraError(f"subuniverse {sub} is not a set of elements 0..{alg.size - 1}")
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
        ops[sym] = OperationTable(table.arity, len(sub), mapped.ravel())
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
        ops[sym] = OperationTable(ta.arity, a.size * nb, values.ravel())
    return FiniteAlgebra(f"{a.name}x{b.name}", a.size * b.size, ops)


# ---------------------------------------------------------------------------
# D-relations and polynomial image pairs

def d_rels(alg: FiniteAlgebra, pairs: Iterable[tuple]) -> list:
    """D_{a,b} for each (a, b) of `pairs`, in order: the subuniverse of A^2
    generated by (a,b), (b,a) and the diagonal, always reflexive and
    symmetric.  Each is one lane of a single `_subpower_closure`, with the
    rows and steps `generate_subpower` gives it alone."""
    diagonal = [(c, c) for c in range(alg.size)]
    return _generated_sets(alg, 2, [[(a, b), (b, a)] + diagonal for a, b in pairs])


def d_rel(alg: FiniteAlgebra, a: int, b: int) -> GeneratedSet:
    """D_{a,b}, the one-pair call of `d_rels`."""
    return d_rels(alg, [(a, b)])[0]


def polynomial_image_pairs(alg: FiniteAlgebra, a: int, b: int) -> GeneratedSet:
    """{(p(a), p(b)) : p a unary polynomial}, as the subuniverse of A^2
    generated by (a,b) and the diagonal."""
    gens = [(a, b)] + [(c, c) for c in range(alg.size)]
    return generate_subpower(alg, 2, gens)


# ---------------------------------------------------------------------------
# The commutator

# The Klein four-group on A^4 read as 2x2 matrices (m11, m12, m21, m22):
# the identity, swap the rows, swap the columns, or both.  Each element is
# an involution, so it is its own inverse.
_KLEIN_GROUP = ((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0))


def _matrix_closure(alg: FiniteAlgebra, alpha_pairs: Iterable[tuple],
                    beta: Partition, group=()) -> np.ndarray:
    """Closure in A^4 of the rows (a, a, b, b) for each given alpha-pair
    and (c, d, c, d) for every beta-pair, as an (m, 4) int64 array.  A^4
    must fit in core.FAST_CLOSURE_SPACE_CAP, which is checked first.

    With `group` = _KLEIN_GROUP the closure runs over orbit
    representatives.  That is exact when the alpha-pairs are symmetric:
    the row swap maps (a, a, b, b) to (b, b, a, a) and fixes (c, d, c, d),
    the column swap fixes (a, a, b, b) and maps (c, d, c, d) to
    (d, c, d, c), and beta is symmetric, so the generator set is invariant,
    and so is its closure, since operations act coordinatewise.  A
    one-directional pair set is refused with AlgebraError, never closed as
    the orbits of its generators."""
    n = alg.size
    if n ** 4 > core.FAST_CLOSURE_SPACE_CAP:
        raise CapExceeded(f"A^4 has {n ** 4} tuples, beyond the closure cap")
    gens = [(a, a, b, b) for a, b in alpha_pairs]
    gens += [(c, d, c, d) for c, d in beta.pairs()]
    return _subpower_closure(alg, 4, [gens], group)[0][0]


def matrix_set(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> np.ndarray:
    """M(alpha, beta): rows (m11, m12, m21, m22) read as 2x2 matrices,
    generated from alpha-pairs duplicated as rows and beta-pairs duplicated
    as columns.  The closure's (m, 4) int64 array, closed by the plain
    semi-naive rounds: `oracles.commutator_oracle` reads it, and so stays
    independent of the orbit reduction that `commutator` uses."""
    return _matrix_closure(alg, alpha.pairs(), beta)


def _spanning_pairs(alg: FiniteAlgebra, p: Partition) -> list:
    """A symmetric generating set S of the congruence p: a star (b0, x) and
    (x, b0) for each member x of a class other than its centre b0.

    Every centre gives a set that generates p, so the choice changes only
    how much `commutator` closes, never its result.  The centre of a class
    of 3 or more members is the one whose pairs (f(b0), f(x)), for x in the
    class and f the identity or a unary translation (`_translations`), are
    fewest, the least label on ties; a 2-element class has one star
    whatever its centre.  That count tracks |M(S, beta)|: the (m11, m21)
    projection of M(S, beta) is the closure of the projected generators,
    S and the diagonal, so it is the tolerance Sg^{A^2}(Delta u S), and the
    count is that tolerance after one step.
    """
    n = alg.size
    maps = None
    out = []
    for block in p.blocks():
        centre = block[0]
        if len(block) > 2:
            if maps is None:
                maps = np.array((tuple(range(n)),) + _translations(alg))
            images = maps[:, block]                       # (maps, members)
            keys = images.T[:, :, None] * n + images      # by centre
            keys = np.sort(keys.reshape(len(block), -1), axis=1)
            centre = block[int((np.diff(keys, axis=1) != 0).sum(1).argmin())]
        out += [pair for x in block if x != centre
                for pair in ((centre, x), (x, centre))]
    return out


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
    of delta <- Cg(delta u {(m21, m22) : m11 delta m12}) from 0_A, grown by
    joins, since the join of two congruences in Eq(A) is a congruence."""
    result = Partition.zero(alg.size)
    while True:
        ids = np.asarray(result.class_ids, dtype=np.int64)[matrices]
        grow = (ids[:, 0] == ids[:, 1]) & (ids[:, 2] != ids[:, 3])
        if not grow.any():
            return result
        result = result.join(congruence_generated(alg, matrices[grow, 2:].tolist()))


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
    is not symmetric.  S is one star per alpha-class, centred on the member
    whose pairs reach the fewest pairs under one unary translation; any
    centre generates alpha, so every centre gives the same result, and the
    (m11, m21) projection of M(S, beta) is the tolerance generated by S and
    the diagonal, so a centre with a smaller one-step count tends to close
    fewer matrices.  As S and beta are symmetric, M(S, beta) is invariant
    under the fixed Klein group of row and column swaps of every matrix, so
    `_matrix_closure` closes it over _KLEIN_GROUP orbit representatives:
    the same set, with about a third of the argument combinations evaluated.
    Guaranteed to lie below alpha meet beta; a violation of that bound is
    raised loudly.

    alpha and beta are checked to be congruences first; the library's own
    callers, which pass congruences it built, call the cached `_commutator`.
    """
    _check_congruences(alg, alpha, beta)
    return _commutator(alg, alpha, beta)


@lru_cache(maxsize=None)
def _commutator(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Partition:
    """`commutator` for two partitions known to be congruences."""
    pairs = _spanning_pairs(alg, alpha)
    matrices = _matrix_closure(alg, pairs, beta, _KLEIN_GROUP)
    result = _term_condition_fixpoint(alg, matrices)
    if not result.refines(alpha.meet(beta)):
        raise FalsificationError(
            f"commutator bound failed on {alg.name}: [{alpha}, {beta}] = {result} "
            f"is not below the meet")
    return result


def is_abelian(alg: FiniteAlgebra, alpha: Partition) -> bool:
    """Whether [alpha, alpha] is the identity congruence."""
    return commutator(alg, alpha, alpha).is_zero
