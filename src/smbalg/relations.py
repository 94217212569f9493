"""Closure computations in finite powers.

Subuniverse generation with derivation traces, principal congruences and
congruence lattices, quotients, products and subalgebras, the D-relation,
and the binary commutator.

One closure engine, `_subpower_closure`, closes subsets of finite
powers in semi-naive rounds and records for each new tuple the first
argument combination that produced it, as a step row of operation number
and argument indices.  Its one round loop is the generator
`_closure_rounds`, which yields the rows after each round, so a caller
can look at a closure part way and go on with it, never starting over;
`_subpower_closure` runs it to the end.  It takes a sequence of generator
sets, its lanes, and closes each on its own in the one round loop, so the
fixed work of a call (set-up, sorting the new keys, round bookkeeping) is
paid once for many small closures.  Each operation's table, weighted per
coordinate, is laid out once per call as rows of n values, one row per
combination of the leading arguments.  The argument combinations of a
round are cut into boxes by `_blocks`, which the term kernel of `core`
shares, so that neither the gathered rows nor the keys of a box exceed
`core.BLOCK_SIZE` (the term kernel bounds its boxes the same way, in the
values of all its steps); the lanes that grew alike in the last round
share each box, stacked along one more range, and `_apply_block`
evaluates a box by gathering one row per leading combination, lane and
coordinate and indexing it by the last argument.  `core.check_power`
holds the int64 keys and A^4 to their caps before any work; the closure
reads `core.FAST_CLOSURE_SPACE_CAP` only to pick the bitmap over sorted keys.
`generate_subpower` wraps the rows and steps of one lane, as they come,
in a `GeneratedSet`, and `d_rels` those of one lane per generator pair;
these sets are used wherever witnesses must be replayed (D-relations,
polynomial image pairs, and `oracles.unary_polynomials`), and their
`terms` builder is the one place a trace becomes a term.  `step_values`
is the one place library code evaluates the step arrays themselves, each
step of many sets once and without terms.  A caller that looks elements
up builds its own index over the rows.  The commutator's
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
invariant.  The answer lies between theta and alpha meet beta, so a zero
meet is returned with no closure.  After one round, the term-condition
fixpoint theta over the matrices so far lies below [alpha, beta]; if it
equals the meet it is the answer, and if it is neither that nor 0_A, the
commutator finishes in A/theta, built unchecked by `_quotient`, and is
pulled back, since C(alpha, beta; delta) holds in A exactly when
C(alpha/theta, beta/theta; delta/theta) holds in A/theta for delta >=
theta.  If it is 0_A, the same closure runs on to the end.  The public
`commutator` checks its arguments are congruences; the library's own
callers pass congruences it built to the cached `_commutator`, which also
holds the quotient commutators of the probe.  Its rows come from
`_matrix_rounds`, which `_commutator` alone calls.  `matrix_set` builds
the full M(alpha, beta) from its own rows and closes it in the plain
rounds, so `oracles.commutator_oracle`, which scans the congruence lattice
against it, shares only the closure engine with `commutator`.

The congruence layer follows R. Freese, "Computing congruences
efficiently", Algebra Universalis 59 (2008) 337-343.  The congruence
generated by explicit pairs, `congruence_generated`, is a quick-find
union over the unary translations: a flat list of class labels,
relabelled whole on each merge, so the inner loop over translations reads
two labels per map.  `_principal_table` builds every Cg(a, b), a < b, of
an algebra at once, for `principal_congruence`, the `verify` sweeps and
`congruence_lattice`: by Mal'cev's lemma Cg(a, b) is the equivalence
generated by the pairs reachable from {a, b} in the one-step pair graph,
where each translation f leads from {x, y} to {f(x), f(y)}, so one
breadth-first pass over that graph, in chunks of sources, and `_classes`
on what each source reaches give the whole table.  In a finite algebra
every congruence is a join of join-irreducible ones, and those are
principal; `_join_irreducibles` reads them off the table's index, and
`congruence_lattice` is a breadth-first search from 0_A that joins each
congruence found with the join-irreducible principals only, and reads the
upper covers of theta off those same joins: they are the minimal elements
of {theta v J} minus {theta}.  The search runs on tuples naming each
element by the least element of its class: theta v J is the quick-find
from theta over the star pairs of J (`partitions.star_pairs`, taken once
per lattice), which keeps that form, each member carries the
join-irreducibles below it as bits, and only the finished members become
`Partition`s.
`congruence_violation` tests every operation and argument position at once
with numpy, over the table of value classes.  Of the library, only the
`con` command builds the lattice; the independent oracles the tests
compare this module with (the alternating-closure congruence generator and
the lattice-scan commutator) live in `smbalg.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import (AlgebraError, App, CapExceeded, Const, FalsificationError,
                   FiniteAlgebra, OperationTable, PreconditionError, _blocks)
from .partitions import Partition, _merged, star_pairs

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


def step_values(alg: FiniteAlgebra, sets: Sequence[GeneratedSet]) -> Tuple[np.ndarray, np.ndarray]:
    """(gives, late) for the m elements of `sets`, concatenated: the (m, k)
    row each derivation step gives, applied once from the plain tables to
    the rows its parents name, and the (m,) flags of the derived elements
    with a parent that is not an earlier element of the same set.  A
    generator gives its own row, and so does a late element.  A set with no
    late element is generated by its generators exactly when every element
    gives its own row: by induction on the index, the first element that
    does not is the first one a replay from the generators gets wrong, with
    the same value.
    """
    sizes = [len(s) for s in sets]
    rows = np.concatenate([s.rows for s in sets])
    steps = np.concatenate([s.steps for s in sets])
    m, width = steps.shape
    tables = list(alg.operations.values())
    op, parents = steps[:, 0], steps[:, 1:]
    arity = np.array([0] + [t.arity for t in tables])[op + 1]     # 0 for a generator
    used = np.arange(width - 1) < arity[:, None]
    offset = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    late = (used & ((parents < 0) | (parents >= (np.arange(m) - offset)[:, None]))).any(axis=1)
    gives = rows.copy()
    for o, table in enumerate(tables):
        sel = np.flatnonzero((op == o) & ~late)
        index = 0
        for slot in range(table.arity):
            index = index * alg.size + rows[parents[sel, slot] + offset[sel]]
        gives[sel] = table.array[index]
    return gives, late


def _apply_block(tables: np.ndarray, heads: np.ndarray, columns: np.ndarray,
                 box: list, n: int) -> np.ndarray:
    """Keys of op(x_1, .., x_r) in every lane of box[-2], for x_1 over the
    rows in box[0] of that lane's `heads`, x_i, 1 < i < r, over its element
    rows in box[i - 1] and x_r over box[-1] (for r = 1, x_1 is the last
    argument, read in `heads`), in lexicographic order of (x_1, ..,
    x_(r-1), lane, x_r): the lane counts as one more leading argument,
    just before the last.

    `heads` and `columns` are (k, rows, lanes), the rows of lanes of one
    shape side by side.  `tables[c]` is the operation table times the
    weight of coordinate c, laid out as n**(r-1) rows of n values, one row
    per combination of the leading arguments.  For each coordinate the
    leading arguments' columns pick one row per leading combination and
    lane; the rows of the lanes lie side by side, so the last argument's
    column plus n times its lane indexes into them; and the k coordinates
    are summed.  A box with L leading combinations and lanes gathers
    k * n * L row values, which `_subpower_closure` keeps within BLOCK_SIZE
    along with its keys.
    """
    *lead, (a, b), (lo, hi) = box
    if lead:        # (k, leading combinations, lanes): the row each one picks
        at = heads[:, lead[0][0]:lead[0][1], a:b]
        for c, d in lead[1:]:
            at = (at[:, :, None] * n + columns[:, None, c:d, a:b]).reshape(len(at), -1, b - a)
        last = columns[:, lo:hi, a:b]
    else:
        at, last = np.zeros((len(heads), 1, b - a), dtype=np.int64), heads[:, lo:hi, a:b]
    if b - a > 1:   # lane l's n row values come l-th; one lane needs no shift
        last = last + np.arange(0, (b - a) * n, n)
    last = last.transpose(0, 2, 1).reshape(len(last), -1)
    key = 0
    for table, row, col in zip(tables, at, last):     # take copies whole rows
        key += table.take(row, axis=0).reshape(len(row), -1)[:, col]
    return key.ravel()


def _subpower_closure(alg: FiniteAlgebra, k: int, lanes: Sequence,
                      group=()) -> list:
    """Least subsets of A^k containing each generator set of `lanes`,
    closed under all operations applied coordinatewise: every lane closed
    on its own, all in one loop of semi-naive rounds, `_closure_rounds`,
    run to the end.

    Returns one (rows, steps) per lane: its elements as an (m, k) int64
    array in the order of `generate_subpower`, and their derivation steps
    as an (m, 1 + max arity) int64 array.  Row i of `steps` holds the
    operation number (in `alg.operations` order) of the first argument
    combination that produced element i, then that combination's argument
    indices into the lane's rows, padded with -1; a generator's row is all
    -1.  Each lane's elements and steps are those it has when closed alone.

    A tuple's key in lane l is l * n**k plus its base-n value, so
    len(lanes) * n**k must fit in int64; `core.check_power` checks it first.
    Keys already known are found in one `visited` bitmap when there are at
    most core.FAST_CLOSURE_SPACE_CAP keys, and by binary search in the sorted
    known keys above it.  Each round lays every lane's rows out in one
    contiguous run, so a lane's argument combinations are a product of
    index ranges.  Lanes that grew to the same (old, total) row counts have
    the same ranges, so their columns are stacked, and for each operation
    and argument position one product covers all of them, with the lane
    range just before the last argument; it is cut into boxes by `_blocks`
    and evaluated by `_apply_block`.  Lanes of other shapes are never padded
    into a box, so every combination evaluated is one its lane needs.  Each
    operation's weighted tables are laid out once per call as (k, n**(r-1),
    n): for coordinate c, one row of n values per combination of the r - 1
    leading arguments.  A box gathers k * n row values per leading
    combination and lane, more than its keys when the last range is shorter
    than k * n, so `_blocks` charges the last range as at least k * n long
    and keeps both within BLOCK_SIZE.  A box's keys come in lexicographic
    order of the combination and lane (lane just before the last argument),
    get their lane's offset, and are filtered against the known ones at
    once; each new key's step is its flat index unravelled against its box,
    lane dropped.  Within one lane the combinations still come in the order
    of `generate_subpower`, and keys of different lanes never collide, so
    when the new keys of all lanes are sorted together once per round, a
    key's first occurrence gives the step it has in its lane alone, and
    each lane takes its slice of rows and steps.

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
    rounds = _closure_rounds(alg, k, lanes, group)
    while True:
        try:
            next(rounds)
        except StopIteration as closed:
            return closed.value


def _closure_rounds(alg: FiniteAlgebra, k: int, lanes: Sequence, group=()):
    """The round loop of `_subpower_closure`, as a generator.  It yields the
    rows of all lanes closed so far as one array, lane-major: first the
    generators, then again after each semi-naive round that adds tuples.
    A round that adds none ends it, and it returns the (rows, steps) per
    lane that `_subpower_closure` returns.  The arguments are checked at
    the first `next`.  For one lane, each yield is a prefix of the lane's
    final rows and the last yield is all of them, so a caller may read a
    round, stop or go on, and never starts over."""
    if k < 1:
        raise AlgebraError(f"power must be >= 1, got {k}")
    if group and len(lanes) != 1:
        raise AlgebraError("a closure under a group takes exactly one lane")
    if not len(lanes):
        return []
    n = alg.size
    core.check_power(n, k, "each lane of int64 keys", (1 << 63) // len(lanes))
    space = n ** k
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
    offsets = np.array([lane * space for lane in range(len(gens))], dtype=np.int64)
    ends = offsets[1:]                   # where each lane's keys end
    sizes = [len(lane) for lane in gens]
    gens = np.concatenate(gens).astype(np.int64, copy=False)
    if gens.min() < 0 or gens.max() >= n:
        raise AlgebraError(f"generators have entries outside 0..{n - 1}")

    weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    keys = gens @ weights + np.repeat(offsets, sizes)
    known, first = np.unique(keys, return_index=True)
    if len(offsets) * space <= core.FAST_CLOSURE_SPACE_CAP:
        visited = np.zeros(len(offsets) * space, dtype=bool)
        visited[known] = True
    else:
        visited = None

    def unseen(keys):
        if visited is not None:
            return ~visited[keys]
        return known[np.minimum(np.searchsorted(known, keys), len(known) - 1)] != keys

    def least(new):
        """Indices of the rows of `new` that are least in their G-orbit."""
        images = new @ orbit.T
        return (images.min(1) == images[:, 0]).nonzero()[0]

    def lane_bounds(keys):
        """Where each lane's run starts and ends in the sorted `keys`."""
        return [0, *np.searchsorted(keys, ends).tolist(), len(keys)]

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
        if unseen((new @ orbit.T).ravel()).any():
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
        yield rows
        columns = np.ascontiguousarray(rows.T)
        shapes = {}            # (old, total) -> (lane, first row) of the lanes that grew so
        start = 0
        for lane, size in enumerate(total):
            if size > old[lane]:
                shapes.setdefault((old[lane], size), []).append((lane, start))
            start += size
        groups = []            # per shape: its lanes' key offsets and columns
        for (was, size), grown in shapes.items():
            if len(grown) == 1:         # a lone lane's columns are a view
                (lane, start), = grown
                stack = columns[:, start:start + size, None]
                lane_keys = offsets[lane:lane + 1, None]
            else:
                grown = np.array(grown)
                stack = columns[:, grown[:, 1] + np.arange(size)[:, None]]
                lane_keys = offsets[grown[:, :1]]
            groups.append((was, size, lane_keys, stack if traced else stack[:, heads], stack))
        found, found_steps = [], []
        for o, (arity, tables) in enumerate(ops):
            for pos in range(arity):
                for was, size, lane_keys, head_columns, stack in groups:
                    bounds = [(0, was)] * pos + [(was, size)] + [(0, size)] * (arity - 1 - pos)
                    if not traced:
                        bounds[0] = (0, heads_old) if pos else (heads_old, len(heads))
                    bounds.insert(-1, (0, len(lane_keys)))   # the lanes, before the last argument
                    for box in _blocks(bounds, k * n):
                        keys = _apply_block(tables, head_columns, stack, box, n)
                        (a, b), (lo, hi) = box[-2:]
                        by_lane = keys.reshape(-1, b - a, hi - lo)
                        by_lane += lane_keys[a:b]
                        at = unseen(keys).nonzero()[0]
                        keys = keys[at]      # lets the whole box go before the next
                        if not len(at):
                            continue
                        if traced:
                            step = np.full((len(at), width), -1, dtype=np.int64)
                            step[:, 0] = o
                            *lead, _, end = np.unravel_index(at, [hi - lo for lo, hi in box])
                            step[:, 1:1 + arity] = (np.stack([*lead, end], axis=1)
                                                    + [lo for lo, _ in box[:-2] + box[-1:]])
                            found_steps.append(step)
                        else:    # whole orbits, so later boxes see them as known
                            # return_index, since plain np.unique imports numpy.ma
                            keys = np.unique(keys, return_index=True)[0]
                            keys = ((keys[:, None] // weights % n) @ orbit.T).ravel()
                        found.append(keys)
                        if visited is not None:
                            visited[keys] = True
        if not found:
            break
        # boxes were gathered in processing order, so the first occurrence
        # of a key carries its first producing combination
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

    The one quick-find of `partitions._merged`, fed the one-step images:
    whenever the classes of a pair merge, the images of that pair under
    every unary translation are queued to merge as well, unless they
    already carry one label.  Once one class is left nothing can merge, so
    the queue is dropped.  Every given pair is range checked before any
    merge.
    """
    n = alg.size
    maps = _translations(alg)
    label = list(range(n))
    queue = [(a, b) for a, b in pairs]
    for a, b in queue:
        if not (0 <= a < n and 0 <= b < n):
            raise AlgebraError(f"pair ({a}, {b}) out of range 0..{n - 1}")
    classes = n
    while queue:
        a, b = queue.pop()
        if label[a] == label[b]:
            continue
        label = _merged(label, [(a, b)])
        classes -= 1
        if classes == 1:
            break
        for m in maps:
            ma, mb = m[a], m[b]
            if label[ma] != label[mb]:
                queue.append((ma, mb))
    return Partition(n, tuple(label))


def _classes(rel: np.ndarray) -> np.ndarray:
    """The classes of the equivalence each rel[i] generates, rel a stack of
    reflexive, symmetric n x n bool matrices: a (len(rel), n) array naming
    every element by the least element of its class.  Each round gives every
    element the least label among its related elements and then the label
    of that label; labels never exceed their element, so the rounds end,
    and when one changes nothing every class carries its least element."""
    n = rel.shape[-1]
    label = np.arange(n, dtype=np.min_scalar_type(n))
    at = np.arange(len(rel))[:, None]
    while True:
        low = np.where(rel, label[..., None, :], n).min(axis=2)
        low = low[at, low]
        if (low == label).all():
            return low
        label = low


def _pair_successors(alg: FiniteAlgebra, a: np.ndarray, b: np.ndarray, upper: np.ndarray,
                     budget: int) -> np.ndarray:
    """The one-step pair graph of `alg` on grid ids x * n + y: row a * n + b
    of the result lists the distinct pairs {f(a), f(b)}, x < y, over the
    unary translations f, for each pair a < b given, padded with 0, the id
    of (0, 0); other rows are padding.  `upper` marks the pairs x < y of the
    grid.  The images of at most `budget` combinations of a translation and
    a pair are marked at once."""
    n = alg.size
    maps = np.array(_translations(alg), dtype=np.int32).reshape(-1, n)
    step = max(1, budget // max(len(maps), n * n))
    node, succ = [], []
    for lo in range(0, len(a), step):
        image = maps[:, a[lo:lo + step]] * np.int32(n)
        image += maps[:, b[lo:lo + step]]
        hit = np.zeros((image.shape[1], n, n), dtype=bool)
        hit.reshape(len(hit), -1)[np.arange(len(hit)), image] = True
        hit |= hit.transpose(0, 2, 1)
        hit &= upper
        i, j = np.nonzero(hit.reshape(len(hit), -1))
        node.append(a[lo + i] * n + b[lo + i])
        succ.append(j)
    node, succ = np.concatenate(node), np.concatenate(succ)
    column = np.arange(len(node)) - np.searchsorted(node, node)   # node ids come sorted
    out = np.zeros((n * n, column.max(initial=0) + 1), dtype=np.int32)
    out[node, column] = succ
    return out


@lru_cache(maxsize=None)
def _principal_table(alg: FiniteAlgebra) -> tuple:
    """(parts, firsts, index): the distinct Cg(a, b), 0_A and then the rest
    by first pair a < b ((0, 0) for 0_A), and the symmetric read-only int64
    index with Cg(a, b) = parts[index[a, b]].

    By Mal'cev's lemma Cg(a, b) is the equivalence generated by the pairs
    {p(a), p(b)} over the unary polynomials p, which are the compositions
    of the basic translations: the pairs reachable from {a, b} in the
    one-step pair graph of `_pair_successors`.  The sources are searched
    breadth first in chunks, on one bitmap over the n x n grid per source
    with the diagonal marked from the start, so images that collapse are
    never new; each bitmap, made symmetric, is then the relation whose
    `_classes` give Cg(a, b).  A chunk's bitmaps, the successor lists one
    pass gathers and the marks of the pair graph each hold at most
    `core.BLOCK_SIZE // 16` entries, which keeps the table's peak memory to
    a few megabytes beyond its result."""
    n = alg.size
    budget = core.BLOCK_SIZE // 16
    upper = np.less.outer(range(n), range(n))
    a, b = np.nonzero(upper)
    pairs = a * n + b
    found, firsts = {tuple(range(n)): 0}, [(0, 0)]   # least-element labels -> position
    index = np.zeros((n, n), dtype=np.int64)
    if len(pairs):
        succ = _pair_successors(alg, a, b, upper, budget)
        chunk, piece = max(1, budget // (n * n)), max(1, budget // succ.shape[1])
        labels = []
        for lo in range(0, len(pairs), chunk):
            sources = pairs[lo:lo + chunk]
            seen = np.zeros((len(sources), n, n), dtype=bool)
            flat = seen.reshape(len(sources), -1)
            flat[:, ::n + 1] = True
            row, node = np.arange(len(sources)), sources
            flat[row, node] = True
            while len(row):
                new = np.zeros_like(flat)
                for i in range(0, len(row), piece):
                    new[row[i:i + piece, None], succ[node[i:i + piece]]] = True
                np.greater(new, flat, out=new)
                flat |= new
                row, node = np.nonzero(new)
            seen |= seen.transpose(0, 2, 1)
            labels += map(tuple, _classes(seen).tolist())
        at = []
        for pair, label in zip(zip(a.tolist(), b.tolist()), labels):
            if label not in found:
                found[label] = len(firsts)
                firsts.append(pair)
            at.append(found[label])
        index[a, b] = index[b, a] = at
    index.flags.writeable = False
    return tuple(Partition(n, label) for label in found), tuple(firsts), index


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence of `alg` containing (a, b), read off `_principal_table`."""
    if not (0 <= a < alg.size and 0 <= b < alg.size):
        raise AlgebraError(f"pair ({a}, {b}) out of range 0..{alg.size - 1}")
    parts, _, index = _principal_table(alg)
    return parts[index[a, b]]


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


def _join_irreducibles(parts: tuple, firsts: tuple, index: np.ndarray) -> dict:
    """The join-irreducible members of the principal table (parts, firsts,
    index), as {J: its first pair} in table order.

    Every principal below J = Cg(a, b) is Cg(x, y) for a pair (x, y) of J,
    so the principals strictly below J are those of the pairs S of J whose
    own index is not J's.  Each of them lies in S and the diagonal, so their
    join is the equivalence S generates, and J is join-irreducible exactly
    when that does not relate a and b.  One `_classes` reads it for every J
    at once."""
    n = len(index)
    ids = np.array([p.class_ids for p in parts[1:]], dtype=np.int64).reshape(-1, n)
    rest = ids[:, :, None] == ids[:, None, :]
    rest &= index != np.arange(1, len(parts))[:, None, None]
    classes = _classes(rest)
    at = np.arange(len(ids))
    a, b = np.array(firsts[1:], dtype=np.int64).reshape(-1, 2).T
    keep = np.flatnonzero(classes[at, a] != classes[at, b]) + 1
    return {parts[j]: firsts[j] for j in keep.tolist()}


def congruence_lattice(alg: FiniteAlgebra) -> CongruenceLattice:
    """All congruences and the covering relation (Freese 2008).

    Breadth-first search from 0_A: each congruence theta found is joined
    with every join-irreducible congruence J not below it.  In a finite
    algebra the join-irreducibles are principal (`_join_irreducibles`
    picks them out of `_principal_table`, built without its cache so that
    `con` leaves it alone), and every congruence is the join of those below
    it, so the search finds every member.  The upper covers of theta are
    the minimal elements of {theta v J} minus {theta}: for mu > theta some
    join-irreducible J <= mu is not below theta, and then theta < theta v J
    <= mu.  So mu = theta v J is a cover exactly when every J' below mu and
    not below theta gives theta v J' = mu; each member keeps the set of
    join-irreducibles below it as the bits of an int, so that test is one
    comparison of bits per join found.

    The search runs on tuples that name each element by the least element
    of its class.  `_merged` relabels the larger of two labels, so theta v J,
    `_merged` from theta over the star pairs of J (taken once per lattice),
    is again in that form and needs no renaming; each member becomes a
    `Partition` once, at the end.  Congruences are sorted from 0_A towards
    1_A by (-classes, class ids), and covers are sorted (i, j) index pairs.
    """
    n = alg.size
    if n > LATTICE_SIZE_CAP:
        raise CapExceeded(
            f"congruence lattice capped at universe size {LATTICE_SIZE_CAP}, algebra has {n}")
    table = _principal_table.__wrapped__(alg)   # uncached: con keeps no table
    irreducibles = [(1 << i, star_pairs(ji), a, b)
                    for i, (ji, (a, b)) in enumerate(_join_irreducibles(*table).items())]
    zero = tuple(range(n))
    members = [zero]           # least-element labels, in discovery order
    found = {zero: 0}
    below = [0]                # per member: the bits of the irreducibles below it
    upper = []                 # per member: its upper covers' indices
    for theta, under in zip(members, below):
        joins = {}             # index of theta v J -> bits of the J that give it
        for bit, star, a, b in irreducibles:
            if theta[a] != theta[b]:
                joined = tuple(_merged(theta, star))
                j = found.get(joined)
                if j is None:
                    j = found[joined] = len(members)
                    members.append(joined)
                    below.append(sum(k for k, _, x, y in irreducibles if joined[x] == joined[y]))
                joins[j] = joins.get(j, 0) | bit
        upper.append([j for j, bits in joins.items() if below[j] & ~under == bits])
    parts = [Partition(n, label) for label in members]
    order = sorted(range(len(parts)), key=lambda i: (-parts[i].num_classes, parts[i].class_ids))
    rank = {i: r for r, i in enumerate(order)}
    covers = sorted((rank[i], rank[j]) for i, ups in enumerate(upper) for j in ups)
    return CongruenceLattice(tuple(parts[i] for i in order), tuple(covers))


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
    return _quotient(alg, theta)


def _quotient(alg: FiniteAlgebra, theta: Partition) -> Tuple[FiniteAlgebra, tuple]:
    """`quotient_algebra` for a partition known to be a congruence."""
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


def _matrix_rounds(alg: FiniteAlgebra, alpha_pairs: Iterable[tuple],
                   beta: Partition):
    """The rounds of the closure in A^4 of the rows (a, a, b, b) for each
    given alpha-pair and (c, d, c, d) for every beta-pair, over
    _KLEIN_GROUP orbit representatives: the `_closure_rounds` generator of
    one lane, whose last yield is the closure as an (m, 4) int64 array.
    `_commutator` reads it round by round, once it has checked A^4
    against the cap.

    The orbit reduction is exact when the alpha-pairs are symmetric: the
    row swap maps (a, a, b, b) to (b, b, a, a) and fixes (c, d, c, d), the
    column swap fixes (a, a, b, b) and maps (c, d, c, d) to (d, c, d, c),
    and beta is symmetric, so the generator set is invariant, and so is its
    closure, since operations act coordinatewise.  A one-directional pair
    set is refused with AlgebraError, never closed as the orbits of its
    generators."""
    gens = [(a, a, b, b) for a, b in alpha_pairs]
    gens += [(c, d, c, d) for c, d in beta.pairs()]
    return _closure_rounds(alg, 4, [gens], _KLEIN_GROUP)


def matrix_set(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> np.ndarray:
    """M(alpha, beta) as an (m, 4) int64 array of 2x2 matrices (m11, m12,
    m21, m22): the plain `_subpower_closure` of (a, a, b, b) per alpha-pair
    and (c, d, c, d) per beta-pair.  It builds its own rows, so
    `oracles.commutator_oracle`, which reads it, shares only the closure
    engine with `commutator`: no spanning set, orbit reduction or probe."""
    core.check_power(alg.size, 4, "A^4")
    gens = [(a, a, b, b) for a, b in alpha.pairs()]
    gens += [(c, d, c, d) for c, d in beta.pairs()]
    (rows, _), = _subpower_closure(alg, 4, [gens])
    return rows


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
    for p in dict.fromkeys(parts):      # each distinct partition once, in order
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
    `_matrix_rounds` closes it over _KLEIN_GROUP orbit representatives:
    the same set, with about a third of the argument combinations evaluated.
    The answer lies between two bounds, theta <= [alpha, beta] <= alpha
    meet beta: C(alpha, beta; alpha) and C(alpha, beta; beta) always hold
    and C(alpha, beta; .) is closed under meets, so a zero meet is the
    answer before any closure.  Otherwise, after one round, it probes: the
    fixpoint theta over the matrices so far is the lower bound, the answer
    when it reaches the meet, and when it is neither that nor 0_A the
    commutator is finished in A/theta (see `_commutator`).  A result not
    below alpha meet beta is raised loudly.

    alpha and beta are checked to be congruences first; the library's own
    callers, which pass congruences it built, call the cached `_commutator`.
    """
    _check_congruences(alg, alpha, beta)
    return _commutator(alg, alpha, beta)


@lru_cache(maxsize=None)
def _commutator(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Partition:
    """`commutator` for two partitions known to be congruences, decided
    between its bounds theta <= [alpha, beta] <= alpha meet beta.

    When alpha meet beta is 0_A, it is the answer, with no closure.
    Otherwise theta, the term-condition fixpoint over the matrices of one
    round of the closure of M(S, beta), lies below [alpha, beta], since the
    term condition over all of M(S, beta) implies it over any subset.  If
    that round added no matrix, or theta equals alpha meet beta, theta is
    the answer.  If theta is 0_A, the same closure runs on to the end.
    Otherwise, since C(alpha, beta; delta) holds in A exactly when
    C(alpha/theta, beta/theta; delta/theta) holds in A/theta for every
    delta >= theta, [alpha, beta] is the preimage of the cached
    [alpha/theta, beta/theta] of A/theta, which many pairs of one algebra
    share.  theta is a congruence by construction, so A/theta is built
    unchecked.  A^4 is checked against the cap before any work.
    """
    core.check_power(alg.size, 4, "A^4")
    meet = alpha.meet(beta)
    if meet.is_zero:                           # the upper bound is 0_A
        return meet
    rounds = _matrix_rounds(alg, _spanning_pairs(alg, alpha), beta)
    generators = next(rounds)
    matrices = next(rounds, generators)        # one round on, if it adds any
    theta = _term_condition_fixpoint(alg, matrices)
    if matrices is generators or theta == meet:    # theta is the answer
        result = theta
    elif theta.is_zero:                        # the same closure, to the end
        for matrices in rounds:
            pass
        result = _term_condition_fixpoint(alg, matrices)
    else:                                      # finish in A/theta, pull back
        quot, cmap = _quotient(alg, theta)
        inner = _commutator(quot, push_partition(theta, cmap, quot.size, alpha),
                            push_partition(theta, cmap, quot.size, beta))
        result = Partition(alg.size, tuple(inner.class_ids[c] for c in cmap))
    if not result.refines(meet):
        raise FalsificationError(
            f"commutator bound failed on {alg.name}: [{alpha}, {beta}] = {result} "
            f"is not below the meet")
    return result
