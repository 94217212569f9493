import dataclasses
import functools
import inspect
import itertools
import random
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smbalg import (AlgebraError, CapExceeded, FalsificationError, FiniteAlgebra,
                    OperationTable, Partition, PreconditionError, all_partitions,
                    commutator, congruence_generated, congruence_lattice,
                    congruence_violation, d_rels,
                    generate_subpower, matrix_set,
                    principal_congruence, product_algebra, push_partition,
                    quotient_algebra, random_algebra, random_semilattice,
                    subalgebra)
from smbalg import core, oracles, relations
from smbalg.oracles import (all_subuniverses, commutator_oracle,
                            compose_relations,
                            congruence_by_alternating_closure, eval_term,
                            unary_polynomials)
from smbalg.relations import GeneratedSet
from smbalg.constructions import (affine_block, chain_semilattice, example_b2,
                                  example_e3, example_s2)
from smbalg.pipeline import regularize

from conftest import decoded, glued, reference_term, regularized_glued


def nested_lists(table):
    """The table's values as nested lists, one level per argument."""
    return table.array.reshape((table.size,) * table.arity).tolist()


def klein_matrices(alg, alpha_pairs, beta):
    """The Klein-orbit closure of M(alpha_pairs, beta): `_matrix_rounds`
    drained to its last yield."""
    for rows in relations._matrix_rounds(alg, alpha_pairs, beta):
        pass
    return rows


def closure_in_rounds(alg, k, generators):
    """Reference traced closure in the element order of `generate_subpower`:
    the generators in order (duplicates dropped), then rounds.  A round
    applies each operation, at each position pos, to every argument tuple
    with the arguments before pos from earlier rounds, at pos from the last
    round and after pos from any round, one combination at a time in
    lexicographic order, so each combination is evaluated once; its new
    tuples come sorted, each traced to the first combination producing it.
    Returns (elements, trace)."""
    elements, trace, index = [], [], {}
    for g in generators:
        g = tuple(g)
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
            trace.append(None)
    ops = [(sym, t.arity, nested_lists(t)) for sym, t in alg.operations.items()]
    old, total = 0, len(elements)
    while old < total:
        new = {}
        for sym, arity, nested in ops:
            for pos in range(arity):
                ranges = ([range(old)] * pos + [range(old, total)]
                          + [range(total)] * (arity - 1 - pos))
                combos = zip(itertools.product(*ranges),
                             itertools.product(*[elements[r.start:r.stop] for r in ranges]))
                for arg_idx, args in combos:
                    out = []
                    for coordinate in zip(*args):
                        t = nested
                        for a in coordinate:
                            t = t[a]
                        out.append(t)
                    tup = tuple(out)
                    if tup not in index and tup not in new:
                        new[tup] = (sym, arg_idx)
        for tup in sorted(new):
            index[tup] = len(elements)
            elements.append(tup)
            trace.append(new[tup])
        old, total = total, len(elements)
    return tuple(elements), tuple(trace)


def brute_subpower(alg, k, generators):
    """Reference closure as a set."""
    return set(closure_in_rounds(alg, k, generators)[0])


def test_generate_subpower_examples(e3, b2):
    diag3 = [(c, c) for c in range(3)]
    gen = generate_subpower(e3, 2, [(0, 1), (1, 0)] + diag3)
    expected = set(diag3) | {(0, 1), (1, 0)}
    assert set(decoded(gen)[0]) == expected
    assert set(decoded(gen)[0]) == brute_subpower(e3, 2, expected)

    gen2 = generate_subpower(b2, 2, [(c, c) for c in range(2)] + [(0, 1)])
    assert set(decoded(gen2)[0]) == {(0, 0), (1, 1), (0, 1), (1, 0)}
    assert set(decoded(gen2)[0]) == brute_subpower(b2, 2, [(0, 0), (1, 1), (0, 1)])

    for entry_a in range(3):
        single = generate_subpower(e3, 1, [(entry_a,)])
        assert set(decoded(single)[0]) == {(entry_a,)}


def test_generated_set_holds_the_closure_arrays(e3, monkeypatch):
    # a GeneratedSet is the symbols and the rows and steps of its lane, the
    # very arrays `_subpower_closure` returned, not copies
    assert [f.name for f in dataclasses.fields(GeneratedSet)] == ["symbols", "rows", "steps"]
    closure, returned = relations._subpower_closure, []

    def spy(*args):
        returned.append(closure(*args))
        return returned[-1]

    monkeypatch.setattr(relations, "_subpower_closure", spy)
    gens = [generate_subpower(e3, 2, [(0, 1), (1, 0)]), *relations.d_rels(e3, [(0, 1), (0, 2)])]
    for gen, (rows, steps) in zip(gens, [lane for out in returned for lane in out]):
        assert gen.rows is rows and gen.steps is steps and len(gen) == len(rows)
        assert gen.symbols == tuple(e3.operations)
    assert len(returned) == 2 and gens[0] == gens[0] and gens[1] != gens[2]


def test_generate_subuniverse_is_an_oracle(e3):
    # its one caller is `oracles.all_subuniverses`, so the library neither
    # defines nor exports it
    import smbalg
    assert not hasattr(smbalg, "generate_subuniverse")
    assert not hasattr(relations, "generate_subuniverse")
    assert oracles.generate_subuniverse(e3, [1, 0, 1]) == (0, 1)
    assert oracles.generate_subuniverse(e3, [2]) == (2,)


def test_generate_subpower_validation(e3):
    for bad in ([], [(0, 3)], [(0, -1)], [(0,)], [(0, 1), (0,)], [(0.5, 1)]):
        with pytest.raises(AlgebraError):
            generate_subpower(e3, 2, bad)
    with pytest.raises(AlgebraError, match="power"):
        generate_subpower(e3, 0, [()])


def replay(alg, gen):
    """Every row of `gen` recomputed from its steps, in index order, as
    lists; a parent must come before its child."""
    out = []
    for elem, (o, *parents) in zip(gen.rows.tolist(), gen.steps.tolist()):
        if o < 0:
            out.append(elem)
            continue
        parents = [p for p in parents if p >= 0]
        assert all(p < len(out) for p in parents)
        table = alg.op(gen.symbols[o])
        out.append([table.apply(*(out[p][c] for p in parents))
                    for c in range(gen.rows.shape[1])])
    return out


def assert_matches_rounds(gen, alg, k, generators):
    assert decoded(gen) == closure_in_rounds(alg, k, generators)
    assert replay(alg, gen) == gen.rows.tolist()


def random_closure_cases():
    """Seeded random algebras with operations of arity 1-3, powers 1-4 and
    1-4 generators drawn from a pool of three, so duplicates occur."""
    rng = random.Random(505)
    for arity in (1, 2, 3):
        for power in (1, 2, 3, 4):
            for n in (2, 3):
                if n ** (power * arity) > 3 ** 8:
                    continue
                for _ in range(4):
                    sig = {"f": arity, "g": rng.randrange(1, arity + 1)}
                    alg = random_algebra(n, sig, rng.randrange(1 << 30))
                    pool = [tuple(rng.randrange(n) for _ in range(power))
                            for _ in range(3)]
                    gens = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
                    yield alg, power, gens


def assert_closes_like_rounds(monkeypatch, alg, k, gens, blocks):
    """Elements and traces equal the reference tuple for tuple, and every
    trace replays, for each block bound."""
    want = closure_in_rounds(alg, k, gens)
    with monkeypatch.context() as patch:
        for block in blocks:
            patch.setattr(core, "BLOCK_SIZE", block)
            gen = generate_subpower(alg, k, gens)
            assert decoded(gen) == want, (alg.name, k, gens, block)
            assert replay(alg, gen) == gen.rows.tolist()
    return want


def test_generate_subpower_matches_rounds(e3, b2, monkeypatch):
    # blocks of at most 5 or 7 combinations take the cut path of `_blocks`;
    # a power-63 lane is past the bitmap: refused before the generators are
    # read
    cases = list(random_closure_cases())
    assert len(cases) > 50
    with pytest.raises(CapExceeded, match=r"bitmap of known keys would have 2\^63 entries"):
        generate_subpower(b2, 63, "not read")
    diag3 = [(c, c) for c in range(3)]
    cases += [
        (e3, 2, [(0, 1), (1, 0)] + diag3),
        (b2, 2, [(0, 1), (0, 0), (1, 1)]),
        (e3, 4, [(0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1), (2, 2, 2, 2),
                 (0, 0, 0, 0), (1, 1, 1, 1)]),
        (e3, 4, ([(a, a, b, b) for a in range(3) for b in range(3)]
                 + [(0, 1, 0, 1), (1, 0, 1, 0)])),
    ]
    for alg, k, gens in cases:
        assert_closes_like_rounds(monkeypatch, alg, k, gens, (5, 7, 1 << 20))
    # M(sim, 1_A) of a regularized glued algebra of size 5 (59 matrices, a
    # ternary operation: blocks of 5 would take 2 s a run); `matrix_set`
    # closes the same set in the same plain rounds and keeps only the rows
    alg, sim = regularized_glued(3, (3, 2))
    gens = ([(a, a, b, b) for a, b in sim.pairs()]
            + [(c, d, c, d) for c in range(5) for d in range(5)])
    want = assert_closes_like_rounds(monkeypatch, alg, 4, gens, (7, 1 << 20))
    mats = matrix_set(alg, sim, Partition.one(alg.size))
    assert sorted(map(tuple, mats.tolist())) == sorted(want[0])


def replay_at(alg, gen, leaf):
    """The value of every element of `gen` when each generator i takes
    leaf[i], recomputed from the steps in index order."""
    out = []
    for i, (o, *parents) in enumerate(gen.steps.tolist()):
        out.append(leaf[i] if o < 0 else
                   alg.op(gen.symbols[o]).apply(*(out[p] for p in parents if p >= 0)))
    return out


def test_step_values_matches_python_replay(corpus):
    # one call checks the steps of many sets at once: every element gives
    # its own row; with one row entry of each set perturbed, the first
    # element of a set that does not give its row is the first one a replay
    # from its generators gets wrong, with the same value
    rng = random.Random(3434)
    cases = [(alg, [generate_subpower(alg, k, gens)]) for alg, k, gens in random_closure_cases()]
    for entry in corpus:
        if 2 <= entry.algebra.size <= 4:
            alg = entry.algebra
            cases.append((alg, relations.d_rels(alg, itertools.combinations(range(alg.size), 2))))
    caught = 0
    for alg, sets in cases:
        gives, late = relations.step_values(alg, sets)
        assert not late.any()
        assert np.array_equal(gives, np.concatenate([s.rows for s in sets])), alg.name
        broken = []
        for s in sets:
            rows = s.rows.copy()
            i, c = rng.randrange(len(s)), rng.randrange(rows.shape[1])
            rows[i, c] = (rows[i, c] + rng.randrange(1, alg.size)) % alg.size
            broken.append(GeneratedSet(s.symbols, rows, s.steps))
        gives, late = relations.step_values(alg, broken)
        assert not late.any()
        starts = np.cumsum([0] + [len(s) for s in broken])
        for s, start in zip(broken, starts):
            replayed = np.array([replay_at(alg, s, s.rows[:, c])
                                 for c in range(s.rows.shape[1])]).T
            flagged = np.flatnonzero((gives[start:start + len(s)] != s.rows).any(axis=1))
            replay_wrong = np.flatnonzero((replayed != s.rows).any(axis=1))
            assert flagged[:1].tolist() == replay_wrong[:1].tolist(), alg.name
            if len(flagged):
                j = flagged[0]
                assert gives[start + j].tolist() == replayed[j].tolist(), alg.name
                caught += 1
    assert caught > 10


def test_step_values_flags_a_late_element(e3):
    # an element that reads itself or a parent past its set's end is late
    # and gives its own row; the other elements are checked as they are
    gen = generate_subpower(e3, 2, [(0, 1), (1, 2)])
    derived = np.flatnonzero(gen.steps[:, 0] >= 0)
    i = int(derived[0])
    broken = []
    for parent in (i, len(gen)):
        steps = gen.steps.copy()
        steps[i, 1] = parent
        broken.append(GeneratedSet(gen.symbols, gen.rows, steps))
    gives, late = relations.step_values(e3, [gen] + broken)
    assert late.tolist() == [False] * len(gen) + [j == i for j in range(len(gen))] * 2
    assert np.array_equal(gives, np.concatenate([gen.rows] * 3))


def d_rel_lanes(alg):
    """The generator sets of the D-relations of all pairs a <= b of `alg`,
    as `d_rels` lays them out: many lanes of one shape."""
    diagonal = [(c, c) for c in range(alg.size)]
    return [[(a, b), (b, a)] + diagonal
            for a, b in itertools.combinations_with_replacement(range(alg.size), 2)]


def test_generate_subpower_order_is_checked():
    # three broken copies must each fail the differential tests above, on
    # single lanes, the lane cases below and the D-relations of an algebra
    # of size 5: one that traces a tuple to the last combination producing
    # it in its round, not the first, one that unravels a combination's flat
    # index with the first argument fastest, not the last, and one that
    # unravels it with the lane fastest, not the last argument
    source = inspect.getsource(relations._closure_rounds)
    decode = "*lead, _, end = np.unravel_index(at, [hi - lo for lo, hi in box])"
    cases = [(alg, k, [gens]) for alg, k, gens in random_closure_cases()] + list(lane_cases())
    d_alg, _ = regularized_glued(3, (2, 2, 1))
    cases.append((d_alg, 2, d_rel_lanes(d_alg)))
    want = [[closure_in_rounds(alg, k, gens) for gens in lanes] for alg, k, lanes in cases]
    for line, mutant in [
            ("keys, first = np.unique(np.concatenate(found), return_index=True)",
             "keys, first = np.unique(np.concatenate(found)[::-1], return_index=True); "
             "first = sum(map(len, found)) - 1 - first"),
            (decode, decode.replace("in box])", "in box], order=\"F\")")),
            (decode, "*lead, end, _ = np.unravel_index("
                     "at, [hi - lo for lo, hi in box[:-2] + box[:-3:-1]])")]:
        broken = source.replace(line, mutant)
        assert broken != source
        namespace = dict(vars(relations))
        exec(broken, namespace)
        exec(inspect.getsource(relations._subpower_closure), namespace)
        exec(inspect.getsource(relations._generated_sets), namespace)
        mismatches = 0
        for (alg, k, lanes), wanted in zip(cases, want):
            got = namespace["_generated_sets"](alg, k, lanes)
            mismatches += sum(decoded(gen) != w for gen, w in zip(got, wanted))
        assert mismatches > 0, mutant


def kernel_cases():
    """Seeded random tables of arity 1-3 for k = 1, 2 and 4, each with 1 or
    3 lanes of k element columns of 4-8 rows, argument 0 over a sorted
    subset of those rows that leaves out row 0 (so never a prefix, as the
    orbit representatives under `_KLEIN_GROUP`), and index ranges that
    start past 0: (table, k, n, head columns, columns, bounds), the columns
    (k, rows, lanes) as `_closure_rounds` stacks them."""
    rng = random.Random(2323)
    for arity, k, n, lanes in itertools.product((1, 2, 3), (1, 2, 4), (2, 3, 5), (1, 3)):
        for _ in range(2):
            table = OperationTable(arity, n, [rng.randrange(n) for _ in range(n ** arity)])
            rows = rng.randrange(4, 9)
            columns = np.array([[[rng.randrange(n) for _ in range(lanes)] for _ in range(rows)]
                                for _ in range(k)], dtype=np.int64)
            heads = sorted(rng.sample(range(1, rows), rng.randrange(2, rows)))
            bounds = []
            for size in [len(heads)] + [rows] * (arity - 1):
                lo = rng.randrange(1, size)
                bounds.append((lo, rng.randrange(lo + 1, size + 1)))
            yield table, k, n, columns[:, heads], columns, bounds


def kernel_reference(table, k, n, heads, columns, bounds):
    """The keys of the box `bounds` in every lane, one combination at a
    time in lexicographic order of the leading arguments, the lane and the
    last argument: argument 0 from `heads`, the others from `columns`,
    coordinate c weighted by n**(k - 1 - c)."""
    keys = []
    ranges = [range(lo, hi) for lo, hi in bounds]
    for *lead, lane, end in itertools.product(*ranges[:-1], range(heads.shape[2]), ranges[-1]):
        combo = lead + [end]
        args = [heads[:, combo[0], lane]] + [columns[:, i, lane] for i in combo[1:]]
        keys.append(sum(n ** (k - 1 - c) * table.apply(*(int(a[c]) for a in args))
                        for c in range(k)))
    return keys


def kernel_mismatches(kernel, monkeypatch):
    """Cases where the keys of `kernel` over the boxes that `_blocks` cuts
    (each table laid out as `_subpower_closure` lays it out, the lanes just
    before the last argument), taken in box order, differ from the
    reference; with whole boxes and with boxes of at most 6 combinations."""
    bad = cut = 0
    for block in (6, 1 << 20):
        monkeypatch.setattr(core, "BLOCK_SIZE", block)
        for table, k, n, heads, columns, bounds in kernel_cases():
            weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
            tables = (weights[:, None] * table.array).reshape(k, -1, n)
            lanes = [(0, columns.shape[2])]
            boxes = list(core._blocks(bounds[:-1] + lanes + bounds[-1:], k * n))
            cut += len(boxes) > 1
            got = [key for box in boxes
                   for key in kernel(tables, heads, columns, box, n).tolist()]
            bad += got != kernel_reference(table, k, n, heads, columns, bounds)
    assert cut > 0
    return bad


def test_apply_block_matches_loop(monkeypatch):
    assert kernel_mismatches(relations._apply_block, monkeypatch) == 0


def test_apply_block_order_is_checked(monkeypatch):
    # a broken copy that returns the keys with the last argument slowest
    # must fail the test above
    source = inspect.getsource(relations._apply_block)
    broken = source.replace("return key.ravel()", "return key.T.ravel()")
    assert broken != source
    namespace = dict(vars(relations))
    exec(broken, namespace)
    assert kernel_mismatches(namespace["_apply_block"], monkeypatch) > 0


def test_boxes_keep_rows_and_keys_within_block_size(monkeypatch):
    # under a small BLOCK_SIZE, on closures whose semi-naive last range is
    # at times shorter than n, no kernel call gathers more than BLOCK_SIZE
    # row values (k * n per leading combination and lane) or keys, and the
    # closures stay exact: the traced D_{0,4} in A^2, the Klein-orbit
    # closure of M(Cg(0, 1), 1_A) in A^4 and the D-relations of all pairs,
    # whose lanes of one shape share boxes, on a regularized glued algebra
    # of size 5
    alg, _ = regularized_glued(3, (2, 2, 1))
    n, block = alg.size, 64
    gens = [(0, 4), (4, 0)] + [(c, c) for c in range(n)]
    pairs = relations._spanning_pairs(alg, principal_congruence(alg, 0, 1))
    matrix_gens = ([(a, a, b, b) for a, b in pairs]
                   + [(c, d, c, d) for c, d in Partition.one(n).pairs()])
    (plain, _), = relations._subpower_closure(alg, 4, [matrix_gens])
    lanes = d_rel_lanes(alg)
    want = [closure_in_rounds(alg, 2, gens) for gens in lanes]
    kernel, calls = relations._apply_block, []

    def spy(tables, heads, columns, box, n):
        lead = int(np.prod([hi - lo for lo, hi in box[:-1]]))
        last = box[-1][1] - box[-1][0]
        calls.append((lead * len(tables) * n, lead * last, last < n, box[-2][1] - box[-2][0]))
        return kernel(tables, heads, columns, box, n)

    monkeypatch.setattr(core, "BLOCK_SIZE", block)
    monkeypatch.setattr(relations, "_apply_block", spy)
    assert_matches_rounds(generate_subpower(alg, 2, gens), alg, 2, gens)
    traced = len(calls)
    assert klein_matrices(alg, pairs, Partition.one(n)).tolist() == plain.tolist()
    klein = len(calls)
    assert [decoded(gen) for gen in d_rels(alg, [lane[0] for lane in lanes])] == want
    assert any(short for _, _, short, _ in calls[:traced])
    assert any(short for _, _, short, _ in calls[traced:klein])
    assert max(stacked for *_, stacked in calls[klein:]) > 1
    assert max(values for values, *_ in calls) <= block
    assert max(keys for _, keys, *_ in calls) <= block


def test_one_kernel_call_per_lane_shape(monkeypatch):
    # d_rels over all pairs a <= b of a regularized glued algebra of size 8:
    # in each round, one `_apply_block` call per operation, argument
    # position and (old, total) row counts of the lanes that grew, since no
    # box is cut (while old is 0, only position 0 has combinations); the
    # counts are those of each lane closed alone
    alg, _ = regularized_glued(3, (3, 3, 2))
    lanes = d_rel_lanes(alg)
    grew = []                    # per lane: its (old, total) in each round
    for lane in lanes:
        sizes = [len(rows) for rows in relations._closure_rounds(alg, 2, [lane])]
        grew.append(list(zip([0] + sizes, sizes)))
    arities = [t.arity for t in alg.operations.values()]

    def boxes(shapes):
        return sum(arity if old else 1 for old, _ in shapes for arity in arities)

    want = [boxes({shapes[r] for shapes in grew if r < len(shapes)})
            for r in range(max(map(len, grew)))]
    kernel, calls = relations._apply_block, []

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(relations, "_apply_block", spy)
    ends = [len(calls) for _ in relations._closure_rounds(alg, 2, lanes)]
    assert np.diff(ends + [len(calls)]).tolist() == want
    # one box per lane, as each lane's own closure makes, would be 6 times as many
    assert 6 * len(calls) < sum(boxes(shapes) for shapes in grew)


def test_equal_row_sets_close_once(monkeypatch):
    # a lane whose rows equal those of a lane the call has shown closed
    # evaluates nothing: the D-relations of all pairs a <= b of a
    # regularized glued algebra of size 8 evaluate fewer than half the keys
    # of their lanes closed one at a time, and m copies of one generator
    # set, in either order, evaluate each round's keys m times but those of
    # the last round, which finds nothing, once
    alg, _ = regularized_glued(3, (3, 3, 2))
    pairs = list(itertools.combinations_with_replacement(range(alg.size), 2))
    kernel, counts = relations._apply_block, []

    def spy(*args):
        keys = kernel(*args)
        counts.append(len(keys))
        return keys

    def round_keys(lanes):
        """The keys each round of the lanes' closure evaluates."""
        counts.clear()
        ends = [sum(counts) for _ in relations._closure_rounds(alg, 2, lanes)]
        return np.diff(ends + [sum(counts)]).tolist()

    monkeypatch.setattr(relations, "_apply_block", spy)
    alone = [decoded(d_rels(alg, [pair])[0]) for pair in pairs]
    each = sum(counts)
    counts.clear()
    assert [decoded(gen) for gen in d_rels(alg, pairs)] == alone
    assert 2 * sum(counts) < each
    gens = [(4, 0), (0, 4), (4, 4)]      # two rounds that grow, then the last
    one = round_keys([gens])
    assert len(one) > 2 and one[-1] > 0
    for m in (2, 3, 5):
        lanes = [gens if i % 2 else gens[::-1] for i in range(m)]
        assert round_keys(lanes) == [m * keys for keys in one[:-1]] + one[-1:]
    # a lane that grows into a set another lane showed closed in an
    # earlier round evaluates nothing in its last round
    closure = relations._subpower_closure(alg, 2, [gens])[0][0].tolist()[::-1]
    (closed,) = round_keys([closure])
    assert round_keys([closure, gens]) == [closed + one[0], *one[1:-1], 0]


LANE_ORDERS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@functools.lru_cache(maxsize=None)
def glued_ladder():
    """Regularized glued algebras of sizes 5 to 12."""
    return [regularized_glued(seed, sizes)[0] for seed, sizes in
            [(1, (2, 2, 1)), (3, (3, 3, 2)), (2, (3, 2, 2, 1)), (3, (3, 3, 3, 3))]]


@LANE_ORDERS
@given(data=st.data())
def test_repeated_generator_sets_close_like_each_lane_alone(corpus, data):
    # lanes that repeat, permute or reverse one another's generator sets
    # hold equal row sets round by round, with rows in their own order;
    # each has the rows and steps of its own one-lane closure, and so does
    # each D-relation of d_rels(alg, [(a, b), (b, a)]), whose two equal
    # sets grow until the last round
    alg = data.draw(st.sampled_from([e.algebra for e in corpus] + glued_ladder()))
    n = alg.size
    k = data.draw(st.integers(1, 3 if n <= 5 else 2))
    row = st.tuples(*[st.integers(0, n - 1)] * k)
    bases = data.draw(st.lists(st.lists(row, min_size=1, max_size=4), min_size=1, max_size=3))
    lanes = []
    for _ in range(data.draw(st.integers(2, 6))):
        gens = data.draw(st.sampled_from(bases))
        lanes.append(data.draw(st.sampled_from([gens, gens[::-1]]) | st.permutations(gens)))
    pairs = [data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))]
    pairs.append(pairs[0][::-1])
    got = relations._subpower_closure(alg, k, lanes)
    for gens, (rows, steps) in zip(lanes, got):
        (want_rows, want_steps), = relations._subpower_closure(alg, k, [gens])
        assert (rows.tolist(), steps.tolist()) == (want_rows.tolist(), want_steps.tolist())
    assert ([decoded(gen) for gen in d_rels(alg, pairs)]
            == [decoded(d_rels(alg, [pair])[0]) for pair in pairs])


def lane_cases():
    """Seeded random algebras with unary, binary and ternary operations,
    k = 1-3, each with 2-5 lanes: of different sizes, with duplicate
    generators, and one lane that is already closed (the closure of
    another lane's generators, given in reverse order)."""
    rng = random.Random(1818)
    for sig in ({"u": 1}, {"b": 2}, {"t": 3}, {"u": 1, "b": 2, "t": 3}):
        for k in (1, 2, 3):
            for n in (2, 3):
                alg = random_algebra(n, sig, rng.randrange(1 << 30))
                pool = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(4)]
                lanes = [[rng.choice(pool) for _ in range(rng.randrange(1, 6))]
                         for _ in range(rng.randrange(2, 6))]
                closed = closure_in_rounds(alg, k, lanes[0])[0]
                lanes.insert(rng.randrange(len(lanes) + 1), list(reversed(closed)))
                yield alg, k, lanes


def assert_lanes_close_alone(alg, k, lanes):
    """Every lane of one `_subpower_closure` has the elements and traces of
    the reference closure of that lane alone, and its traces replay."""
    got = relations._generated_sets(alg, k, lanes)
    assert len(got) == len(lanes)
    for gens, gen in zip(lanes, got):
        assert decoded(gen) == closure_in_rounds(alg, k, gens), (alg.name, k, gens)
        assert replay(alg, gen) == gen.rows.tolist()


def test_lanes_close_like_each_lane_alone(monkeypatch):
    # in whole boxes and in boxes of at most 5 combinations
    cases = list(lane_cases())
    assert len(cases) == 24 and any(len(set(map(tuple, lane))) < len(lane)
                                    for _, _, lanes in cases for lane in lanes)
    for block in (5, 1 << 20):
        with monkeypatch.context() as patch:
            patch.setattr(core, "BLOCK_SIZE", block)
            for alg, k, lanes in cases:
                assert_lanes_close_alone(alg, k, lanes)


def chunk_cases():
    """The lane cases with at least 8 keys a lane, and the D-relations of
    all pairs of a regularized glued algebra of size 5 with the lane of
    (0, 3) given four times in a row, so that chunks of 1, 2 and 3 lanes
    each cut inside lanes that grow alike: (algebra, k, lanes, reference
    closure of each lane alone)."""
    cases = [(alg, k, lanes) for alg, k, lanes in lane_cases() if alg.size ** k >= 8]
    alg, _ = regularized_glued(3, (2, 2, 1))
    lanes = d_rel_lanes(alg)
    cases.append((alg, 2, lanes[:3] + [lanes[3]] * 4 + lanes[4:]))
    return [(alg, k, lanes, [closure_in_rounds(alg, k, gens) for gens in lanes])
            for alg, k, lanes in cases]


def chunked_mismatches(generated_sets, cases, monkeypatch):
    """Lanes that `generated_sets` closes unlike each lane alone, a lane
    missing or to spare counting once, with the cap patched so that one
    bitmap holds 1, 2 or 3 lanes."""
    bad = 0
    for per in (1, 2, 3):
        for alg, k, lanes, want in cases:
            space = alg.size ** k
            monkeypatch.setattr(core, "FAST_CLOSURE_SPACE_CAP", -(-per * space // 8))
            assert 8 * core.FAST_CLOSURE_SPACE_CAP // space == per
            got = generated_sets(alg, k, lanes)
            bad += abs(len(got) - len(lanes))
            bad += sum(decoded(gen) != w for gen, w in zip(got, want))
    return bad


def test_chunks_close_like_each_lane_alone(monkeypatch):
    # lanes past one bitmap close chunk by chunk, each chunk by a call of
    # its own, and every lane comes out as it does alone
    cases = chunk_cases()
    assert len(cases) == 13
    rounds, calls = relations._closure_rounds, []

    def spy(alg, k, lanes, group=()):
        calls.append(len(lanes))
        return rounds(alg, k, lanes, group)

    monkeypatch.setattr(relations, "_closure_rounds", spy)
    assert chunked_mismatches(relations._generated_sets, cases, monkeypatch) == 0
    want = []                   # lanes per call: the whole call, then its chunks
    for per in (1, 2, 3):
        for _, _, lanes, _ in cases:
            want.append(len(lanes))
            if len(lanes) > per:
                want += [len(lanes[at:at + per]) for at in range(0, len(lanes), per)]
    assert calls == want and want.count(1) > 40


def test_chunk_boundaries_are_checked(monkeypatch):
    # two broken copies must each fail the test above: one that starts each
    # chunk after the first one lane early, so that lane closes twice, and
    # one that skips the lane after each chunk
    source = inspect.getsource(relations._closure_rounds)
    cases = chunk_cases()
    for line, mutant in [
            ("lanes[start:start + chunk]",
             "lanes[start - (start > 0):start - (start > 0) + chunk]"),
            ("range(0, len(lanes), chunk)", "range(0, len(lanes), chunk + 1)")]:
        broken = source.replace(line, mutant)
        assert broken != source
        namespace = dict(vars(relations))
        exec(broken, namespace)
        exec(inspect.getsource(relations._subpower_closure), namespace)
        exec(inspect.getsource(relations._generated_sets), namespace)
        assert chunked_mismatches(namespace["_generated_sets"], cases, monkeypatch) > 0, mutant


def assert_steps_derive_rows(alg, k, lanes):
    """The raw (rows, steps) of every lane: a generator's step row is all
    -1, and any other row holds an operation number, exactly `arity`
    argument indices below the row's own index, then -1 padding, and the
    operation applied to those rows gives the row."""
    tables = list(alg.operations.values())
    width = 1 + max(t.arity for t in tables)
    out = relations._subpower_closure(alg, k, lanes)
    assert len(out) == len(lanes)
    for gens, (rows, steps) in zip(lanes, out):
        assert steps.shape == (len(rows), width) and steps.dtype == np.int64
        rows, generators = rows.tolist(), 0
        for i, (o, *args) in enumerate(steps.tolist()):
            if o < 0:
                assert args == [-1] * (width - 1)
                generators += 1
                continue
            arity = tables[o].arity
            assert all(0 <= a < i for a in args[:arity])
            assert args[arity:] == [-1] * (width - 1 - arity)
            assert rows[i] == [tables[o].apply(*(rows[a][c] for a in args[:arity]))
                               for c in range(k)], (alg.name, k, gens, i)
        assert generators == len(set(map(tuple, gens)))


def test_steps_derive_their_rows(monkeypatch):
    # in whole boxes and in boxes of at most 5 combinations
    cases = list(lane_cases())
    cases += [(alg, k, [gens]) for alg, k, gens in random_closure_cases()]
    for block in (5, 1 << 20):
        with monkeypatch.context() as patch:
            patch.setattr(core, "BLOCK_SIZE", block)
            for alg, k, lanes in cases:
                assert_steps_derive_rows(alg, k, lanes)


def test_d_rels_are_lanes(corpus):
    # every D-relation of a corpus entry from one lane closure, in the
    # order of the pairs given, against the reference closure of each
    for entry in corpus:
        alg = entry.algebra
        if alg.size > 5:
            continue
        n = alg.size
        pairs = [(a, b) for a in range(n) for b in range(n)]
        diag = [(c, c) for c in range(n)]
        for (a, b), gen in zip(pairs, relations.d_rels(alg, pairs)):
            want = closure_in_rounds(alg, 2, [(a, b), (b, a)] + diag)
            assert decoded(gen) == want, (alg.name, a, b)
    assert relations.d_rels(corpus[0].algebra, []) == []


def test_lane_past_the_bitmap_is_refused(b2, monkeypatch):
    # a lane's bitmap holds one byte per key, at most 8 times the cap: lanes
    # of 2**62 keys are refused before the generators are read, however few
    # there are; with the cap patched to 1, lanes of 2**3 keys exactly fill
    # it and close one per chunk
    from smbalg import chain_semilattice
    chain = chain_semilattice(2)
    message = (r"each lane's bitmap of known keys would have 2\^62 entries, "
               rf"beyond the cap of {8 * core.FAST_CLOSURE_SPACE_CAP}$")
    with pytest.raises(CapExceeded, match=message):
        relations._subpower_closure(chain, 62, [[(0,) * 62], [(1,) * 62], "not read"])
    with pytest.raises(CapExceeded, match=message):
        relations._subpower_closure(b2, 62, [[(1, 0) * 31, (0, 1) * 31]])
    monkeypatch.setattr(core, "FAST_CLOSURE_SPACE_CAP", 1)
    assert_lanes_close_alone(b2, 3, [[(1, 0, 1)], [(0, 1, 0), (1, 1, 0)], [(0, 0, 0)]])
    with pytest.raises(CapExceeded, match=r"2\^4 entries, beyond the cap of 8$"):
        relations._subpower_closure(b2, 4, ["not read"])


def narrow_key_mismatches(subpower_closure, monkeypatch):
    """With int8 first on `core._INT_TYPES`, close two small calls whose
    last key sits at int8's largest value, 127 (two lanes of 8^2 keys), and
    one past it, 128 (three lanes of 43 keys), and count the lanes whose
    rows or steps differ from the int64 path's.  Returns (mismatches, the
    key types the calls chose)."""
    cases = [(chain_semilattice(8), 2, [[(0, 7), (7, 0)], [(3, 5), (6, 6), (5, 3)]]),
             (chain_semilattice(43), 1, [[(0,), (3,)], [(40,), (5,)], [(42,), (1,), (41,)]])]
    want, keys, bad = [], [], 0
    with monkeypatch.context() as patch:
        patch.setattr(core, "_INT_TYPES", (np.int64,))
        for alg, k, lanes in cases:
            want.append(relations._subpower_closure(alg, k, lanes))
    chooser = core.int_dtype

    def spy(bound):
        if bound in (127, 128):
            keys.append(chooser(bound))
        return chooser(bound)

    with monkeypatch.context() as patch:
        patch.setattr(core, "_INT_TYPES", (np.int8, np.int16, np.int32, np.int64))
        patch.setattr(core, "int_dtype", spy)
        for (alg, k, lanes), closed in zip(cases, want):
            for (rows, steps), (rows0, steps0) in zip(subpower_closure(alg, k, lanes), closed):
                assert rows.dtype == steps.dtype == np.int64
                bad += not (np.array_equal(rows, rows0) and np.array_equal(steps, steps0))
    return bad, keys


def test_keys_take_the_type_their_bound_allows(monkeypatch):
    # the closure's keys take the narrowest type that holds its last key,
    # lanes x n**k - 1: int8 at 127 and int16 one past it, each giving the
    # int64 path's rows and steps
    bad, keys = narrow_key_mismatches(relations._subpower_closure, monkeypatch)
    assert bad == 0 and keys == [np.dtype(np.int8), np.dtype(np.int16)]


def test_narrow_keys_are_checked(monkeypatch):
    # copies that cast the keys without the bound, or with one lane's bound
    # only, must fail the test above
    source = inspect.getsource(relations._closure_rounds)
    line = "core.int_dtype(len(lanes) * space - 1)"
    for mutant in ("core.int_dtype(0)", "core.int_dtype(space - 1)"):
        broken = source.replace(line, mutant)
        assert broken != source
        namespace = dict(vars(relations))
        exec(broken, namespace)
        exec(inspect.getsource(relations._subpower_closure), namespace)
        assert narrow_key_mismatches(namespace["_subpower_closure"], monkeypatch)[0] > 0, mutant


def test_lane_validation(e3):
    with pytest.raises(AlgebraError, match="at least one generator"):
        relations._subpower_closure(e3, 2, [[(0, 1)], []])
    with pytest.raises(AlgebraError, match="tuples of 2 integers"):
        relations._subpower_closure(e3, 2, [[(0, 1)], [(0,)]])
    with pytest.raises(AlgebraError, match="outside"):
        relations._subpower_closure(e3, 2, [[(0, 1)], [(0, 3)]])
    assert relations._subpower_closure(e3, 2, []) == []


def klein_closed(gens):
    """The tuples of `gens` in A^4 with their images under the Klein
    four-group, sorted."""
    return sorted({tuple(g[i] for i in p) for g in gens for p in relations._KLEIN_GROUP})


def symmetric_closure_cases():
    """Klein-invariant generator sets in A^4: seeded random algebras with
    unary, binary and ternary operations, not idempotent in general; then
    the generators that `commutator` closes on the regularized glued
    algebras of the commutator ladder, for every ordered pair of sim, 1_A
    and three principal congruences."""
    rng = random.Random(1515)
    for sig in ({"u": 1}, {"b": 2}, {"t": 3}, {"u": 1, "b": 2},
                {"u": 1, "b": 2, "t": 3}):
        for n in (2, 3):
            for _ in range(3):
                alg = random_algebra(n, sig, rng.randrange(1 << 30))
                gens = [tuple(rng.randrange(n) for _ in range(4))
                        for _ in range(rng.randrange(1, 4))]
                yield alg, klein_closed(gens)
    for sizes in ((2, 1, 1), (2, 2, 1), (2, 2, 2)):
        alg, sim = regularized_glued(3, sizes)
        n = alg.size
        args = [sim, Partition.one(n)]
        for a, b in itertools.combinations(range(n), 2):
            cg = principal_congruence(alg, a, b)
            if cg not in args and len(args) < 5:
                args.append(cg)
        for alpha, beta in itertools.product(args, repeat=2):
            spanning = relations._spanning_pairs(alg, alpha)
            yield alg, ([(a, a, b, b) for a, b in spanning]
                        + [(c, d, c, d) for c, d in beta.pairs()])


def symmetric_mismatches(closure, group, cases):
    """How many cases `closure` over `group` gets wrong: other rows than
    the plain closure (as a set, or with repeats), or a refusal."""
    bad = 0
    for alg, gens in cases:
        want = set(map(tuple, relations._subpower_closure(alg, 4, [gens])[0][0].tolist()))
        try:
            got = closure(alg, 4, [gens], group)[0][0].tolist()
        except AlgebraError:
            bad += 1
            continue
        bad += len(got) != len(want) or set(map(tuple, got)) != want
    return bad


def test_symmetric_closure_matches_plain():
    # over Klein-orbit representatives the closure is the plain one
    cases = list(symmetric_closure_cases())
    closure = relations._subpower_closure
    assert symmetric_mismatches(closure, relations._KLEIN_GROUP, cases) == 0


def test_symmetric_closure_is_checked():
    # two broken copies must each fail the test above: one that leaves a
    # box's new tuples unclosed under the group, and one that takes the
    # transpose (m11, m21, m12, m22) for the column swap
    source = inspect.getsource(relations._closure_rounds)
    line = "keys = ((keys[:, None] // weights % n) @ orbit.T).ravel()"
    broken = source.replace(line, "pass")
    assert broken != source
    namespace = dict(vars(relations))
    exec(broken, namespace)
    exec(inspect.getsource(relations._subpower_closure), namespace)
    cases = list(symmetric_closure_cases())
    assert symmetric_mismatches(namespace["_subpower_closure"],
                                relations._KLEIN_GROUP, cases) > 0
    identity, row_swap, column_swap, both = relations._KLEIN_GROUP
    transpose = (identity, row_swap, (0, 2, 1, 3), both)
    assert symmetric_mismatches(relations._subpower_closure, transpose, cases) > 0


def test_symmetric_closure_refuses_non_invariant_generators(e3, e3_sim):
    # the one-direction spanning set of test_commutator_differential is not
    # closed under the row swap: refused before any work, never closed as
    # the orbits of its generators
    one_way = [(a, b) for a, b in relations._spanning_pairs(e3, e3_sim) if a < b]
    gens = ([(a, a, b, b) for a, b in one_way]
            + [(c, d, c, d) for c, d in e3_sim.pairs()])
    with pytest.raises(AlgebraError, match="not invariant"):
        relations._subpower_closure(e3, 4, [gens], relations._KLEIN_GROUP)
    with pytest.raises(AlgebraError, match="not invariant"):
        klein_matrices(e3, one_way, e3_sim)


def test_klein_path_keeps_the_plain_order():
    # one lane over orbit representatives: each round's new tuples are the
    # plain round's, G-closed and ascending, so the rows come out row for
    # row as in the plain rounds (checked against the reference loop
    # above), with no traces
    for alg, gens in symmetric_closure_cases():
        (rows, steps), = relations._subpower_closure(alg, 4, [gens], relations._KLEIN_GROUP)
        assert rows.tolist() == relations._subpower_closure(alg, 4, [gens])[0][0].tolist()
        assert steps is None


def read_round_by_round(alg, k, lanes, group=()):
    """The yields of `_closure_rounds`, one `next` at a time, and its
    return value."""
    rounds, seen = relations._closure_rounds(alg, k, lanes, group), []
    while True:
        try:
            seen.append(next(rounds))
        except StopIteration as closed:
            return seen, closed.value


def test_closure_rounds_resume_like_one_go():
    # read a round at a time, the generator returns the rows and steps of
    # _subpower_closure in one go, traced, over many lanes and under the
    # Klein group; each yield holds all rows so far, lane-major, and one
    # lane's yields grow as prefixes of its final rows
    cases = [(alg, k, [gens], ()) for alg, k, gens in random_closure_cases()]
    cases += [(alg, k, lanes, ()) for alg, k, lanes in lane_cases()]
    cases += [(alg, 4, [gens], relations._KLEIN_GROUP)
              for alg, gens in symmetric_closure_cases()]
    resumed = 0
    for alg, k, lanes, group in cases:
        seen, got = read_round_by_round(alg, k, lanes, group)
        want = relations._subpower_closure(alg, k, lanes, group)
        assert len(got) == len(want) == len(lanes)
        for (rows, steps), (want_rows, want_steps) in zip(got, want):
            assert rows.tolist() == want_rows.tolist()
            assert (steps is None if group else steps.tolist() == want_steps.tolist())
        assert seen[-1].tolist() == np.concatenate([rows for rows, _ in got]).tolist()
        assert [len(s) for s in seen] == sorted({len(s) for s in seen})
        if len(lanes) == 1:
            assert all(s.tolist() == seen[-1][:len(s)].tolist() for s in seen)
        resumed += len(seen) > 2
    assert resumed > 50


def test_group_closure_takes_one_lane(e3, e3_sim):
    gens = ([(a, a, b, b) for a, b in relations._spanning_pairs(e3, e3_sim)]
            + [(c, d, c, d) for c, d in e3_sim.pairs()])
    with pytest.raises(AlgebraError, match="exactly one lane"):
        relations._subpower_closure(e3, 4, [gens, gens], relations._KLEIN_GROUP)
    with pytest.raises(AlgebraError, match="exactly one lane"):
        relations._subpower_closure(e3, 4, [], relations._KLEIN_GROUP)


def test_klein_group_is_a_permutation_group():
    # the identity first, closed under composition, and generated by the
    # row swap and the column swap of (m11, m12, m21, m22)
    group = relations._KLEIN_GROUP
    identity = (0, 1, 2, 3)
    assert group[0] == identity and len(set(group)) == 4
    assert all(sorted(g) == list(identity) for g in group)

    def compose(p, q):
        return tuple(p[i] for i in q)

    assert all(compose(p, q) in group for p in group for q in group)
    row_swap, column_swap = (2, 3, 0, 1), (1, 0, 3, 2)
    generated = {identity}
    while True:
        grown = generated | {compose(g, s) for g in generated
                             for s in (row_swap, column_swap)}
        if grown == generated:
            break
        generated = grown
    assert generated == set(group)


def test_corpus_closures_match_bfs(corpus):
    # d_rels and polynomial_image_pairs for every pair a < b, and the unary
    # polynomials with their terms on the SMB entries: the reference loop
    # evaluates about |Pol1(A)|**3 argument tuples, and the type-5
    # extensions (629 unary polynomials at size 5) and random signatures
    # have far larger polynomial clones than any SMB entry
    from smbalg import Const, Var, polynomial_image_pairs
    for entry in corpus:
        alg = entry.algebra
        n = alg.size
        diag = [(c, c) for c in range(n)]
        for a, b in itertools.combinations(range(n), 2):
            assert_matches_rounds(d_rels(alg, [(a, b)])[0], alg, 2, [(a, b), (b, a)] + diag)
            assert_matches_rounds(polynomial_image_pairs(alg, a, b), alg, 2, [(a, b)] + diag)
        if not entry.has("smb"):
            continue
        gens = [tuple(range(n))] + [(c,) * n for c in range(n)]
        ref = generate_subpower(alg, n, gens)
        elements, _ = want = decoded(ref)
        assert want == closure_in_rounds(alg, n, gens)
        leaves = {0: Var(0)}
        for c in range(n):
            leaves.setdefault(elements.index((c,) * n), Const(c))
        assert unary_polynomials(alg) == tuple(
            (elem, reference_term(ref, i, leaves)) for i, elem in enumerate(elements))


def test_trace_replay(corpus):
    from smbalg import polynomial_image_pairs
    for entry in corpus:
        alg = entry.algebra
        if alg.size > 6:
            continue
        for gen in (d_rels(alg, [(0, alg.size - 1)])[0],
                    polynomial_image_pairs(alg, 0, alg.size - 1),
                    d_rels(alg, [(0, alg.size // 2)])[0]):
            assert replay(alg, gen) == gen.rows.tolist()


def test_size_caps(monkeypatch, e3):
    from smbalg import CapExceeded, chain_semilattice
    generated = []
    with monkeypatch.context() as mp:
        mp.setattr(relations, "congruence_generated", lambda *a: generated.append(a))
        with pytest.raises(CapExceeded, match="capped at universe size 10, algebra has 11"):
            congruence_lattice(chain_semilattice(11))
    assert generated == []     # the cap is checked before any principal
    with pytest.raises(CapExceeded, match="polynomial"):
        unary_polynomials(chain_semilattice(9))
    with pytest.raises(CapExceeded, match="subuniverse"):
        all_subuniverses(chain_semilattice(oracles.SUBUNIVERSE_SIZE_CAP + 1))
    # known keys are one-byte flags: 2**64 of them are past the bitmap's
    # bound, and the bound is checked before the generators are read
    with pytest.raises(CapExceeded, match="bitmap of known keys"):
        generate_subpower(chain_semilattice(2), 64, [(0,) * 64])
    # a huge power is refused at once: 3**k is never formed, nor printed
    for k in (10 ** 5, 10 ** 9):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="bitmap of known keys"):
            generate_subpower(e3, k, [(0,)])
        assert time.perf_counter() - start < 1.0
    # matrix sets span A^4: 50**4 tuples are refused before the closure
    # runs, by the commutator and by the oracle's matrix_set alike
    one = Partition.one(50)
    with pytest.raises(CapExceeded, match=r"A\^4 would have 50\^4 entries, beyond the cap"):
        commutator(chain_semilattice(50), one, one)
    with pytest.raises(CapExceeded, match=r"A\^4 would have 50\^4 entries, beyond the cap"):
        matrix_set(chain_semilattice(50), one, one)


def test_closure_cap_is_read_from_core(monkeypatch, e3):
    # one cap, core's, read at call time, bounds the matrix closure too:
    # patched to 0 it refuses the commutator of a three-element algebra
    monkeypatch.setattr(relations, "_commutator", relations._commutator.__wrapped__)
    one = Partition.one(3)
    assert commutator(e3, one, one).is_one
    monkeypatch.setattr(core, "FAST_CLOSURE_SPACE_CAP", 0)
    with pytest.raises(CapExceeded, match="beyond the cap of 0"):
        commutator(e3, one, one)


def test_principal_congruence_examples(e3):
    assert principal_congruence(e3, 0, 1) == Partition(3, (0, 0, 1))
    assert principal_congruence(e3, 0, 2).is_one
    assert principal_congruence(e3, 1, 1).is_zero


def table_algebras(corpus):
    """The corpus, seeded random {wedge, d} algebras up to 12 elements, whose
    pair graphs are deep, regularized glued algebras up to 16 elements,
    chain_semilattice(12), a 1-element algebra and a unary one."""
    return ([e.algebra for e in corpus]
            + [random_algebra(n, {"wedge": 2, "d": 3}, seed)
               for n in range(2, 13) for seed in range(2)]
            + [regularized_glued(3, sizes)[0]
               for sizes in ((2, 2, 1), (2, 2, 2), (3, 3, 2), (4, 4, 4, 4))]
            + [chain_semilattice(12),
               FiniteAlgebra("point", 1, {"f": OperationTable(1, 1, [0])}),
               FiniteAlgebra("unary", 6, {"f": OperationTable(1, 6, [1, 2, 0, 4, 3, 3])})])


def assert_principal_table(alg, table):
    # one table per algebra: distinct read-only int64 rows of least-element
    # labels, 0_A first, a symmetric index with a 0_A diagonal, each first
    # pair the least a < b of its row, and every row, made a Partition, the
    # congruence_generated of its pair
    n = alg.size
    labels, firsts, index = table
    pairs = list(itertools.combinations(range(n), 2))
    assert labels.shape == (len(firsts), n) and index.shape == (n, n)
    assert labels.dtype == index.dtype == np.int64
    assert not labels.flags.writeable and not index.flags.writeable
    assert (index == index.T).all() and not np.diag(index).any()
    assert labels[0].tolist() == list(range(n))
    parts = [Partition(n, tuple(row)) for row in labels.tolist()]
    assert len(set(parts)) == len(parts)
    assert labels.tolist() == [[min(p.block_of(x)) for x in range(n)] for p in parts]
    assert set(index.ravel().tolist()) == set(range(len(parts)))
    for a, b in itertools.product(range(n), repeat=2):
        assert parts[index[a, b]] == congruence_generated(alg, [(a, b)]), (alg.name, a, b)
    assert firsts == ((0, 0),) + tuple(
        next(p for p in pairs if index[p] == i) for i in range(1, len(parts)))


def test_principal_table(monkeypatch, corpus):
    algebras = table_algebras(corpus)
    for alg in algebras:
        assert_principal_table(alg, relations._principal_table.__wrapped__(alg))
        n = alg.size
        for a, b in [(-1, 0), (0, n)]:
            with pytest.raises(AlgebraError, match=rf"^pair \({a}, {b}\) out of range 0\.\.{n - 1}$"):
                principal_congruence(alg, a, b)
    # again with small chunks: one `_classes` per chunk of sources, and some
    # algebra searches its pairs in several chunks of more than one source
    chunks = []
    real = relations._classes
    monkeypatch.setattr(relations, "_classes", lambda rel: chunks.append(len(rel)) or real(rel))
    monkeypatch.setattr(core, "BLOCK_SIZE", 16 * 100)
    crossed = False
    for alg in algebras:
        chunks.clear()
        assert_principal_table(alg, relations._principal_table.__wrapped__(alg))
        crossed |= len(chunks) > 1 and max(chunks) > 1
    assert crossed


def test_principal_table_memory_is_bounded():
    # the table search charges 16 per entry of its chunks: on a random
    # 20-element algebra it peaks at 1.63 MiB beyond its warm-up, and at
    # 2.34 MiB with a weight of 4 (a copy that drops the weight fails here)
    alg = random_algebra(20, {"wedge": 2, "d": 3}, 1)
    relations._principal_table.__wrapped__(alg)
    tracemalloc.start()
    try:
        relations._principal_table.__wrapped__(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def test_principal_table_search_is_checked(corpus):
    # a copy of the table whose search keeps only its first step, so that
    # pairs two or more steps away are lost, must fail the test above
    stepped = []           # each chunk's bitmap, held so that `is` tells them apart

    class FirstStepOnly:
        """numpy, except that `greater`, which the search calls once a step
        to keep the new marks only, keeps none after a chunk's first step."""
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def greater(new, flat, out):
            np.greater(new, flat, out=out)
            if any(f is flat for f in stepped):
                out[...] = False
            else:
                stepped.append(flat)

    build = types.FunctionType(relations._principal_table.__wrapped__.__code__,
                               dict(vars(relations), np=FirstStepOnly()))
    for alg in table_algebras(corpus):
        try:
            assert_principal_table(alg, build(alg))
        except AssertionError:
            break
    else:
        pytest.fail("a search that keeps only its first step went unnoticed")


def test_principal_congruence_oracle(corpus):
    # least congruence containing (a, b), found by scanning all partitions
    for entry in corpus:
        alg = entry.algebra
        n = alg.size
        if n > 4:
            continue
        congruences = [p for p in all_partitions(n) if congruence_violation(alg, p) is None]
        for a in range(n):
            for b in range(a, n):
                containing = [p for p in congruences if p.related(a, b)]
                least = containing[0]
                for p in containing[1:]:
                    least = least.meet(p)
                assert principal_congruence(alg, a, b) == least


def test_alternating_closure_agrees(corpus):
    """The quick-find translation closure against the alternating subpower
    closure: every pair of the corpus and of random {wedge, d} algebras up
    to size 6, and random sets of several pairs, since merges now happen
    in another order."""
    algebras = [e.algebra for e in corpus]
    algebras += [random_algebra(1 + seed % 6, {"wedge": 2, "d": 3}, seed)
                 for seed in range(24)]
    rng = random.Random(13)
    for alg in algebras:
        n = alg.size
        for a in range(n):
            for b in range(a + 1, n):
                assert congruence_by_alternating_closure(alg, [(a, b)]) == \
                    principal_congruence(alg, a, b), (alg.name, a, b)
        for _ in range(3):
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randrange(2, 5))]
            assert congruence_by_alternating_closure(alg, pairs) == \
                congruence_generated(alg, pairs), (alg.name, pairs)


def test_congruence_lattice_examples(e3, b2):
    lat = congruence_lattice(e3)
    assert [str(p) for p in lat.congruences] == ["0 | 1 | 2", "0 1 | 2", "0 1 2"]
    assert lat.covers == ((0, 1), (1, 2))
    assert len(congruence_lattice(b2)) == 2
    one = FiniteAlgebra("one1", 1, {"f": OperationTable(1, 1, [0])})
    assert len(congruence_lattice(one)) == 1


def definitional_covers(congruences) -> tuple:
    """(i, j) with congruences[i] < congruences[j] and nothing strictly
    between, in index order."""
    below = [[p < q for q in congruences] for p in congruences]
    idx = range(len(congruences))
    return tuple((i, j) for i in idx for j in idx if below[i][j]
                 and not any(below[i][k] and below[k][j] for k in idx))


def brute_force_algebras(e3, n4, corpus):
    """Algebras of size at most 8 whose congruences all_partitions can list."""
    algebras = [e3, n4] + [e.algebra for e in corpus]
    algebras += [random_algebra(1 + seed % 6, {"wedge": 2, "d": 3}, seed)
                 for seed in range(24)]
    algebras += [random_semilattice(n, random.Random(n)) for n in range(1, 7)]
    return algebras


def test_congruence_lattice_brute(e3, n4, corpus):
    """Members are exactly the partitions that are congruences, in the
    lattice's order, and covers are the definitional ones."""
    for alg in brute_force_algebras(e3, n4, corpus):
        lat = congruence_lattice(alg)
        brute = [p for p in all_partitions(alg.size) if congruence_violation(alg, p) is None]
        assert list(lat.congruences) == sorted(
            brute, key=lambda p: (-p.num_classes, p.class_ids)), alg.name
        assert lat.covers == definitional_covers(lat.congruences), alg.name


def lattice_by_all_principals(alg):
    """Reference congruence lattice: the breadth-first search from 0_A that
    joins each congruence found with every distinct nonzero principal
    congruence, not only the join-irreducible ones."""
    n = alg.size
    if n > relations.LATTICE_SIZE_CAP:
        raise CapExceeded(f"congruence lattice capped at universe size "
                          f"{relations.LATTICE_SIZE_CAP}, algebra has {n}")
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
    return relations.CongruenceLattice(tuple(ordered), tuple(covers))


def recognize_shapes():
    """The shapes `con` meets in the benchmark's recognize ladder: products
    of small SMB algebras and glued algebras of sizes 6 to 10, each plain
    and regularized over its sim."""
    rng = random.Random(5)

    def tree(k):
        return random_semilattice(k, rng), Partition.zero(k)

    factors = [(tree(3), tree(3)),
               ((example_b2(), Partition.one(2)), tree(3)),
               ((example_s2(), Partition.zero(2)), tree(4)),
               ((example_e3(), Partition(3, (0, 0, 1))), glued(5, (2, 1)))]
    shapes = []
    for (a, sim_a), (b, sim_b) in factors:
        sim = Partition(a.size * b.size, tuple(
            (sim_a.class_ids[e // b.size], sim_b.class_ids[e % b.size])
            for e in range(a.size * b.size)))
        shapes.append((product_algebra(a, b), sim))
    shapes += [glued(seed, sizes) for seed, sizes in enumerate(
        [(3, 3), (2, 3, 2), (3, 2, 3), (2, 2, 3, 2), (3, 2, 3, 2)])]
    return [alg for shape, sim in shapes for alg in (shape, regularize(shape, sim))]


def differential_algebras(e3, n4, corpus):
    """The brute-force set, trees up to size 12 and the recognize shapes."""
    trees = [random_semilattice(n, random.Random(1000 + n)) for n in range(1, 13)]
    return brute_force_algebras(e3, n4, corpus) + trees + recognize_shapes()


def assert_lattice_is_reference(alg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "LATTICE_SIZE_CAP", alg.size)
        lat = congruence_lattice(alg)
        ref = lattice_by_all_principals(alg)
    assert lat.congruences == ref.congruences, alg.name
    assert lat.covers == ref.covers, alg.name


def test_congruence_lattice_matches_all_principals(e3, n4, corpus):
    """The search over join-irreducible principals finds the members and
    covers that the search over every principal finds."""
    for alg in differential_algebras(e3, n4, corpus):
        assert_lattice_is_reference(alg)


def test_join_irreducible_filter_is_exact(e3, n4, corpus, monkeypatch):
    """The principals the search keeps are the lattice members with exactly
    one lower cover, and dropping any one of them is caught by the
    differential test."""
    for alg in brute_force_algebras(e3, n4, corpus):
        members = congruence_lattice(alg).congruences
        lower = [0] * len(members)
        for _, j in definitional_covers(members):
            lower[j] += 1
        irreducible = {members[j] for j, k in enumerate(lower) if k == 1}
        labels, *_ = table = relations._principal_table(alg)
        found = relations._join_irreducibles(*table)
        assert found == sorted(set(found)) and 0 not in found, alg.name    # table order
        assert {Partition(alg.size, tuple(labels[j])) for j in found} == irreducible, alg.name

    keep = relations._join_irreducibles
    monkeypatch.setattr(relations, "_join_irreducibles", lambda *table: keep(*table)[:-1])
    for alg in differential_algebras(e3, n4, corpus):
        try:
            assert_lattice_is_reference(alg)
        except AssertionError:
            break
    else:
        pytest.fail("dropping a join-irreducible principal went unnoticed")


def test_tree_semilattice_lattice_size(monkeypatch):
    # the congruences are the partitions into connected subtrees, one for
    # each set of cut edges
    monkeypatch.setattr(relations, "LATTICE_SIZE_CAP", 12)
    for n in range(1, 13):
        for seed in range(2):
            tree = random_semilattice(n, random.Random(100 * n + seed))
            assert len(congruence_lattice(tree)) == 2 ** (n - 1)


def test_congruence_lattice_builds_no_partition_joins(e3, n4, corpus, monkeypatch):
    # the search joins, relates and compares class-id tuples; Partition's
    # own lattice methods are left to the library's other callers
    calls = []

    def spy(name):
        real = getattr(Partition, name)
        return lambda self, *args: calls.append(name) or real(self, *args)

    for name in ("join", "refines", "related"):
        monkeypatch.setattr(Partition, name, spy(name))
    algebras = [e3, n4] + [entry.algebra for entry in corpus
                           if entry.algebra.size <= relations.LATTICE_SIZE_CAP]
    monkeypatch.setattr(relations, "LATTICE_SIZE_CAP", 12)
    for alg in algebras + [random_semilattice(12, random.Random(1200))]:
        congruence_lattice(alg)
    assert calls == []
    zero, one = Partition.zero(3), Partition.one(3)
    assert zero.join(one).related(0, 2) and zero.refines(one)
    assert calls == ["join", "related", "refines"]


def scan_violation(alg, p):
    """Reference congruence test: the row-by-row scan, returning the first
    (symbol, args, args') in symbol, argument tuple, position and class
    order."""
    ids = p.class_ids
    classes = p.blocks()
    for sym, table in alg.operations.items():
        nested = nested_lists(table)
        for args in itertools.product(range(alg.size), repeat=table.arity):
            t = nested
            for a in args:
                t = t[a]
            base = t
            for pos in range(table.arity):
                for b in classes[ids[args[pos]]]:
                    if b == args[pos]:
                        continue
                    alt = args[:pos] + (b,) + args[pos + 1:]
                    t = nested
                    for a in alt:
                        t = t[a]
                    if ids[t] != ids[base]:
                        return (sym, args, alt)
    return None


def test_congruence_violation_matches_scan(corpus):
    signatures = ({"f": 1, "wedge": 2, "d": 3}, {"d": 3, "g": 2, "f": 1})
    algebras = [random_algebra(1 + seed % 5, signatures[seed % 2], seed)
                for seed in range(30)]
    algebras += [e.algebra for e in corpus if e.algebra.size <= 5]
    outcomes = set()
    for alg in algebras:
        for p in all_partitions(alg.size):
            expected = scan_violation(alg, p)
            assert congruence_violation(alg, p) == expected, (alg.name, p)
            outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_join_example(e3, e3_sim):
    assert principal_congruence(e3, 0, 1).join(e3_sim) == e3_sim


def test_quotient_examples(e3, e3_sim):
    quot, cmap = quotient_algebra(e3, e3_sim)
    assert quot.size == 2 and cmap == (0, 0, 1)
    # class 1 (= {2}) is the bottom of the order, so wedge is meet
    assert quot.op("wedge").entries == (0, 1, 1, 1)
    assert quot.op("d").entries == tuple(
        min(1, x + y + z) if (x or y or z) else 0
        for x in range(2) for y in range(2) for z in range(2))

    same, _ = quotient_algebra(e3, Partition.zero(3))
    assert same == e3
    triv, _ = quotient_algebra(e3, Partition.one(3))
    assert triv.size == 1

    with pytest.raises(PreconditionError, match="not a congruence"):
        quotient_algebra(e3, Partition(3, (0, 1, 1)))


def test_push_partition(e3, e3_sim):
    _, cmap = quotient_algebra(e3, e3_sim)
    assert push_partition(e3_sim, cmap, 2, Partition.one(3)).is_one
    assert push_partition(e3_sim, cmap, 2, e3_sim).is_zero
    # a class map or partition of the wrong size, or a map outside the
    # quotient, is refused before any work
    for args in ((cmap[:2], 2, e3_sim), (cmap, 2, Partition.one(4)),
                 ((0, 0, 2), 2, Partition.one(3)), ((0, 0, -1), 2, Partition.one(3))):
        with pytest.raises(AlgebraError):
            push_partition(e3_sim, *args)


def test_d_rel_examples(e3, b2):
    assert set(decoded(d_rels(e3, [(0, 1)])[0])[0]) == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}
    assert set(decoded(d_rels(b2, [(0, 1)])[0])[0]) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    diag = set(decoded(d_rels(e3, [(1, 1)])[0])[0])
    assert diag == {(c, c) for c in range(3)}


def test_d_rel_inside_principal(corpus):
    for entry in corpus:
        alg = entry.algebra
        if alg.size > 5:
            continue
        for a in range(alg.size):
            for b in range(alg.size):
                cg = principal_congruence(alg, a, b)
                for u, v in d_rels(alg, [(a, b)])[0].rows.tolist():
                    assert cg.related(u, v)


def test_one_block_malcev_reflexive_subpowers(b2):
    # a reflexive generated subpower of A^2 over a Mal'cev algebra is a
    # congruence, checked exhaustively over all generator sets
    z3 = affine_block(3)
    for alg in (b2, z3):
        n = alg.size
        diag = [(c, c) for c in range(n)]
        off = [(a, b) for a in range(n) for b in range(n) if a != b]
        for r in range(len(off) + 1):
            for extra in itertools.combinations(off, r):
                rel = set(decoded(generate_subpower(alg, 2, diag + list(extra)))[0])
                assert all((b_, a_) in rel for a_, b_ in rel)
                assert all((a_, c_) in rel
                           for a_, b_ in rel for b2_, c_ in rel if b_ == b2_)


def test_compose_relations(e3, b2):
    delta = {(c, c) for c in range(3)}
    rel = {(0, 1), (2, 0)}
    assert compose_relations(delta, rel) == rel
    de3 = set(decoded(d_rels(e3, [(0, 1)])[0])[0])
    assert compose_relations(de3, de3) == de3
    db2 = set(decoded(d_rels(b2, [(0, 1)])[0])[0])
    assert compose_relations(db2, db2) == {(a, b) for a in range(2) for b in range(2)}


def test_unary_polynomials(e3):
    polys = unary_polynomials(e3)
    maps = {vals for vals, _ in polys}
    assert (0, 1, 2) in maps                       # identity
    assert all((c, c, c) in maps for c in range(3))  # constants
    assert (1, 0, 2) in maps                       # d(x, 0, 1)
    for vals, term in polys:
        assert tuple(eval_term(e3, term, (t,)) for t in range(3)) == vals
    # absorbing element: every nonconstant map fixes 2 and hits it
    for vals, _ in polys:
        if len(set(vals)) > 1:
            assert 2 in vals and vals[2] == 2
    # deterministic order
    assert [v for v, _ in unary_polynomials(e3)] == [v for v, _ in polys]

    one = FiniteAlgebra("one1", 1, {"f": OperationTable(1, 1, [0])})
    assert len(unary_polynomials(one)) == 1


def test_subalgebras_and_products(e3, b2, s2, n4):
    subs = all_subuniverses(e3)
    assert (0, 1, 2) in subs and (2,) in subs
    assert subalgebra(e3, (0, 1)) == b2
    with pytest.raises(AlgebraError, match="closed"):
        subalgebra(n4, (0, 2))  # wedge(0, 2) = 3 falls outside
    for bad in ([-1, 0], [0, 0, 2], [0, 5]):
        with pytest.raises(AlgebraError, match="not a set of elements 0..2"):
            subalgebra(e3, bad)
    prod = product_algebra(s2, s2)
    assert prod.size == 4
    assert prod.op("wedge").apply(1 * 2 + 0, 0 * 2 + 1) == 0  # (1,0)^(0,1) = (0,0)


# Reference table builders: the per-tuple loops over `nested_lists` that the
# numpy versions in `relations` replaced.

def loop_translations(alg):
    n = alg.size
    out = []
    for table in alg.operations.values():
        arity = table.arity
        nested = nested_lists(table)
        for pos in range(arity):
            for consts in itertools.product(range(n), repeat=arity - 1):
                row = []
                for x in range(n):
                    args = consts[:pos] + (x,) + consts[pos:]
                    t = nested
                    for a in args:
                        t = t[a]
                    row.append(t)
                tmap = tuple(row)
                if tmap != tuple(range(n)):
                    out.append(tmap)
    return tuple(sorted(set(out)))


def loop_quotient(alg, theta):
    ids = theta.class_ids
    reps = [block[0] for block in theta.blocks()]
    m = theta.num_classes
    ops = {}
    for sym, table in alg.operations.items():
        nested = nested_lists(table)
        entries = []
        for args in itertools.product(range(m), repeat=table.arity):
            t = nested
            for c in args:
                t = t[reps[c]]
            entries.append(ids[t])
        ops[sym] = OperationTable(table.arity, m, entries)
    return FiniteAlgebra(f"{alg.name}_mod", m, ops), tuple(ids)


def loop_subalgebra(alg, subuniverse):
    sub = tuple(sorted(subuniverse))
    pos = {x: i for i, x in enumerate(sub)}
    ops = {}
    for sym, table in alg.operations.items():
        nested = nested_lists(table)
        entries = []
        for args in itertools.product(sub, repeat=table.arity):
            t = nested
            for a in args:
                t = t[a]
            if t not in pos:
                raise AlgebraError(
                    f"{sub} is not closed under '{sym}' at {args} (value {t})")
            entries.append(pos[t])
        ops[sym] = OperationTable(table.arity, len(sub), entries)
    return FiniteAlgebra(f"{alg.name}_sub", len(sub), ops)


def loop_product(a, b):
    ops = {}
    nb = b.size
    for sym, ta in a.operations.items():
        tb = b.operations[sym]
        na_nested, nb_nested = nested_lists(ta), nested_lists(tb)
        entries = []
        for args in itertools.product(range(a.size * nb), repeat=ta.arity):
            t1 = na_nested
            t2 = nb_nested
            for e in args:
                t1 = t1[e // nb]
                t2 = t2[e % nb]
            entries.append(t1 * nb + t2)
        ops[sym] = OperationTable(ta.arity, a.size * nb, entries)
    return FiniteAlgebra(f"{a.name}x{b.name}", a.size * b.size, ops)


def same_algebra(left, right):
    """Equal name, size, declaration order and entries."""
    assert (left.name, left.size) == (right.name, right.size)
    assert [(s, t.arity, t.entries) for s, t in left.operations.items()] == \
        [(s, t.arity, t.entries) for s, t in right.operations.items()]


def builder_cases(corpus):
    """Corpus entries of size <= 6, then seeded random algebras with n <= 5
    and operations of arity 1 to 3 in two signatures."""
    algebras = [e.algebra for e in corpus if e.algebra.size <= 6]
    rng = random.Random(707)
    for n in range(1, 6):
        for sig in ({"f": 1, "g": 2}, {"h": 3, "f": 1}, {"g": 2, "h": 3}):
            for _ in range(3):
                algebras.append(random_algebra(n, sig, rng.randrange(1 << 30)))
    return algebras


def test_table_builders_match_loops(corpus):
    # every congruence quotient, every subset (closed or not, so the first
    # failing argument tuple is compared too) and products of equal
    # signatures, against the reference loops
    algebras = builder_cases(corpus)
    for alg in algebras:
        assert relations._translations(alg) == loop_translations(alg)
        for theta in congruence_lattice(alg):
            quot, cmap = quotient_algebra(alg, theta)
            ref_quot, ref_cmap = loop_quotient(alg, theta)
            same_algebra(quot, ref_quot)
            assert cmap == ref_cmap
        for r in range(1, alg.size + 1):
            for subset in itertools.combinations(range(alg.size), r):
                try:
                    expected = loop_subalgebra(alg, subset[::-1])
                except AlgebraError as exc:
                    with pytest.raises(AlgebraError) as got:
                        subalgebra(alg, subset[::-1])
                    assert str(got.value) == str(exc)
                else:
                    same_algebra(subalgebra(alg, subset[::-1]), expected)
    signature = lambda alg: {s: t.arity for s, t in alg.operations.items()}
    for left, right in itertools.product(algebras, repeat=2):
        if signature(left) == signature(right) and left.size * right.size <= 12:
            same_algebra(product_algebra(left, right), loop_product(left, right))


def test_matrix_commutator_examples(e3, s2, b2, e3_sim):
    zero3, one3 = Partition.zero(3), Partition.one(3)
    assert commutator(e3, e3_sim, e3_sim).is_zero
    assert commutator(e3, zero3, one3).is_zero
    assert commutator(e3, one3, one3).is_one
    one2 = Partition.one(2)
    assert commutator(s2, one2, one2).is_one
    assert not commutator(s2, one2, one2).is_zero
    assert commutator(b2, one2, one2).is_zero


def test_matrix_set_structure(e3, e3_sim):
    mats = matrix_set(e3, e3_sim, e3_sim)
    for m11, m12, m21, m22 in map(tuple, mats.tolist()):
        assert e3_sim.related(m11, m12) and e3_sim.related(m21, m22)
        assert e3_sim.related(m11, m21) and e3_sim.related(m12, m22)


def test_only_commutator_closes_over_orbits(e3, e3_sim, monkeypatch):
    # matrix_set, which the oracle reads, builds its own rows and stays on
    # the plain rounds, so the oracle shares no builder and no orbit map
    # with the commutator it checks; _commutator reaches the round loop
    # through _matrix_rounds, under the Klein group
    seen, built = [], []
    rounds, matrix_rounds = relations._closure_rounds, relations._matrix_rounds

    def spy(alg, k, gens, group=()):
        seen.append(group)
        return rounds(alg, k, gens, group)

    def builder_spy(*args):
        built.append(args)
        return matrix_rounds(*args)

    monkeypatch.setattr(relations, "_closure_rounds", spy)
    monkeypatch.setattr(relations, "_matrix_rounds", builder_spy)
    matrix_set(e3, e3_sim, e3_sim)
    commutator_oracle(e3, e3_sim, e3_sim)
    assert built == []
    relations._commutator.__wrapped__(e3, e3_sim, e3_sim)
    assert len(built) == 1
    assert seen == [(), (), relations._KLEIN_GROUP]


def test_commutator_below_meet(corpus):
    for entry in corpus:
        alg = entry.algebra
        if alg.size > 4:
            continue
        lat = congruence_lattice(alg)
        for p in lat:
            for q in lat:
                assert commutator(alg, p, q).refines(p.meet(q))


def test_commutator_rejects_non_congruence(e3):
    with pytest.raises(PreconditionError, match=(
            r"^partition 0 \| 1 2 is not a congruence of e3: operation '\w+' "
            r"separates \(.*\) and \(.*\)$")):
        commutator(e3, Partition(3, (0, 1, 1)), Partition.one(3))


def test_commutator_checks_each_partition_once(e3, e3_sim, monkeypatch):
    # [alpha, alpha] checks alpha once, [alpha, beta] checks both, and of
    # two non-congruences the first one is named
    calls = []
    real = relations.congruence_violation
    monkeypatch.setattr(relations, "congruence_violation",
                        lambda alg, p: calls.append(p) or real(alg, p))
    one = Partition.one(3)
    commutator(e3, e3_sim, e3_sim)
    assert calls == [e3_sim]
    calls.clear()
    commutator(e3, e3_sim, one)
    assert calls == [e3_sim, one]
    with pytest.raises(PreconditionError, match=r"^partition 0 \| 1 2 is not"):
        commutator(e3, Partition(3, (0, 1, 1)), Partition(3, (0, 1, 0)))


def test_commutator_oracle_spot(e3, s2, e3_sim):
    one3 = Partition.one(3)
    assert commutator_oracle(e3, e3_sim, e3_sim) == commutator(e3, e3_sim, e3_sim)
    assert commutator_oracle(e3, one3, one3) == commutator(e3, one3, one3)
    one2 = Partition.one(2)
    assert commutator_oracle(s2, one2, one2) == commutator(s2, one2, one2)


@pytest.mark.parametrize("block_sizes", [(2, 2, 1), (2, 2, 2)])
def test_commutator_oracle_glued(block_sizes):
    # past n = 4: regularized glued algebras of sizes 5 and 6, every ordered
    # pair drawn from 0_A, sim, 1_A and the distinct principal congruences
    alg, sim = regularized_glued(5, block_sizes)
    n = alg.size
    args = [Partition.zero(n), sim, Partition.one(n)]
    for a, b in itertools.combinations(range(n), 2):
        cg = principal_congruence(alg, a, b)
        if cg not in args:
            args.append(cg)
    assert len(args) > 6
    for p in args:
        for q in args:
            assert commutator(alg, p, q) == commutator_oracle(alg, p, q), (p, q)


def relabelled(alg, perm):
    """The isomorphic copy of `alg` in which element x is called perm[x]."""
    n = alg.size
    inv = sorted(range(n), key=perm.__getitem__)
    ops = {}
    for sym, table in alg.operations.items():
        values = table.array.reshape((n,) * table.arity)[
            tuple(np.ix_(*[inv] * table.arity))]
        ops[sym] = OperationTable(table.arity, n,
                                  np.asarray(perm)[values].ravel().tolist())
    return FiniteAlgebra(f"{alg.name}_relabelled", n, ops)


def test_spanning_pairs_generate_alpha(corpus):
    # one star per class: symmetric, 2 (|C| - 1) distinct pairs inside each
    # class C, every pair through one centre, and generating alpha itself
    cases = [(entry.algebra, p) for entry in corpus if entry.algebra.size <= 6
             for p in congruence_lattice(entry.algebra)]
    for sizes in ((2, 2, 2), (3, 3), (4, 2)):
        alg = regularized_glued(3, sizes)[0]
        cases += [(alg, p) for p in congruence_lattice(alg)]
    assert sum(max(map(len, p.blocks())) > 2 for _, p in cases) > 20
    for alg, p in cases:
        pairs = relations._spanning_pairs(alg, p)
        assert len(pairs) == len(set(pairs)) == sum(2 * (len(c) - 1) for c in p.blocks())
        assert set(pairs) == {(b, a) for a, b in pairs}
        for block in p.blocks():
            inside = [pair for pair in pairs if pair[0] in block]
            assert all(p.related(a, b) and a != b for a, b in inside)
            if len(block) > 1:
                assert set(block).intersection(*map(set, inside))
        assert congruence_generated(alg, pairs) == p


def test_spanning_pairs_centre_keeps_closure_small():
    # on three relabellings of one algebra, the chosen stars close to no
    # more matrices (beta = 1_A) than the least-label stars, for every
    # alpha; for alpha = 1_A, to the fewest over all centres
    base = regularized_glued(3, (2, 2, 2))[0]
    n = base.size
    one = Partition.one(n)

    def closed(alg, pairs):
        return len(klein_matrices(alg, pairs, one))

    def star(block, centre):
        return [pair for x in block if x != centre
                for pair in ((centre, x), (x, centre))]

    rng = random.Random(1616)
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        alg = relabelled(base, perm)
        for alpha in congruence_lattice(alg):
            least = [pair for block in alpha.blocks() for pair in star(block, block[0])]
            assert closed(alg, relations._spanning_pairs(alg, alpha)) <= closed(alg, least)
        chosen = closed(alg, relations._spanning_pairs(alg, one))
        assert chosen == min(closed(alg, star(range(n), c)) for c in range(n))


def matrix_fixpoint(alg, alpha_pairs, beta_pairs):
    """The term-condition fixpoint over the closure of (a, a, b, b) for the
    given alpha-pairs and (c, d, c, d) for the given beta-pairs."""
    gens = sorted({(a, a, b, b) for a, b in alpha_pairs}
                  | {(c, d, c, d) for c, d in beta_pairs})
    matrices = relations._subpower_closure(alg, 4, [gens])[0][0]
    return relations._term_condition_fixpoint(alg, matrices)


def test_commutator_differential(e3, n4):
    # the commutator closes M(S, beta) for a symmetric spanning set S of
    # alpha; on every ordered pair of lattice members it must equal the
    # oracle over the full M(alpha, beta).  Two broken copies, closed the
    # same way, must each be caught: one that also spans beta, and one that
    # drops S^-1.  The second agrees on every pair of these glued algebras;
    # e3 and n4 catch it.
    algebras = [regularized_glued(seed, sizes)[0] for seed, sizes in
                [(0, (2, 2, 1)), (0, (3, 2)), (1, (4, 2)), (1, (3, 3))]] + [e3, n4]
    caught = {"spanning beta": 0, "one direction": 0}
    for alg in algebras:
        diagonal = [(c, c) for c in range(alg.size)]
        for alpha, beta in itertools.product(congruence_lattice(alg), repeat=2):
            want = commutator_oracle(alg, alpha, beta)
            assert commutator(alg, alpha, beta) == want, (alg.name, alpha, beta)
            spanning = relations._spanning_pairs(alg, alpha)
            beta_spanning = relations._spanning_pairs(alg, beta) + diagonal
            caught["spanning beta"] += matrix_fixpoint(alg, spanning, beta_spanning) != want
            one_way = [(a, b) for a, b in spanning if a < b]
            caught["one direction"] += matrix_fixpoint(alg, one_way, beta.pairs()) != want
    assert all(caught.values()), caught


def test_commutator_is_order_sensitive(e3, e3_sim):
    # the two argument orders genuinely differ here, so the engine must not
    # symmetrize; both values are confirmed by the independent oracle
    one3 = Partition.one(3)
    assert commutator(e3, e3_sim, one3).is_zero
    assert commutator(e3, one3, e3_sim) == e3_sim
    assert commutator_oracle(e3, e3_sim, one3).is_zero
    assert commutator_oracle(e3, one3, e3_sim) == e3_sim


def planted_algebra(rng, n, signature):
    """A random algebra on n elements with a random partition planted as a
    congruence: each operation maps classes to classes by a random table,
    each value a random member of its class.  Its congruence lattice is
    richer than that of a plain random algebra."""
    ids = Partition(n, tuple(rng.randrange(n - 1) for _ in range(n))).class_ids
    m = max(ids) + 1
    members = [[x for x in range(n) if ids[x] == c] for c in range(m)]
    ops = {}
    for sym, arity in signature.items():
        on_classes = [rng.randrange(m) for _ in range(m ** arity)]
        values = []
        for args in itertools.product(range(n), repeat=arity):
            at = 0
            for x in args:
                at = at * m + ids[x]
            values.append(rng.choice(members[on_classes[at]]))
        ops[sym] = OperationTable(arity, n, values)
    return FiniteAlgebra(f"planted{n}", n, ops)


# A 5-element groupoid on which one round of M(alpha, 1_A) is not enough:
# for alpha = 0 3 | 1 2 | 4 the probe finds 0 | 1 2 | 3 | 4, and the
# commutator in the quotient by it, pulled back, is alpha itself.
ONE_ROUND_SHORT = FiniteAlgebra("one_round_short", 5, {"f": OperationTable(
    2, 5, [2, 3, 3, 1, 2, 0, 1, 2, 3, 0, 0, 1, 2, 3, 0, 1, 0, 0, 1, 2, 1, 4, 4, 1, 1])})


@functools.lru_cache(maxsize=None)
def probe_oracle_cases():
    """Every ordered pair of congruences of `ONE_ROUND_SHORT`, of 12 seeded
    planted algebras with n = 3-5 in four signatures and of two regularized
    glued algebras (n = 4 and 5, on which many probes stop strictly between
    0_A and alpha meet beta), with the oracle's commutator of each."""
    rng = random.Random(3232)
    signatures = ({"f": 2}, {"f": 2, "u": 1}, {"t": 3}, {"f": 2, "g": 2})
    algebras = [ONE_ROUND_SHORT] + [planted_algebra(rng, 3 + i % 3, signatures[i % 4])
                                    for i in range(12)]
    algebras += [regularized_glued(3, sizes)[0] for sizes in ((2, 1, 1), (2, 2, 1))]
    return tuple((alg, alpha, beta, commutator_oracle(alg, alpha, beta)) for alg in algebras
                 for alpha, beta in itertools.product(congruence_lattice(alg), repeat=2))


def unprobed_commutator(alg, alpha, beta):
    """The commutator without the probe: the term-condition fixpoint over
    the whole orbit-reduced closure of M(S, beta)."""
    matrices = klein_matrices(alg, relations._spanning_pairs(alg, alpha), beta)
    return relations._term_condition_fixpoint(alg, matrices)


def probe_mismatches(commutator_body, cases):
    """How many (alg, alpha, beta, want) cases a `_commutator` body gets
    wrong, a raised error included."""
    bad = 0
    for alg, alpha, beta, want in cases:
        try:
            bad += commutator_body(alg, alpha, beta) != want
        except (AlgebraError, FalsificationError):
            bad += 1
    return bad


def test_probing_commutator_matches_oracle():
    # random algebras with n = 3-5 and a planted congruence, and two
    # regularized glued algebras: the probe recurses on many pairs, those
    # with 0_A < theta < alpha meet beta, and on ONE_ROUND_SHORT its theta
    # lies strictly below the commutator, so the pull-back is needed
    cases = probe_oracle_cases()
    quotients = []
    real = relations._quotient
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "_quotient",
                      lambda alg, theta: quotients.append((alg, theta)) or real(alg, theta))
        assert probe_mismatches(relations._commutator.__wrapped__, cases) == 0
    assert len(cases) > 150 and len(quotients) > 40
    alpha, one = Partition.parse("0 3 | 1 2 | 4", 5), Partition.one(5)
    rounds = relations._matrix_rounds(ONE_ROUND_SHORT, relations._spanning_pairs(
        ONE_ROUND_SHORT, alpha), one)
    next(rounds)
    theta = relations._term_condition_fixpoint(ONE_ROUND_SHORT, next(rounds))
    assert theta == Partition.parse("0 | 1 2 | 3 | 4", 5)
    assert (ONE_ROUND_SHORT, theta) in quotients
    assert (ONE_ROUND_SHORT, alpha, one, alpha) in cases


def test_probing_commutator_matches_the_unprobed_path(corpus):
    # the corpus, every ordered pair of its lattices up to size 5, then the
    # commutator ladder's shapes and regularized glued algebras up to n = 10
    # on sim, 1_A and the distinct principal congruences
    cases = [(entry.algebra, alpha, beta) for entry in corpus if entry.algebra.size <= 5
             for alpha, beta in itertools.product(congruence_lattice(entry.algebra), repeat=2)]
    for seed, sizes in [(3, (2, 1, 1)), (3, (2, 2, 1)), (3, (2, 2, 2)),
                        (1, (2, 2, 2, 2)), (2, (3, 3, 2, 2))]:
        alg, sim = regularized_glued(seed, sizes)
        n = alg.size
        args = [sim, Partition.one(n)]
        principals = (Partition(n, tuple(row)) for row in relations._principal_table(alg)[0][1:])
        args += [p for p in principals if p not in args]
        cases += [(alg, alpha, beta) for alpha, beta in itertools.product(args, repeat=2)]
    assert len(cases) > 1000 and max(alg.size for alg, _, _ in cases) == 10
    for alg, alpha, beta in cases:
        assert relations._commutator.__wrapped__(alg, alpha, beta) == \
            unprobed_commutator(alg, alpha, beta), (alg.name, alpha, beta)


def test_probing_commutator_is_checked():
    # two broken copies of _commutator must each fail the oracle test: one
    # that probes with alpha meet beta, a congruence not below [alpha, beta]
    # in general, and one that returns the probe's theta, skipping the
    # commutator of A/theta and its pull-back
    source = inspect.getsource(relations._commutator)
    cases = probe_oracle_cases()
    for line, mutant in [
            ("theta = _term_condition_fixpoint(alg, matrices)",
             "theta = alpha.meet(beta)"),
            ("result = Partition(alg.size, tuple(inner.class_ids[c] for c in cmap))",
             "result = theta")]:
        broken = source.replace(line, mutant)
        assert broken != source
        namespace = dict(vars(relations))
        exec(broken, namespace)
        assert probe_mismatches(namespace["_commutator"], cases) > 0, line


def test_probing_commutator_cache_entries(e3):
    # a probing call adds its own entry and one per quotient it recurses
    # into, and a repeated call adds none
    seen = []
    real = relations._commutator
    real.cache_clear()

    def entries(alg, alpha, beta):
        """The (size, alpha, beta) of each `_commutator` call `commutator`
        makes, and how many cache entries they add."""
        seen.clear()
        before = real.cache_info().currsize
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(relations, "_commutator", lambda *args: seen.append(
                (args[0].size, *map(str, args[1:]))) or real(*args))
            commutator(alg, Partition.parse(alpha, alg.size), Partition.parse(beta, alg.size))
        return list(seen), real.cache_info().currsize - before

    # the pull-back: A/theta has size 4, and one round is enough there
    assert entries(ONE_ROUND_SHORT, "0 3 | 1 2 | 4", "0 1 2 3 4") == (
        [(5, "0 3 | 1 2 | 4", "0 1 2 3 4"), (4, "0 2 | 1 | 3", "0 1 2 3")], 2)
    assert entries(ONE_ROUND_SHORT, "0 3 | 1 2 | 4", "0 1 2 3 4") == (
        [(5, "0 3 | 1 2 | 4", "0 1 2 3 4")], 0)
    # theta = 0_A: the same closure runs on, in A alone
    assert entries(e3, "0 1 | 2", "0 1 | 2") == ([(3, "0 1 | 2", "0 1 | 2")], 1)
    # theta = 1_A = alpha meet beta: the answer, with no quotient
    assert entries(e3, "0 1 2", "0 1 2") == ([(3, "0 1 2", "0 1 2")], 1)


def spied_commutator(alg, alpha, beta, name):
    """`_commutator`'s answer, uncached, and how many calls it made to the
    `relations` function `name`."""
    calls = []
    real = getattr(relations, name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, name, lambda *args: calls.append(args) or real(*args))
        result = relations._commutator.__wrapped__(alg, alpha, beta)
    return result, len(calls)


def test_commutator_of_a_zero_meet_closes_nothing(e3):
    # [alpha, beta] <= alpha meet beta, so a zero meet is the answer before
    # any closure: on e3, and on two principal congruences of a glued
    # algebra that meet in 0_A
    alg, _ = regularized_glued(3, (2, 2, 1))
    principals = [Partition(alg.size, tuple(row)) for row in relations._principal_table(alg)[0][1:]]
    apart = [(p, q) for p, q in itertools.combinations(principals, 2)
             if p.meet(q).is_zero and not (p.is_zero or q.is_zero)]
    assert apart
    cases = [(e3, Partition.parse("0 1 | 2", 3), Partition.zero(3)), (alg, *apart[0])]
    for alg, alpha, beta in cases:
        assert commutator_oracle(alg, alpha, beta).is_zero
        for args in ((alpha, beta), (beta, alpha)):
            result, rounds = spied_commutator(alg, *args, "_matrix_rounds")
            assert result.is_zero and rounds == 0, (alg.name, *args)


def test_commutator_reaching_the_meet_builds_no_quotient(e3):
    # on e3, one round of M(1_A, 1_A) gives theta = 1_A = alpha meet beta,
    # the answer, so A/theta is never built
    one = Partition.one(3)
    assert spied_commutator(e3, one, one, "_quotient") == (one, 0)
    assert spied_commutator(e3, one, one, "_matrix_rounds") == (one, 1)


def test_congruence_closure_random_differential():
    # the translation closure and the alternating subpower closure must
    # agree on arbitrary signatures, not only on the corpus
    import random as _random
    from smbalg import random_algebra
    rng = _random.Random(404)
    for _ in range(40):
        n = rng.randrange(2, 5)
        sig = {"f": rng.randrange(1, 4), "g": rng.randrange(1, 3)}
        alg = random_algebra(n, sig, rng.randrange(1 << 30))
        a, b = rng.randrange(n), rng.randrange(n)
        assert congruence_by_alternating_closure(alg, [(a, b)]) == \
            principal_congruence(alg, a, b)


def test_correspondence_above_sim(e3, e3_sim):
    quot, cmap = quotient_algebra(e3, e3_sim)
    above = [p for p in congruence_lattice(e3) if e3_sim.refines(p)]
    pushed = {push_partition(e3_sim, cmap, quot.size, p) for p in above}
    assert pushed == set(congruence_lattice(quot).congruences)


def test_congruence_generated_stops_at_one_class(e3, monkeypatch):
    # the three pairs of e3 give 1_A after two merges; the translations are
    # read after the first merge only, since nothing can merge after the second
    maps = relations._translations(e3)
    reads = []

    class Counted(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    monkeypatch.setattr(relations, "_translations", lambda alg: Counted(maps))
    assert congruence_generated(e3, [(0, 2), (0, 1), (1, 2)]).is_one
    assert len(reads) == 1


def test_congruence_generated_multi(e3):
    assert congruence_generated(e3, [(0, 1), (1, 2)]).is_one
    assert congruence_generated(e3, []).is_zero
