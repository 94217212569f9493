import dataclasses
import inspect
import itertools
import random

import numpy as np
import pytest

from smbalg import (AlgebraError, CapExceeded, FiniteAlgebra, OperationTable,
                    Partition, PreconditionError, all_partitions,
                    commutator, congruence_generated, congruence_lattice,
                    congruence_violation, d_rel,
                    generate_subpower, is_abelian, is_congruence, matrix_set,
                    principal_congruence, product_algebra, push_partition,
                    quotient_algebra, random_algebra, random_semilattice,
                    subalgebra)
from smbalg import core, oracles, relations
from smbalg.oracles import (all_subuniverses, commutator_oracle,
                            compose_relations,
                            congruence_by_alternating_closure, eval_term,
                            unary_polynomials)
from smbalg.relations import GeneratedSet
from smbalg.constructions import (affine_block, example_b2, example_e3,
                                  example_s2)
from smbalg.pipeline import regularize

from conftest import decoded, glued, reference_term, regularized_glued


def nested_lists(table):
    """The table's values as nested lists, one level per argument."""
    return table.array.reshape((table.size,) * table.arity).tolist()


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
    trace replays, for each block bound with the visited bitmap and with
    the sorted keys (the cap patched to 0)."""
    want = closure_in_rounds(alg, k, gens)
    caps = (core.FAST_CLOSURE_SPACE_CAP, 0)
    with monkeypatch.context() as patch:
        for block, cap in itertools.product(blocks, caps):
            patch.setattr(core, "BLOCK_SIZE", block)
            patch.setattr(core, "FAST_CLOSURE_SPACE_CAP", cap)
            gen = generate_subpower(alg, k, gens)
            assert decoded(gen) == want, (alg.name, k, gens, block, cap)
            assert replay(alg, gen) == gen.rows.tolist()
    return want


def test_generate_subpower_matches_rounds(e3, b2, monkeypatch):
    # blocks of at most 5 or 7 combinations take the cut path of `_blocks`;
    # the power-63 case has keys up to 2**63 - 1
    cases = list(random_closure_cases())
    assert len(cases) > 50
    wide = [(1,) * 63, (0,) * 63, (1, 0) * 31 + (1,), (0, 1) * 31 + (0,)]
    diag3 = [(c, c) for c in range(3)]
    cases += [
        (b2, 63, wide),
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


def test_generate_subpower_order_is_checked():
    # two broken copies must each fail the differential test above: one that
    # traces a tuple to the last combination producing it for an operation
    # and position, not the first, and one that unravels a combination's
    # flat index with the first argument fastest, not the last
    source = inspect.getsource(relations._subpower_closure)
    for line, mutant in [
            ("keys, first = np.unique(np.concatenate(got), return_index=True)",
             "keys, first = np.unique(np.concatenate(got)[::-1], return_index=True); "
             "first = sum(map(len, got)) - 1 - first"),
            ("for i in reversed(range(arity)):", "for i in range(arity):")]:
        broken = source.replace(line, mutant)
        assert broken != source
        namespace = dict(vars(relations))
        exec(broken, namespace)
        exec(inspect.getsource(relations._generated_sets), namespace)
        exec(inspect.getsource(relations.generate_subpower), namespace)
        mismatches = 0
        for alg, k, gens in random_closure_cases():
            gen = namespace["generate_subpower"](alg, k, gens)
            mismatches += decoded(gen) != closure_in_rounds(alg, k, gens)
        assert mismatches > 0, line


def kernel_cases():
    """Seeded random tables of arity 1-3 for k = 1, 2 and 4, each with k
    element columns of 4-8 rows, argument 0 over a sorted subset of those
    rows that leaves out row 0 (so never a prefix, as the orbit
    representatives under `_KLEIN_GROUP`), and index ranges that start
    past 0: (table, k, n, head columns, columns, bounds)."""
    rng = random.Random(2323)
    for arity, k, n in itertools.product((1, 2, 3), (1, 2, 4), (2, 3, 5)):
        for _ in range(2):
            table = OperationTable(arity, n, [rng.randrange(n) for _ in range(n ** arity)])
            rows = rng.randrange(4, 9)
            columns = np.array([[rng.randrange(n) for _ in range(rows)] for _ in range(k)],
                               dtype=np.int64)
            heads = sorted(rng.sample(range(1, rows), rng.randrange(2, rows)))
            bounds = []
            for size in [len(heads)] + [rows] * (arity - 1):
                lo = rng.randrange(1, size)
                bounds.append((lo, rng.randrange(lo + 1, size + 1)))
            yield table, k, n, columns[:, heads], columns, bounds


def kernel_reference(table, k, n, heads, columns, bounds):
    """The keys of the box `bounds`, one combination at a time in
    lexicographic order: argument 0 from `heads`, the others from
    `columns`, coordinate c weighted by n**(k - 1 - c)."""
    keys = []
    for combo in itertools.product(*(range(lo, hi) for lo, hi in bounds)):
        args = [heads[:, combo[0]]] + [columns[:, i] for i in combo[1:]]
        keys.append(sum(n ** (k - 1 - c) * table.apply(*(int(a[c]) for a in args))
                        for c in range(k)))
    return keys


def kernel_mismatches(kernel, monkeypatch):
    """Cases where the keys of `kernel` over the boxes that `_blocks` cuts
    (each table laid out as `_subpower_closure` lays it out), taken in
    box order, differ from the reference; with whole boxes and with boxes
    of at most 6 combinations."""
    bad = cut = 0
    for block in (6, 1 << 20):
        monkeypatch.setattr(core, "BLOCK_SIZE", block)
        for table, k, n, heads, columns, bounds in kernel_cases():
            weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
            tables = (weights[:, None] * table.array).reshape(k, -1, n)
            boxes = list(core._blocks(bounds, k * n))
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
    # row values (k * n per leading combination) or keys, and the closures
    # stay exact: the traced D_{0,4} in A^2 and the Klein-orbit closure of
    # M(Cg(0, 1), 1_A) in A^4, on a regularized glued algebra of size 5
    alg, _ = regularized_glued(3, (2, 2, 1))
    n, block = alg.size, 64
    gens = [(0, 4), (4, 0)] + [(c, c) for c in range(n)]
    pairs = relations._spanning_pairs(alg, principal_congruence(alg, 0, 1))
    plain = relations._matrix_closure(alg, pairs, Partition.one(n)).tolist()
    kernel, calls = relations._apply_block, []

    def spy(tables, heads, columns, box, n):
        lead = int(np.prod([hi - lo for lo, hi in box[:-1]]))
        last = box[-1][1] - box[-1][0]
        calls.append((lead * len(tables) * n, lead * last, last < n))
        return kernel(tables, heads, columns, box, n)

    monkeypatch.setattr(core, "BLOCK_SIZE", block)
    monkeypatch.setattr(relations, "_apply_block", spy)
    assert_matches_rounds(generate_subpower(alg, 2, gens), alg, 2, gens)
    traced = len(calls)
    assert relations._matrix_closure(alg, pairs, Partition.one(n),
                                     relations._KLEIN_GROUP).tolist() == plain
    assert any(short for _, _, short in calls[:traced])
    assert any(short for _, _, short in calls[traced:])
    assert max(values for values, _, _ in calls) <= block
    assert max(keys for _, keys, _ in calls) <= block


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
    # with the visited bitmap and with the sorted keys (the cap patched to
    # 0), in whole boxes and in boxes of at most 5 combinations
    cases = list(lane_cases())
    assert len(cases) == 24 and any(len(set(map(tuple, lane))) < len(lane)
                                    for _, _, lanes in cases for lane in lanes)
    for block, cap in itertools.product((5, 1 << 20), (core.FAST_CLOSURE_SPACE_CAP, 0)):
        with monkeypatch.context() as patch:
            patch.setattr(core, "BLOCK_SIZE", block)
            patch.setattr(core, "FAST_CLOSURE_SPACE_CAP", cap)
            for alg, k, lanes in cases:
                assert_lanes_close_alone(alg, k, lanes)


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
    # with the visited bitmap and with the sorted keys (the cap patched to
    # 0), in whole boxes and in boxes of at most 5 combinations
    cases = list(lane_cases())
    cases += [(alg, k, [gens]) for alg, k, gens in random_closure_cases()]
    for block, cap in itertools.product((5, 1 << 20), (core.FAST_CLOSURE_SPACE_CAP, 0)):
        with monkeypatch.context() as patch:
            patch.setattr(core, "BLOCK_SIZE", block)
            patch.setattr(core, "FAST_CLOSURE_SPACE_CAP", cap)
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


def test_lane_keys_fit_int64(b2):
    # lane l's keys are l * n**k plus the tuple's value: three lanes of
    # 2**62 tuples do not fit in int64, refused before the generators are
    # read; two lanes do
    from smbalg import chain_semilattice
    chain = chain_semilattice(2)
    with pytest.raises(CapExceeded, match="int64"):
        relations._subpower_closure(chain, 62, [[(0,) * 62], [(1,) * 62], "not read"])
    wide = [(1, 0) * 31, (0, 1) * 31]
    lanes = [wide, [(0,) * 62, (1,) * 62]]
    assert_lanes_close_alone(b2, 62, lanes)


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


def test_symmetric_closure_matches_plain(monkeypatch):
    # over Klein-orbit representatives, with the visited bitmap and with the
    # sorted keys (the cap patched to 0), the closure is the plain one
    cases = list(symmetric_closure_cases())
    closure = relations._subpower_closure
    assert symmetric_mismatches(closure, relations._KLEIN_GROUP, cases) == 0
    monkeypatch.setattr(core, "FAST_CLOSURE_SPACE_CAP", 0)
    assert symmetric_mismatches(closure, relations._KLEIN_GROUP, cases[:30]) == 0


def test_symmetric_closure_is_checked():
    # two broken copies must each fail the test above: one that leaves a
    # box's new tuples unclosed under the group, and one that takes the
    # transpose (m11, m21, m12, m22) for the column swap
    source = inspect.getsource(relations._subpower_closure)
    line = "keys = np.unique(images, return_index=True)[0]"
    broken = source.replace(line, "pass")
    assert broken != source
    namespace = dict(vars(relations))
    exec(broken, namespace)
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
        relations._matrix_closure(e3, one_way, e3_sim, relations._KLEIN_GROUP)


def test_klein_path_keeps_the_plain_order():
    # one lane over orbit representatives: each round's new tuples are the
    # plain round's, G-closed and ascending, so the rows come out row for
    # row as in the plain rounds (checked against the reference loop
    # above), with no traces
    for alg, gens in symmetric_closure_cases():
        (rows, steps), = relations._subpower_closure(alg, 4, [gens], relations._KLEIN_GROUP)
        assert rows.tolist() == relations._subpower_closure(alg, 4, [gens])[0][0].tolist()
        assert steps is None


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
    # d_rel and polynomial_image_pairs for every pair a < b, and the unary
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
            assert_matches_rounds(d_rel(alg, a, b), alg, 2, [(a, b), (b, a)] + diag)
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
        for gen in (d_rel(alg, 0, alg.size - 1),
                    polynomial_image_pairs(alg, 0, alg.size - 1),
                    d_rel(alg, 0, alg.size // 2)):
            assert replay(alg, gen) == gen.rows.tolist()


def test_size_caps(monkeypatch):
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
    # keys are base-n integers: 2**64 tuples do not fit in int64, and the
    # cap is checked before the generators are read
    with pytest.raises(CapExceeded, match="int64"):
        generate_subpower(chain_semilattice(2), 64, [(0,) * 64])
    # matrix sets span A^4: 50**4 tuples are refused before the closure runs
    one = Partition.one(50)
    with pytest.raises(CapExceeded, match="closure cap"):
        commutator(chain_semilattice(50), one, one)


def test_closure_cap_is_read_from_core(monkeypatch, e3):
    # one cap, core's, read at call time, bounds the matrix closure too:
    # patched to 0 it refuses the commutator of a three-element algebra
    monkeypatch.setattr(relations, "_commutator", relations._commutator.__wrapped__)
    one = Partition.one(3)
    assert commutator(e3, one, one).is_one
    monkeypatch.setattr(core, "FAST_CLOSURE_SPACE_CAP", 0)
    with pytest.raises(CapExceeded, match="closure cap"):
        commutator(e3, one, one)


def test_principal_congruence_examples(e3):
    assert principal_congruence(e3, 0, 1) == Partition(3, (0, 0, 1))
    assert principal_congruence(e3, 0, 2).is_one
    assert principal_congruence(e3, 1, 1).is_zero


def test_principal_congruence_oracle(corpus):
    # least congruence containing (a, b), found by scanning all partitions
    for entry in corpus:
        alg = entry.algebra
        n = alg.size
        if n > 4:
            continue
        congruences = [p for p in all_partitions(n) if is_congruence(alg, p)]
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
        brute = [p for p in all_partitions(alg.size) if is_congruence(alg, p)]
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
        n = alg.size
        principals = {}
        for a in range(n):
            for b in range(a + 1, n):
                principals.setdefault(principal_congruence(alg, a, b), (a, b))
        members = congruence_lattice(alg).congruences
        lower = [0] * len(members)
        for _, j in definitional_covers(members):
            lower[j] += 1
        irreducible = {members[j] for j, k in enumerate(lower) if k == 1}
        assert set(relations._join_irreducibles(principals)) == irreducible, alg.name

    keep = relations._join_irreducibles

    def drop_last(principals):
        out = keep(principals)
        if out:
            out.popitem()
        return out

    monkeypatch.setattr(relations, "_join_irreducibles", drop_last)
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
    assert set(decoded(d_rel(e3, 0, 1))[0]) == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}
    assert set(decoded(d_rel(b2, 0, 1))[0]) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    diag = set(decoded(d_rel(e3, 1, 1))[0])
    assert diag == {(c, c) for c in range(3)}


def test_d_rel_inside_principal(corpus):
    for entry in corpus:
        alg = entry.algebra
        if alg.size > 5:
            continue
        for a in range(alg.size):
            for b in range(alg.size):
                cg = principal_congruence(alg, a, b)
                for u, v in d_rel(alg, a, b).rows.tolist():
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
    de3 = set(decoded(d_rel(e3, 0, 1))[0])
    assert compose_relations(de3, de3) == de3
    db2 = set(decoded(d_rel(b2, 0, 1))[0])
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
    assert is_abelian(e3, e3_sim)
    assert commutator(e3, zero3, one3).is_zero
    assert commutator(e3, one3, one3).is_one
    one2 = Partition.one(2)
    assert commutator(s2, one2, one2).is_one
    assert not is_abelian(s2, one2)
    assert commutator(b2, one2, one2).is_zero
    assert is_abelian(b2, one2)


def test_matrix_set_structure(e3, e3_sim):
    mats = matrix_set(e3, e3_sim, e3_sim)
    for m11, m12, m21, m22 in map(tuple, mats.tolist()):
        assert e3_sim.related(m11, m12) and e3_sim.related(m21, m22)
        assert e3_sim.related(m11, m21) and e3_sim.related(m12, m22)


def test_only_commutator_closes_over_orbits(e3, e3_sim, monkeypatch):
    # matrix_set, which the oracle reads, stays on the plain rounds, so the
    # oracle shares no orbit map with the commutator it checks
    seen = []
    closure = relations._subpower_closure

    def spy(alg, k, gens, group=()):
        seen.append(group)
        return closure(alg, k, gens, group)

    monkeypatch.setattr(relations, "_subpower_closure", spy)
    matrix_set(e3, e3_sim, e3_sim)
    commutator_oracle(e3, e3_sim, e3_sim)
    relations._commutator.__wrapped__(e3, e3_sim, e3_sim)
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
        return len(relations._matrix_closure(alg, pairs, one, relations._KLEIN_GROUP))

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


def test_congruence_generated_multi(e3):
    assert congruence_generated(e3, [(0, 1), (1, 2)]).is_one
    assert congruence_generated(e3, []).is_zero
