import inspect
import itertools
import random

import pytest

from smbalg import (AlgebraError, FiniteAlgebra, OperationTable, Partition,
                    PreconditionError, all_partitions, all_subuniverses,
                    commutator, commutator_oracle, compose_relations,
                    congruence_generated, congruence_lattice,
                    congruence_violation, d_rel, eval_term,
                    generate_subpower, is_abelian, is_congruence, matrix_set,
                    principal_congruence, product_algebra, push_partition,
                    quotient_algebra, random_algebra, random_semilattice,
                    subalgebra, unary_polynomials)
from smbalg import core, relations
from smbalg.relations import (GeneratedSet, congruence_by_alternating_closure,
                              subpower_closure_fast)
from smbalg.constructions import affine_block

from conftest import regularized_glued


def closure_in_rounds(alg, k, generators):
    """Reference closure in the element order of `subpower_closure_fast`:
    the generators sorted, then in each round every operation is applied
    to every argument combination and the new tuples come sorted."""
    elements = sorted(set(tuple(g) for g in generators))
    while True:
        current = set(elements)
        new = set()
        for table in alg.operations.values():
            for args in itertools.product(elements, repeat=table.arity):
                out = tuple(table.apply(*(a[c] for a in args)) for c in range(k))
                if out not in current:
                    new.add(out)
        if not new:
            return elements
        elements += sorted(new)


def brute_subpower(alg, k, generators):
    """Reference closure as a set."""
    return set(closure_in_rounds(alg, k, generators))


def test_generate_subpower_examples(e3, b2):
    diag3 = [(c, c) for c in range(3)]
    gen = generate_subpower(e3, 2, [(0, 1), (1, 0)] + diag3)
    expected = set(diag3) | {(0, 1), (1, 0)}
    assert gen.as_set() == expected
    assert gen.as_set() == brute_subpower(e3, 2, expected)

    gen2 = generate_subpower(b2, 2, [(c, c) for c in range(2)] + [(0, 1)])
    assert gen2.as_set() == {(0, 0), (1, 1), (0, 1), (1, 0)}
    assert gen2.as_set() == brute_subpower(b2, 2, [(0, 0), (1, 1), (0, 1)])

    for entry_a in range(3):
        single = generate_subpower(e3, 1, [(entry_a,)])
        assert single.as_set() == {(entry_a,)}


def test_generate_subpower_validation(e3):
    with pytest.raises(AlgebraError):
        generate_subpower(e3, 2, [])
    with pytest.raises(AlgebraError):
        generate_subpower(e3, 2, [(0, 3)])
    with pytest.raises(AlgebraError):
        generate_subpower(e3, 2, [(0,)])


def bfs_subpower(alg, k, generators):
    """Reference traced closure: the generators in order (duplicates
    dropped), then each element `cur` in turn against every argument tuple
    pre + (cur,) + post with pre below cur and post at most cur, one
    combination at a time.  Returns (elements, trace)."""
    elements, trace, index = [], [], {}
    for g in generators:
        g = tuple(g)
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
            trace.append(None)
    ops = [(sym, t.arity, t.nested) for sym, t in alg.operations.items()]
    processed = 0
    while processed < len(elements):
        cur = processed
        processed += 1
        for sym, arity, nested in ops:
            for pos in range(arity):
                for pre in itertools.product(range(cur), repeat=pos):
                    for post in itertools.product(range(cur + 1), repeat=arity - 1 - pos):
                        arg_idx = pre + (cur,) + post
                        args = [elements[j] for j in arg_idx]
                        out = []
                        for c in range(k):
                            t = nested
                            for a in args:
                                t = t[a[c]]
                            out.append(t)
                        tup = tuple(out)
                        if tup not in index:
                            index[tup] = len(elements)
                            elements.append(tup)
                            trace.append((sym, arg_idx))
    return tuple(elements), tuple(trace)


def replay(alg, gen):
    """Every element of `gen` recomputed from its trace, in index order; a
    parent must come before its child."""
    out = []
    for elem, step in zip(gen.elements, gen.trace):
        if step is None:
            out.append(elem)
            continue
        sym, parents = step
        assert all(p < len(out) for p in parents)
        table = alg.op(sym)
        out.append(tuple(table.apply(*(out[p][c] for p in parents))
                         for c in range(gen.power)))
    return out


def assert_matches_bfs(gen, alg, k, generators):
    assert (gen.elements, gen.trace) == bfs_subpower(alg, k, generators)
    assert replay(alg, gen) == list(gen.elements)


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


def test_generate_subpower_matches_bfs(b2, monkeypatch):
    # elements and traces equal tuple for tuple, with blocks of at most 7
    # combinations (the cut path of `_blocks`) and with the default bound;
    # the last case has keys up to 2**63 - 1
    cases = list(random_closure_cases())
    assert len(cases) > 50
    wide = [(1,) * 63, (0,) * 63, (1, 0) * 31 + (1,), (0, 1) * 31 + (0,)]
    cases.append((b2, 63, wide))
    for alg, k, gens in cases:
        for block in (7, 1 << 20):
            monkeypatch.setattr(core, "BLOCK_SIZE", block)
            assert_matches_bfs(generate_subpower(alg, k, gens), alg, k, gens)


def test_generate_subpower_order_is_checked(monkeypatch):
    # a copy that orders the candidates of one `cur` by key, not by
    # operation, position and place in the box, must fail the differential
    # test above
    source = inspect.getsource(relations.generate_subpower)
    broken = source.replace('np.argsort(cur, kind="stable")', "np.lexsort((found, cur))")
    assert broken != source
    namespace = dict(vars(relations))
    exec(broken, namespace)
    monkeypatch.setattr(core, "BLOCK_SIZE", 7)
    mismatches = sum(
        (namespace["generate_subpower"](alg, k, gens).elements
         != bfs_subpower(alg, k, gens)[0])
        for alg, k, gens in random_closure_cases())
    assert mismatches > 0


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
            assert_matches_bfs(d_rel(alg, a, b), alg, 2, [(a, b), (b, a)] + diag)
            assert_matches_bfs(polynomial_image_pairs(alg, a, b), alg, 2, [(a, b)] + diag)
        if not entry.has("smb"):
            continue
        gens = [tuple(range(n))] + [(c,) * n for c in range(n)]
        ref = GeneratedSet(n, *bfs_subpower(alg, n, gens))
        leaves = {0: Var(0)}
        for c in range(n):
            leaves.setdefault(ref.index[(c,) * n], Const(c))
        assert unary_polynomials(alg) == tuple(
            (elem, ref.term_for(i, leaves)) for i, elem in enumerate(ref.elements))


def test_trace_replay(corpus):
    from smbalg import polynomial_image_pairs
    for entry in corpus:
        alg = entry.algebra
        if alg.size > 6:
            continue
        for gen in (d_rel(alg, 0, alg.size - 1),
                    polynomial_image_pairs(alg, 0, alg.size - 1),
                    d_rel(alg, 0, alg.size // 2)):
            assert replay(alg, gen) == list(gen.elements)


def test_size_caps():
    from smbalg import CapExceeded, chain_semilattice
    with pytest.raises(CapExceeded, match="lattice"):
        congruence_lattice(chain_semilattice(11))
    with pytest.raises(CapExceeded, match="polynomial"):
        unary_polynomials(chain_semilattice(9))
    with pytest.raises(CapExceeded, match="subuniverse"):
        all_subuniverses(chain_semilattice(relations.SUBUNIVERSE_SIZE_CAP + 1))
    # keys are base-n integers: 2**64 tuples do not fit in int64, and the
    # cap is checked before the generators are read
    with pytest.raises(CapExceeded, match="int64"):
        generate_subpower(chain_semilattice(2), 64, [(0,) * 64])


def test_fast_closure_matches_traced(e3, b2, corpus):
    for alg, k, gens in [
        (e3, 2, [(0, 1), (1, 0), (0, 0), (1, 1), (2, 2)]),
        (b2, 2, [(0, 1), (0, 0), (1, 1)]),
        (e3, 4, [(0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1), (2, 2, 2, 2),
                 (0, 0, 0, 0), (1, 1, 1, 1)]),
    ]:
        fast = set(map(tuple, subpower_closure_fast(alg, k, gens).tolist()))
        slow = generate_subpower(alg, k, gens).as_set()
        assert fast == slow


def test_fast_closure_chunked(e3, monkeypatch):
    # a tiny block bound forces the block-splitting path through many
    # partial reads
    gens = [(a, a, b, b) for a in range(3) for b in range(3)] + \
           [(0, 1, 0, 1), (1, 0, 1, 0)]
    whole = set(map(tuple, subpower_closure_fast(e3, 4, gens).tolist()))
    with monkeypatch.context() as patch:
        patch.setattr(core, "BLOCK_SIZE", 5)
        tiny = set(map(tuple, subpower_closure_fast(e3, 4, gens).tolist()))
    assert whole == tiny
    assert whole == generate_subpower(e3, 4, gens).as_set()


def test_fast_closure_differential(e3, monkeypatch):
    # seeded random algebras: the set must match the traced engine for a
    # tiny block bound (many blocks) and the default one, and the element order
    # must be the documented one (generators sorted, then each round's new
    # tuples ascending)
    rng = random.Random(303)
    cases = [(n, arity, power) for arity in (1, 2, 3) for power in (1, 2, 3, 4)
             for n in (2, 3) if n ** (power * arity) <= 3 ** 8]
    for n, arity, power in cases:
        for _ in range(6):
            sig = {"f": arity, "g": rng.randrange(1, arity + 1)}
            alg = random_algebra(n, sig, rng.randrange(1 << 30))
            gens = [tuple(rng.randrange(n) for _ in range(power))
                    for _ in range(rng.randrange(1, 4))]
            traced = generate_subpower(alg, power, gens).as_set()
            ordered = closure_in_rounds(alg, power, gens)
            for block in (3, 1 << 20):
                monkeypatch.setattr(core, "BLOCK_SIZE", block)
                fast = subpower_closure_fast(alg, power, gens)
                assert fast.shape == (len(traced), power)
                assert list(map(tuple, fast.tolist())) == ordered
                assert set(ordered) == traced
    for bad in ([(0, 3)], [(0, -1)], [(0,)], []):
        with pytest.raises(AlgebraError):
            subpower_closure_fast(e3, 2, bad)


def test_matrix_set_matches_traced(monkeypatch):
    # M(sim, 1_A) of a regularized glued algebra of size 5, against the
    # traced engine
    alg, sim = regularized_glued(3, (3, 2))
    one = Partition.one(alg.size)
    gens = sorted({(a, a, b, b) for a, b in sim.pairs()}
                  | {(c, d, c, d) for c, d in one.pairs()})
    mats = list(map(tuple, matrix_set(alg, sim, one).tolist()))
    assert len(mats) == len(set(mats))
    assert set(mats) == generate_subpower(alg, 4, gens).as_set()
    monkeypatch.setattr(core, "BLOCK_SIZE", 7)
    tiny = subpower_closure_fast(alg, 4, gens)
    assert list(map(tuple, tiny.tolist())) == mats


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
    for entry in corpus:
        alg = entry.algebra
        if alg.size > 4:
            continue
        for a in range(alg.size):
            for b in range(a + 1, alg.size):
                assert congruence_by_alternating_closure(alg, [(a, b)]) == \
                    principal_congruence(alg, a, b)


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


def test_congruence_lattice_brute(e3, n4, corpus):
    """Members are exactly the partitions that are congruences, in the
    lattice's order, and covers are the definitional ones."""
    algebras = [e3, n4] + [e.algebra for e in corpus]
    algebras += [random_algebra(1 + seed % 6, {"wedge": 2, "d": 3}, seed)
                 for seed in range(24)]
    algebras += [random_semilattice(n, random.Random(n)) for n in range(1, 7)]
    for alg in algebras:
        lat = congruence_lattice(alg)
        brute = [p for p in all_partitions(alg.size) if is_congruence(alg, p)]
        assert list(lat.congruences) == sorted(
            brute, key=lambda p: (-p.num_classes, p.class_ids)), alg.name
        assert lat.covers == definitional_covers(lat.congruences), alg.name


def test_tree_semilattice_lattice_size():
    # the congruences are the partitions into connected subtrees, one for
    # each set of cut edges
    for n in range(1, 11):
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
        nested = table.nested
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


def test_d_rel_examples(e3, b2):
    assert d_rel(e3, 0, 1).as_set() == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}
    assert d_rel(b2, 0, 1).as_set() == {(0, 0), (0, 1), (1, 0), (1, 1)}
    diag = d_rel(e3, 1, 1).as_set()
    assert diag == {(c, c) for c in range(3)}


def test_d_rel_inside_principal(corpus):
    for entry in corpus:
        alg = entry.algebra
        if alg.size > 5:
            continue
        for a in range(alg.size):
            for b in range(alg.size):
                cg = principal_congruence(alg, a, b)
                for u, v in d_rel(alg, a, b).as_set():
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
                rel = generate_subpower(alg, 2, diag + list(extra)).as_set()
                assert all((b_, a_) in rel for a_, b_ in rel)
                assert all((a_, c_) in rel
                           for a_, b_ in rel for b2_, c_ in rel if b_ == b2_)


def test_compose_relations(e3, b2):
    delta = {(c, c) for c in range(3)}
    rel = {(0, 1), (2, 0)}
    assert compose_relations(delta, rel) == rel
    de3 = d_rel(e3, 0, 1).as_set()
    assert compose_relations(de3, de3) == de3
    db2 = d_rel(b2, 0, 1).as_set()
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
    prod = product_algebra(s2, s2)
    assert prod.size == 4
    assert prod.op("wedge").apply(1 * 2 + 0, 0 * 2 + 1) == 0  # (1,0)^(0,1) = (0,0)


# Reference table builders: the per-tuple loops over `nested` that the
# numpy versions in `relations` replaced.

def loop_translations(alg):
    n = alg.size
    out = []
    for table in alg.operations.values():
        arity = table.arity
        nested = table.nested
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
        nested = table.nested
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
        nested = table.nested
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
        na_nested, nb_nested = ta.nested, tb.nested
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
    with pytest.raises(PreconditionError):
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


def matrix_fixpoint(alg, alpha_pairs, beta_pairs):
    """The term-condition fixpoint over the closure of (a, a, b, b) for the
    given alpha-pairs and (c, d, c, d) for the given beta-pairs."""
    gens = sorted({(a, a, b, b) for a, b in alpha_pairs}
                  | {(c, d, c, d) for c, d in beta_pairs})
    return relations._term_condition_fixpoint(alg, subpower_closure_fast(alg, 4, gens))


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
            spanning = relations._spanning_pairs(alpha)
            beta_spanning = relations._spanning_pairs(beta) + diagonal
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
