import collections
import inspect
import itertools
import random
import time
import types

import pytest

from smbalg import (AlgebraError, CapExceeded, CorpusSpec, FalsificationError,
                    FiniteAlgebra, OperationTable, Partition, affine_block,
                    build_corpus, chain_semilattice, check_regular,
                    check_regular_base, check_smb_over, congruence_lattice,
                    example_b2, example_e3, example_s2, exhaustive_enumerate,
                    extend_simple_type5, glue_layout, glue_smb, random_algebra,
                    random_semilattice, table_flags, trivial_algebra)
from smbalg import constructions, relations
from smbalg.oracles import unary_polynomials

from conftest import parity_algebra


def test_example_e3_facts(e3, e3_sim):
    assert check_regular_base(e3).holds
    lat = congruence_lattice(e3)
    assert len(lat) == 3
    assert lat.covers == ((0, 1), (1, 2))
    assert lat.congruences[1] == e3_sim  # the middle congruence covers zero
    for vals, _ in unary_polynomials(e3):
        if len(set(vals)) > 1:
            assert 2 in vals


def test_n4_is_glued_and_not_regular(n4, n4_sim):
    assert check_smb_over(n4, n4_sim).verdict
    assert not check_regular(n4, n4_sim).holds
    assert n4.op("wedge").apply(0, 2) == 3
    assert not table_flags(n4.op("d")).wnu


def test_glue_one_block_is_b2(b2):
    point = FiniteAlgebra("pt", 1, {"wedge": OperationTable(2, 1, [0])})
    glued = glue_smb(point, {0: affine_block(2)})
    assert glued == b2


def test_glue_singleton_blocks_is_semilattice():
    sl = chain_semilattice(3)
    glued = glue_smb(sl, {c: trivial_algebra() for c in range(3)})
    assert glued.op("wedge") == sl.op("wedge")
    # d collapses to (x^y)^z
    w = sl.op("wedge")
    expected = [w.apply(w.apply(a, b), c)
                for a in range(3) for b in range(3) for c in range(3)]
    assert glued.op("d").entries == tuple(expected)
    assert check_regular(glued, Partition.zero(3)).holds


def test_glue_errors():
    sl = chain_semilattice(2)
    not_malcev = FiniteAlgebra("x", 2, {"d": OperationTable(3, 2, [0] * 8)})
    with pytest.raises(AlgebraError, match="Mal'cev"):
        glue_smb(sl, {0: not_malcev, 1: affine_block(1)})
    with pytest.raises(AlgebraError, match="representative"):
        glue_smb(sl, {0: affine_block(2), 1: affine_block(2)}, reps={0: 0, 1: 1})
    bad_sl = FiniteAlgebra("b", 2, {"wedge": OperationTable(2, 2, [0, 1, 0, 1])})
    with pytest.raises(AlgebraError, match="not a semilattice"):
        glue_smb(bad_sl, {0: affine_block(1), 1: affine_block(1)})


def test_glue_layout():
    sl = chain_semilattice(2)
    blocks = {0: affine_block(2), 1: affine_block(3)}
    assert glue_layout(sl, blocks) == Partition(5, (0, 0, 1, 1, 1))


def test_glue_layout_refuses_blocks_off_the_semilattice():
    # one check for both: glue_smb makes it after the semilattice check and
    # before the representatives
    sl = chain_semilattice(2)
    for blocks in ({0: affine_block(2)}, {0: affine_block(2), 2: affine_block(1)}):
        with pytest.raises(AlgebraError, match="blocks must be indexed by the semilattice"):
            glue_layout(sl, blocks)
        with pytest.raises(AlgebraError, match="blocks must be indexed by the semilattice"):
            glue_smb(sl, blocks, reps={})
    bad_sl = FiniteAlgebra("b", 2, {"wedge": OperationTable(2, 2, [0, 1, 0, 1])})
    with pytest.raises(AlgebraError, match="not a semilattice"):
        glue_smb(bad_sl, {0: affine_block(1)})


def test_extension_examples(b2):
    ext1 = extend_simple_type5(trivial_algebra(), "d")
    assert ext1.size == 4
    assert len(congruence_lattice(ext1)) == 2
    ext2 = extend_simple_type5(b2, "d")
    assert ext2.size == 5
    v = ext2.op("v")
    n, zero, s, top = 2, 2, 3, 4
    # absorbing zero
    for args in itertools.product(range(5), repeat=3):
        if zero in args:
            assert v.apply(*args) == zero
    # shift behavior on nearly unanimous tuples
    assert v.apply(s, s, 0) == 1          # s o a_1 = a_2
    assert v.apply(s, s, 1) == top        # s o a_n = a_{n+1}
    assert v.apply(0, 0, s) == 1          # a_1 o s = a_2
    assert v.apply(top, top, 0) == top    # a_{n+1} o a_i
    assert v.apply(0, 0, top) == s        # a_i o a_{n+1}
    assert v.apply(s, s, top) == zero     # s o a_{n+1}
    assert v.apply(top, top, s) == 0      # a_{n+1} o s = a_1
    # mixed non-nearly-unanimous evaluations collapse to zero
    assert v.apply(0, 1, s) == zero
    assert v.apply(s, top, 0) == zero


def test_extension_above_lattice_cap(monkeypatch):
    # size 11 is above the default lattice cap, yet the extension is
    # checked simple from its principal congruences alone
    ext = extend_simple_type5(chain_semilattice(8), "d")
    assert ext.size == 11
    monkeypatch.setattr(relations, "LATTICE_SIZE_CAP", 11)
    assert len(congruence_lattice(ext)) == 2


def test_extension_names_the_first_pair_that_is_not_simple(monkeypatch):
    # plant the principal table of the non-simple chain on four elements
    # under the extension of the one-element algebra: the message names the
    # least pair whose Cg is not 1_A, (0, 1) here, where the next part's
    # pair or the last failing pair would be another
    planted = chain_semilattice(4)
    failing = [(a, b) for a, b in itertools.combinations(range(4), 2)
               if not relations.congruence_generated(planted, [(a, b)]).is_one]
    assert failing[:2] == [(0, 1), (0, 2)] and failing[-1] == (2, 3)
    a, b = failing[0]
    read = []

    def table(alg):
        read.append(alg.size)
        return relations._principal_table.__wrapped__(planted)
    monkeypatch.setattr(constructions, "_principal_table",
                        types.SimpleNamespace(__wrapped__=table))
    cg = relations.congruence_generated(planted, [(a, b)])
    with pytest.raises(FalsificationError) as err:
        extend_simple_type5(trivial_algebra(), "d")
    assert str(err.value) == f"extension of 'one' is not simple: Cg({a}, {b}) = {cg}"
    assert read == [4]


def test_extension_generates_no_pair_congruence(monkeypatch, b2):
    # simplicity is read off one principal table, never pair by pair
    calls = []

    def spy(alg, pairs):
        calls.append(pairs)
        raise AssertionError("congruence_generated was called")
    monkeypatch.setattr(relations, "congruence_generated", spy)
    monkeypatch.setattr(constructions, "congruence_generated", spy, raising=False)
    assert extend_simple_type5(b2, "d").size == 5
    assert calls == []


def test_extension_rejects_bad_input(n4, s2):
    with pytest.raises(AlgebraError, match="not a wnu"):
        extend_simple_type5(n4, "d")
    with pytest.raises(AlgebraError, match="arity"):
        extend_simple_type5(s2, "wedge")


def test_extension_above_closure_cap(monkeypatch):
    # 5**11 = 48.8 M entries: refused before the table is filled, even
    # before the wnu check
    def no_work(table):
        raise AssertionError("the table was checked")
    monkeypatch.setattr(constructions, "table_flags", no_work)
    with pytest.raises(CapExceeded, match="beyond the cap"):
        extend_simple_type5(parity_algebra(11), "w")


def extension_reference(w):
    """The simple extension's table for the wnu table `w`, one argument
    tuple at a time: the unanimous value, zero for a zero argument, w on
    the original block, circ on the other nearly unanimous tuples and zero
    elsewhere."""
    n, k = w.size, w.arity
    zero, s, top = n, n + 1, n + 2

    def circ(r, t):
        if r == s:
            return (t + 1 if t + 1 < n else top) if t < n else zero
        if t == s:
            return (r + 1 if r + 1 < n else top) if r < n else 0
        return top if r == top else s

    entries = []
    for args in itertools.product(range(n + 3), repeat=k):
        counts = collections.Counter(args)
        if len(counts) == 1:
            entries.append(args[0])
        elif zero in counts:
            entries.append(zero)
        elif max(args) < n:
            entries.append(w.apply(*args))
        elif len(counts) == 2 and max(counts.values()) == k - 1:
            (r, _), (t, _) = counts.most_common()
            entries.append(circ(r, t))
        else:
            entries.append(zero)
    return tuple(entries)


def random_wnu(n, k, seed):
    """An idempotent k-ary wnu on n elements: one random binary table on
    the one-dissident patterns and random values elsewhere."""
    rng = random.Random(seed)
    binary = [rng.randrange(n) for _ in range(n * n)]
    entries = []
    for args in itertools.product(range(n), repeat=k):
        counts = collections.Counter(args)
        if len(counts) == 1:
            entries.append(args[0])
        elif len(counts) == 2 and max(counts.values()) == k - 1:
            (r, _), (t, _) = counts.most_common()
            entries.append(binary[r * n + t])
        else:
            entries.append(rng.randrange(n))
    return FiniteAlgebra(f"wnu{n}_{k}_{seed}", n, {"w": OperationTable(k, n, entries)})


@pytest.fixture(scope="module")
def extension_cases():
    """(algebra, wnu symbol, reference table): the corpus inputs and e3,
    and 60 random wnu tables covering n = 1..5 and arity 3 and 4."""
    inputs = [(alg, "d") for alg in (trivial_algebra(), example_b2(), example_s2(),
                                      chain_semilattice(3), example_e3())]
    inputs += [(random_wnu(1 + seed % 5, 3 + seed % 2, seed), "w") for seed in range(60)]
    return [(alg, sym, extension_reference(alg.op(sym))) for alg, sym in inputs]


def extension_mismatches(extend, cases):
    """The names of the cases whose table from `extend` is not the
    reference, or on which it raises FalsificationError."""
    bad = []
    for alg, sym, want in cases:
        try:
            got = extend(alg, sym).op("v").entries
        except FalsificationError:
            got = None
        if got != want:
            bad.append(alg.name)
    return bad


def test_extension_matches_reference(extension_cases):
    shapes = {(alg.size, alg.op(sym).arity) for alg, sym, _ in extension_cases}
    assert shapes >= set(itertools.product(range(1, 6), (3, 4)))
    assert extension_mismatches(extend_simple_type5, extension_cases) == []


def test_extension_fill_is_checked(extension_cases):
    # two broken copies must each fail the comparison above: one that
    # writes the dissident only at the last position, and one that also
    # fills the nearly unanimous tuples through zero
    source = inspect.getsource(constructions.extend_simple_type5)
    for line, mutant in [("for i in range(k):", "for i in range(k - 1, k):"),
                         ("[*range(n), s, top]", "range(size)")]:
        broken = source.replace(line, mutant)
        assert broken != source
        namespace = dict(vars(constructions))
        exec(broken, namespace)
        assert extension_mismatches(namespace["extend_simple_type5"], extension_cases), mutant


def semilattice_reference(size, rng):
    """The wedge table of `random_semilattice` from each element's path to
    the root, one pair at a time."""
    parents = [None] + [rng.randrange(i) for i in range(1, size)]
    paths = []
    for i in range(size):
        path = [i]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        paths.append(path)
    return tuple(next(x for x in paths[a] if x in set(paths[b]))
                 for a in range(size) for b in range(size))


def test_random_semilattice_matches_reference():
    # the same table from the same draws, and no other draw
    for seed in range(4):
        for size in range(1, 70):
            rng, ref = random.Random(seed), random.Random(seed)
            got = random_semilattice(size, rng).op("wedge").entries
            assert got == semilattice_reference(size, ref), (seed, size)
            assert rng.random() == ref.random()


@pytest.mark.parametrize("size", [0, -5])
def test_random_semilattice_size_below_one(size):
    with pytest.raises(AlgebraError, match=f"algebra size must be >= 1, got {size}"):
        random_semilattice(size, random.Random(0))


def test_random_algebra_reproducible():
    a = random_algebra(3, {"wedge": 2, "d": 3}, 42)
    b = random_algebra(3, {"wedge": 2, "d": 3}, 42)
    c = random_algebra(3, {"wedge": 2, "d": 3}, 43)
    assert a == b and a != c


def test_random_algebra_draws(monkeypatch):
    # the entries are the seeded draws, in signature order; an operation
    # past the cap is refused before the first draw
    rng = random.Random(7)
    want = [[rng.randrange(3) for _ in range(3 ** arity)] for arity in (2, 3)]
    alg = random_algebra(3, {"wedge": 2, "d": 3}, 7)
    assert [list(alg.op(sym).entries) for sym in ("wedge", "d")] == want
    real, draws = random.Random.randrange, []

    def spy(self, *args):
        draws.append(args)
        if len(draws) > 1000:
            raise AssertionError("random_algebra drew before the size check")
        return real(self, *args)
    monkeypatch.setattr(random.Random, "randrange", spy)
    with pytest.raises(CapExceeded, match="operation 'w' would have 2\\^33 entries"):
        random_algebra(2, {"f": 2, "w": 33}, 0)
    assert draws == []


def test_exhaustive_enumerate():
    algs = list(exhaustive_enumerate(2, {"wedge": 2, "d": 3}))
    assert len(algs) == 2 ** 4 * 2 ** 8
    assert len({a for a in algs}) == 4096
    # 20**(20**3) and 2**(2**(10**9)) algebras are refused too, at once:
    # the count, with too many digits to print or to compute, is not formed
    for n, signature in ((3, {"wedge": 2, "d": 3}), (20, {"w": 3}), (2, {"w": 10 ** 9})):
        start = time.perf_counter()
        with pytest.raises(AlgebraError, match="infeasible"):
            next(exhaustive_enumerate(n, signature))
        assert time.perf_counter() - start < 1.0


def test_random_semilattice_is_semilattice():
    rng = random.Random(3)
    for size in (2, 4, 6):
        sl = random_semilattice(size, rng)
        w = sl.op("wedge")
        for a in range(size):
            assert w.apply(a, a) == a
            for b in range(size):
                assert w.apply(a, b) == w.apply(b, a)
                for c in range(size):
                    assert w.apply(w.apply(a, b), c) == w.apply(a, w.apply(b, c))


def test_corpus_deterministic(corpus):
    again = build_corpus()
    assert [e.name for e in again] == [e.name for e in corpus]
    assert all(x.algebra == y.algebra for x, y in zip(again, corpus))
    assert all(x.tags == y.tags for x, y in zip(again, corpus))


@pytest.mark.parametrize("max_size", [1, 2, 3, 4])
def test_corpus_max_size_bounds_every_entry(max_size):
    # the fixed examples and the random algebras are built at every
    # max_size; none above it is listed
    entries = build_corpus(CorpusSpec(max_size=max_size))
    assert entries
    assert all(e.algebra.size <= max_size for e in entries), \
        [(e.name, e.algebra.size) for e in entries if e.algebra.size > max_size]


def test_corpus_shape(corpus):
    regular = [e for e in corpus if e.has("regular")]
    assert len(regular) >= 20
    assert {e.algebra.size for e in regular} == set(range(1, 9))
    glued = [e for e in corpus if e.has("glued")]
    assert len(glued) >= 10
    for e in glued:
        assert check_smb_over(e.algebra, e.sim).verdict
        assert not check_regular(e.algebra, e.sim).holds
    assert len([e for e in corpus if e.has("extension")]) >= 5

