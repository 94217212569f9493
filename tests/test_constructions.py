import itertools
import time

import pytest

from smbalg import (AlgebraError, CapExceeded, CorpusSpec, FiniteAlgebra,
                    OperationTable, Partition, affine_block, build_corpus,
                    chain_semilattice, check_regular, check_regular_base,
                    check_smb_over, congruence_lattice, exhaustive_enumerate,
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


def test_extension_rejects_bad_input(n4, s2):
    with pytest.raises(AlgebraError, match="not a wnu"):
        extend_simple_type5(n4, "d")
    with pytest.raises(AlgebraError, match="arity"):
        extend_simple_type5(s2, "wedge")


def test_extension_above_closure_cap(monkeypatch):
    # 5**11 = 48.8 M entries, built one at a time: refused before any work,
    # even before the wnu check
    def no_work(table):
        raise AssertionError("the table was checked")
    monkeypatch.setattr(constructions, "table_flags", no_work)
    with pytest.raises(CapExceeded, match="beyond the cap"):
        extend_simple_type5(parity_algebra(11), "w")


def test_random_algebra_reproducible():
    a = random_algebra(3, {"wedge": 2, "d": 3}, 42)
    b = random_algebra(3, {"wedge": 2, "d": 3}, 42)
    c = random_algebra(3, {"wedge": 2, "d": 3}, 43)
    assert a == b and a != c


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
    import random as _random
    rng = _random.Random(3)
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

