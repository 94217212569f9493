import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smbalg import AlgebraError, Partition, all_partitions
from smbalg.partitions import star_pairs


def test_canonical_form():
    p = Partition(4, (7, 7, 3, 7))
    assert p.class_ids == (0, 0, 1, 0)
    assert str(p) == "0 1 3 | 2"


def test_parse_and_format():
    p = Partition.parse("0 1 | 2", 3)
    assert p.class_ids == (0, 0, 1)
    assert str(p) == "0 1 | 2"
    assert Partition.parse(str(p), 3) == p
    with pytest.raises(AlgebraError, match="missing"):
        Partition.parse("0 1", 3)
    with pytest.raises(AlgebraError, match="twice"):
        Partition.parse("0 1 | 1 2", 3)
    with pytest.raises(AlgebraError, match="out of range"):
        Partition.parse("0 1 | 3", 3)


@pytest.mark.parametrize("text", ["+0 1 | 2", "0 1_0 | 2", "0 1 | 2\u00b2", "0 -1 | 2"])
def test_parse_takes_decimal_elements_only(text):
    # `int` would take a sign, `_` and more, but `.alg` files and the CLI
    # write elements in decimal digits only
    with pytest.raises(AlgebraError, match="bad element .* in partition text"):
        Partition.parse(text, 11)


def test_zero_one_blocks():
    assert Partition.zero(3).blocks() == [(0,), (1,), (2,)]
    assert Partition.one(3).blocks() == [(0, 1, 2)]
    assert Partition.from_blocks(3, [[2], [0, 1]]) == Partition(3, (0, 0, 1))
    assert Partition.from_pairs(5, [(3, 1), (4, 3), (2, 0)]).class_ids == (0, 1, 0, 1, 1)
    with pytest.raises(AlgebraError, match=r"pair \(0, 3\) out of range 0..2"):
        Partition.from_pairs(3, [(1, 2), (0, 3)])


def test_join_meet_examples():
    p = Partition.parse("0 1 | 2", 3)
    q = Partition.parse("0 | 1 2", 3)
    assert p.join(q).is_one
    assert p.join(Partition.zero(3)) == p
    assert p.meet(q) == Partition.zero(3)
    with pytest.raises(AlgebraError, match="mismatch"):
        p.join(Partition.zero(4))


def test_join_is_transitive_closure_of_union():
    # on all 52 x 52 pairs of partitions of {0..4}, against Warshall's
    # closure of the union of the two relations as sets of pairs
    parts = list(all_partitions(5))
    for p in parts:
        for q in parts:
            rel = set(p.pairs()) | set(q.pairs())
            for k in range(5):
                for i in range(5):
                    for j in range(5):
                        if (i, k) in rel and (k, j) in rel:
                            rel.add((i, j))
            assert set(p.join(q).pairs()) == rel, (p, q)


def test_star_pairs_give_back_the_partition():
    # one non-trivial pair (first member of x's class, x) per element that
    # is not first in its class, and their least equivalence is p
    for n in range(1, 7):
        for p in all_partitions(n):
            star = star_pairs(p)
            assert Partition.from_pairs(n, star) == p, p
            assert all(a < b for a, b in star), p
            assert len(star) == n - p.num_classes, p


def test_refines():
    p = Partition(4, (0, 0, 1, 2))
    q = Partition(4, (0, 0, 1, 1))
    assert p.refines(q) and not q.refines(p)
    assert p <= q and p < q


partitions_3 = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(
    lambda ids: Partition(3, tuple(ids)))
partitions_5 = st.lists(st.integers(0, 4), min_size=5, max_size=5).map(
    lambda ids: Partition(5, tuple(ids)))


@settings(max_examples=200, deadline=None)
@given(partitions_5, partitions_5, partitions_5)
def test_lattice_laws(p, q, r):
    assert p.join(q) == q.join(p)
    assert p.meet(q) == q.meet(p)
    assert p.join(p) == p and p.meet(p) == p
    assert p.meet(q).refines(p) and p.refines(p.join(q))
    assert p.join(q.join(r)) == p.join(q).join(r)
    assert p.meet(q.meet(r)) == p.meet(q).meet(r)
    # absorption
    assert p.join(p.meet(q)) == p
    assert p.meet(p.join(q)) == p


@settings(max_examples=100, deadline=None)
@given(partitions_3)
def test_parse_round_trip(p):
    assert Partition.parse(str(p), 3) == p


def test_all_partitions_counts():
    # Bell numbers
    assert len(list(all_partitions(1))) == 1
    assert len(list(all_partitions(3))) == 5
    assert len(list(all_partitions(5))) == 52
    seen = set(all_partitions(4))
    assert len(seen) == 15


def test_all_partitions_refuses_an_empty_universe():
    for n in (0, -1):
        with pytest.raises(AlgebraError, match=f"partition size must be >= 1, got {n}$"):
            next(all_partitions(n))


def test_one_quick_find():
    # join, from_pairs and congruence_generated merge classes through the
    # one relabel comprehension `a if test else x for x in ...`, the one in
    # partitions._merged
    import smbalg
    found = []
    for path in sorted(Path(smbalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found += [(path.stem, func.name) for node in ast.walk(func)
                      if isinstance(node, (ast.ListComp, ast.GeneratorExp))
                      and isinstance(node.elt, ast.IfExp)
                      and isinstance(node.elt.orelse, ast.Name)
                      and any(isinstance(gen.target, ast.Name)
                              and gen.target.id == node.elt.orelse.id
                              for gen in node.generators)]
    assert found == [("partitions", "_merged")]
