import itertools
import random
import re

import pytest

from smbalg import (AlgebraError, App, ClassOrder, FalsificationError,
                    FiniteAlgebra, OperationTable, Partition, PreconditionError,
                    SmbReport, Var, affine_block, all_partitions, analyzer,
                    check_cgvsim,
                    check_identity, check_quasiidentity, check_regular,
                    check_regular_base, check_smb_over, check_undersim,
                    cgvsim_below, commutator_below_sim, congruence_lattice,
                    congruence_violation, count_biconditional, eval_term,
                    find_smb_congruences,
                    glue_smb, join_membership_chain, alternating_chain_fold,
                    principal_congruence, random_semilattice, recovered_sim,
                    regularize, smb_axioms, taylor_check, verify_cg_d3)
from smbalg.analyzer import BASE_IDENTITY_NAMES
from smbalg.constructions import random_algebra

from conftest import regularized_glued


def test_check_smb_over_examples(e3, b2, e3_sim):
    assert check_smb_over(e3, e3_sim).verdict
    assert check_smb_over(b2, Partition.one(2)).verdict
    report = check_smb_over(e3, Partition.zero(3))
    assert not report.verdict
    assert ("Comm-mod-sim", (0, 1)) in report.violations


def scan_smb_over(alg, sim):
    """Reference: the SMB check as a scan over classes and block pairs."""
    wedge, d = alg.op("wedge"), alg.op("d")
    violations = []
    for sym, table in alg.operations.items():
        for x in range(alg.size):
            if table.entries[table.index((x,) * table.arity)] != x:
                violations.append(("Idempotence", (sym, x)))
                break
    bad = congruence_violation(alg, sim)
    if bad is not None:
        violations.append(("Congruence", bad))
    ids = sim.class_ids
    blocks = sim.blocks()
    reps = [blk[0] for blk in blocks]
    m = len(reps)

    def qw(i, j):
        return ids[wedge.entries[wedge.index((reps[i], reps[j]))]]

    if bad is None:
        for i in range(m):
            if qw(i, i) != i:
                violations.append(("Idem-mod-sim", (reps[i],)))
        for i in range(m):
            for j in range(m):
                if qw(i, j) != qw(j, i):
                    violations.append(("Comm-mod-sim", (reps[i], reps[j])))
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if qw(qw(i, j), k) != qw(i, qw(j, k)):
                        violations.append(("Assoc-mod-sim", (reps[i], reps[j], reps[k])))
    for blk in blocks:
        for a in blk:
            for b in blk:
                if wedge.entries[wedge.index((a, b))] != b:
                    violations.append(("SecondProj", (a, b)))
        for x in blk:
            for y in blk:
                if d.entries[d.index((x, y, y))] != x:
                    violations.append(("Malcev", (x, y, y)))
                if d.entries[d.index((y, y, x))] != x:
                    violations.append(("Malcev", (y, y, x)))
    order = None
    if not violations:
        order = ClassOrder(tuple(blocks), frozenset(
            (i, j) for i in range(m) for j in range(m) if qw(i, j) == i))
    return SmbReport(not violations, sim, tuple(violations), order)


def _idempotent_diagonal(alg):
    ops = {}
    for sym, table in alg.operations.items():
        entries = list(table.entries)
        for x in range(alg.size):
            entries[table.index((x,) * table.arity)] = x
        ops[sym] = OperationTable(table.arity, alg.size, entries)
    return FiniteAlgebra(f"{alg.name}_idem", alg.size, ops)


def test_check_smb_over_matches_scan(corpus):
    # every partition of random {wedge/2, d/3} algebras (half of them with
    # an idempotent diagonal) and of the corpus, against the scan above
    algebras = [random_algebra(1 + seed % 5, {"wedge": 2, "d": 3}, seed)
                for seed in range(60)]
    algebras = [_idempotent_diagonal(a) if i % 2 else a for i, a in enumerate(algebras)]
    algebras += [e.algebra for e in corpus
                 if e.algebra.size <= 6 and e.algebra.has_op("wedge", 2)
                 and e.algebra.has_op("d", 3)]
    verdicts = set()
    for alg in algebras:
        for sim in all_partitions(alg.size):
            expected = scan_smb_over(alg, sim)
            assert check_smb_over(alg, sim) == expected, (alg.name, sim)
            verdicts.add(expected.verdict)
        lattice = congruence_lattice(alg)
        assert find_smb_congruences(alg) == [
            theta for theta in lattice if scan_smb_over(alg, theta).verdict], alg.name
    assert verdicts == {True, False}


def test_class_order_from_smb(e3, e3_sim):
    order = check_smb_over(e3, e3_sim).class_order
    assert order.classes == ((0, 1), (2,))
    assert order.le(1, 0) and not order.le(0, 1)
    assert order.least() == 1 and order.greatest() == 0


def test_find_smb_congruences(e3, b2, s2, e3_sim):
    assert find_smb_congruences(e3) == [e3_sim]
    assert Partition.zero(2) in find_smb_congruences(s2)
    assert find_smb_congruences(b2) == [Partition.one(2)]


def test_one_lattice_per_algebra():
    """check-smb, regularize and con on one algebra compute its lattice once."""
    tree = random_semilattice(3, random.Random(20221))
    blocks = {c: affine_block(s) for c, s in enumerate((2, 3, 2))}
    alg = glue_smb(tree, blocks, {0: 1, 1: 3, 2: 5}, name="glued7_once")
    misses = congruence_lattice.cache_info().misses
    assert find_smb_congruences(alg)
    regularize(alg)
    congruence_lattice(alg)
    assert congruence_lattice.cache_info().misses == misses + 1


def test_check_regular_examples(e3, b2, n4, e3_sim, n4_sim):
    assert check_regular(e3, e3_sim).holds
    assert check_regular(b2, Partition.one(2)).holds
    rep = check_regular(n4, n4_sim)
    assert not rep.holds
    assert rep.conditions["ii"].witness == (0, 2)
    assert rep.conditions["iv"].witness == (0, 2)
    assert eval_term(n4, App("wedge", (Var(0), Var(1))), (0, 2)) == 3


def test_check_regular_precondition(e3):
    with pytest.raises(PreconditionError, match="not SMB"):
        check_regular(e3, Partition.zero(3))


def test_regular_base_reports(e3, n4, e3_sim):
    base = check_regular_base(e3)
    assert base.holds and base.recovered_sim == e3_sim
    assert set(base.verdicts) == set(BASE_IDENTITY_NAMES)

    base4 = check_regular_base(n4)
    assert not base4.holds
    assert base4.verdicts["Regiv"].witness == (0, 2)
    assert base4.recovered_sim is None

    from smbalg import trivial_algebra
    one = trivial_algebra()
    b1 = check_regular_base(one)
    assert b1.holds and b1.recovered_sim.is_one


def test_recovered_sim_matches_block_partition(corpus):
    for entry in corpus:
        if entry.has("regular"):
            assert recovered_sim(entry.algebra) == entry.sim or \
                entry.algebra.size == 1


def test_taylor_check(e3, b2, n4):
    assert taylor_check(e3).holds
    assert taylor_check(b2).holds
    assert taylor_check(n4).holds  # SMB is enough; regularity not needed


def test_verify_cg_d3_examples(e3, e3_sim):
    res = verify_cg_d3(e3, 0, 1)
    assert res.relation == frozenset(e3_sim.pairs())
    assert set(res.chains) == set(e3_sim.pairs())
    res2 = verify_cg_d3(e3, 0, 2)
    assert res2.cg.is_one and len(res2.chains) == 9
    res3 = verify_cg_d3(e3, 1, 1)
    assert res3.cg.is_zero
    for (c, d), steps in res3.chains.items():
        assert c == d and len(steps) == 6


def test_verify_cg_d3_chain_replay(e3):
    a, b = 0, 2
    res = verify_cg_d3(e3, a, b)
    for (c, d), steps in res.chains.items():
        assert len(steps) == 6
        assert steps[0].lo == c and steps[-1].hi == d
        for s1, s2 in zip(steps, steps[1:]):
            assert s1.hi == s2.lo
        for step in steps:
            images = {eval_term(e3, step.poly, (a,)), eval_term(e3, step.poly, (b,))}
            assert images == {step.lo, step.hi}


def test_verify_cg_d3_needs_regular(n4):
    with pytest.raises(PreconditionError, match="regular base"):
        verify_cg_d3(n4, 0, 1)


def test_join_membership_chain(e3, e3_sim):
    chain = join_membership_chain(e3, e3_sim, 0, 1, 1, 0)
    assert chain.member
    assert chain.cs[0] == 1 and chain.ds[-1] == 0
    assert len(chain.cs) == len(chain.ds)
    for ci, di in zip(chain.cs, chain.ds):
        assert e3_sim.related(ci, di)

    trivial = join_membership_chain(e3, e3_sim, 0, 1, 2, 2)
    assert trivial.member and trivial.cs == (2,) and trivial.ds == (2,)

    assert not join_membership_chain(e3, e3_sim, 0, 0, 0, 2).member


def test_join_membership_chain_links(corpus):
    # every polynomial link {d_{i-1}, c_i} must be a unary image of {a, b}
    for entry in corpus:
        if not entry.has("regular") or entry.algebra.size > 4:
            continue
        alg = entry.algebra
        sim = entry.sim
        n = alg.size
        for a, b, c, d in itertools.product(range(n), repeat=4):
            chain = join_membership_chain(alg, sim, a, b, c, d)
            if not chain.member:
                continue
            for i, (term, pair) in enumerate(chain.steps):
                images = {eval_term(alg, term, (a,)), eval_term(alg, term, (b,))}
                assert images == {chain.ds[i], chain.cs[i + 1]}


def test_cgvsim_below_examples(e3):
    assert cgvsim_below(e3, 0, 1, 2, 2) == (2, 2)
    e, f = cgvsim_below(e3, 0, 1, 0, 1)
    assert e in (0, 1) and f in (0, 1)
    e, f = cgvsim_below(e3, 0, 2, 1, 2)
    assert e == 2 and f == 2
    with pytest.raises(PreconditionError, match="not in Cg"):
        cgvsim_below(e3, 0, 0, 0, 2)


def test_check_cgvsim_examples(e3):
    assert check_cgvsim(e3, 0, 1, 1, 0) is True
    assert check_cgvsim(e3, 0, 1, 2, 2) is True
    assert check_cgvsim(e3, 0, 0, 0, 2) is False


def test_check_undersim_examples(e3):
    assert check_undersim(e3, 0, 1, 0, 1) is True
    assert check_undersim(e3, 0, 0, 0, 2) is True
    assert check_undersim(e3, 0, 2, 0, 2) is False


def test_commutator_below_sim_examples(e3):
    assert commutator_below_sim(e3, 0, 1, 0, 1) is True
    assert commutator_below_sim(e3, 0, 0, 0, 2) is True
    assert commutator_below_sim(e3, 0, 2, 0, 2) is False


POINTWISE = {"cgvsim": check_cgvsim, "undersim": check_undersim,
             "commutator": commutator_below_sim}


def pointwise_count(alg, which):
    """Reference: the pointwise checker on every tuple of A^4, in
    lexicographic order, so the first FalsificationError is raised at the
    lexicographically least failing tuple."""
    checker = POINTWISE[which]
    return sum(checker(alg, *t) for t in itertools.product(range(alg.size), repeat=4))


# seeded regularized glued algebras of sizes 5 to 8
GLUED_SWEEP = ((11, (2, 2, 1)), (12, (3, 2)), (13, (2, 2, 2)), (14, (3, 2, 1)),
               (15, (2, 2, 2, 1)), (16, (3, 3, 1)), (17, (2, 3, 3)),
               (18, (3, 2, 2, 1)))


def test_count_biconditional_matches_pointwise(corpus, e3):
    glued = [regularized_glued(seed, sizes)[0] for seed, sizes in GLUED_SWEEP]
    assert {alg.size for alg in glued} == {5, 6, 7, 8}
    algebras = ([e.algebra for e in corpus if e.has("regular")] + [e3] + glued
                + [random_semilattice(n, random.Random(n)) for n in range(1, 9)])
    for alg in algebras:
        laws = ("cgvsim", "undersim") + (("commutator",) if alg.size <= 5 else ())
        for which in laws:
            assert count_biconditional(alg, which) == pointwise_count(alg, which), \
                (alg.name, which)


def assert_same_first_failure(alg, which):
    with pytest.raises(FalsificationError) as grouped:
        count_biconditional(alg, which)
    with pytest.raises(FalsificationError) as pointwise:
        pointwise_count(alg, which)
    assert str(grouped.value) == str(pointwise.value)


def break_context(monkeypatch, alg, shift_quotient=False, zero_sim=False):
    """Replace the regular context of `alg` by a broken copy: the class map
    composed with a cyclic shift of Q, or sim replaced by 0_A."""
    sim, quot, cmap = analyzer._regular_context(alg)
    if shift_quotient:
        cmap = tuple((c + 1) % quot.size for c in cmap)
    if zero_sim:
        sim = Partition.zero(alg.size)
    monkeypatch.setattr(analyzer, "_regular_context", lambda _: (sim, quot, cmap))


@pytest.mark.parametrize("which", ["undersim", "commutator"])
@pytest.mark.parametrize("alg", [
    random_semilattice(4, random.Random(4)),
    regularized_glued(15, (2, 2, 2, 1))[0],
], ids=["tree4", "glued7"])
def test_count_biconditional_permuted_quotient(monkeypatch, alg, which):
    break_context(monkeypatch, alg, shift_quotient=True)
    assert_same_first_failure(alg, which)


@pytest.mark.parametrize("which", ["undersim", "commutator"])
@pytest.mark.parametrize("broken", [
    lambda x, y: True,
    # only pairs that are never the first of their Cg_A group
    lambda x, y: x > y,
], ids=["all", "descending"])
def test_count_biconditional_zero_quotient_congruences(monkeypatch, e3, which, broken):
    # Cg_Q(x, y) is replaced by 0_Q
    _, quot, _ = analyzer._regular_context(e3)
    real = analyzer.principal_congruence
    monkeypatch.setattr(analyzer, "principal_congruence", lambda alg, a, b: (
        Partition.zero(alg.size) if alg is quot and broken(a, b) else real(alg, a, b)))
    assert_same_first_failure(e3, which)


def test_count_biconditional_commutator_stops_at_first_failure(monkeypatch):
    # as a per-tuple loop would, no commutator is computed for a pair of
    # inputs that first appears after the least failing tuple
    alg = random_semilattice(4, random.Random(4))
    break_context(monkeypatch, alg, shift_quotient=True)
    real = analyzer.commutator
    seen = []
    monkeypatch.setattr(analyzer, "commutator",
                        lambda alg, p, q: seen.append((p, q)) or real(alg, p, q))
    with pytest.raises(FalsificationError) as info:
        count_biconditional(alg, "commutator")
    failing = tuple(map(int, re.search(r"at \((\d+),(\d+),(\d+),(\d+)\)",
                                       str(info.value)).groups()))
    first = {}
    for pair in itertools.product(range(alg.size), repeat=2):
        first.setdefault(principal_congruence(alg, *pair), pair)
    assert seen and all(first[p] + first[q] <= failing for p, q in seen)


def test_count_biconditional_zero_sim(monkeypatch, e3):
    # cgvsim reads no quotient; joining with 0_A instead of sim breaks it
    break_context(monkeypatch, e3, zero_sim=True)
    assert_same_first_failure(e3, "cgvsim")


def test_count_biconditional_raises_without_pointwise(monkeypatch, e3):
    # a disagreement the pointwise checker does not confirm still raises
    break_context(monkeypatch, e3, zero_sim=True)
    monkeypatch.setitem(analyzer.BICONDITIONALS, "cgvsim", lambda *args: True)
    with pytest.raises(FalsificationError, match="pointwise check holds"):
        count_biconditional(e3, "cgvsim")


def test_count_biconditional_unknown_law(e3):
    with pytest.raises(AlgebraError, match="unknown biconditional"):
        count_biconditional(e3, "taylor")


def test_alternating_chain_fold_trivial(e3, e3_sim):
    res = alternating_chain_fold(e3, e3_sim, Partition.zero(3), [1, 1])
    assert res.element == 1 and res.holds
    res2 = alternating_chain_fold(e3, e3_sim, Partition.one(3), [0, 0, 2, 2])
    assert res2.element == 2 and res2.holds


def _alternating_chain(alg, sim, theta, a, b):
    """Breadth-first (sim, theta)-alternating chain from a to b."""
    prev = {a: None}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for u in frontier:
            for v in range(alg.size):
                if v in prev:
                    continue
                if sim.related(u, v) or theta.related(u, v):
                    prev[v] = (u, "sim" if sim.related(u, v) else "theta")
                    nxt.append(v)
        frontier = nxt
    if b not in prev:
        return None
    edges = []
    node = b
    while prev[node] is not None:
        u, kind = prev[node]
        edges.append((u, node, kind))
        node = u
    edges.reverse()
    cs, ds = [a], []
    current = a
    for u, v, kind in edges:
        if kind == "sim":
            current = v
        else:
            ds.append(current)
            cs.append(v)
            current = v
    ds.append(current)
    chain = []
    for ci, di in zip(cs, ds):
        chain += [ci, di]
    return chain


def test_alternating_chain_fold_sweep(corpus):
    for entry in corpus:
        if not entry.has("smb") or entry.algebra.size > 5:
            continue
        alg, sim = entry.algebra, entry.sim
        for theta in congruence_lattice(alg):
            join = sim.join(theta)
            for a in range(alg.size):
                for b in range(alg.size):
                    if not join.related(a, b):
                        continue
                    chain = _alternating_chain(alg, sim, theta, a, b)
                    assert chain is not None
                    res = alternating_chain_fold(alg, sim, theta, chain)
                    assert res.holds, (entry.name, theta, a, b, res.failures)


def test_alternating_chain_fold_n4(n4, n4_sim):
    theta = principal_congruence(n4, 2, 3)
    chain = _alternating_chain(n4, n4_sim, theta, 0, 1)
    res = alternating_chain_fold(n4, n4_sim, theta, chain)
    assert res.holds


def test_alternating_chain_fold_preconditions(e3, e3_sim):
    with pytest.raises(PreconditionError, match="theta-related"):
        alternating_chain_fold(e3, e3_sim, Partition.zero(3), [0, 0, 2, 2])
    with pytest.raises(PreconditionError, match="sim-related"):
        alternating_chain_fold(e3, e3_sim, Partition.one(3), [0, 2, 2, 2])


def test_smb_axioms_hold_on_smb_corpus(corpus):
    identities, quasis = smb_axioms()
    for entry in corpus:
        if not entry.has("smb") or entry.algebra.size > 5:
            continue
        for ident in identities.values():
            assert check_identity(entry.algebra, ident).holds, entry.name
        for quasi in quasis.values():
            assert check_quasiidentity(entry.algebra, quasi).holds, entry.name
