import dataclasses
import functools
import itertools
import json
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

from smbalg import (AlgebraError, App, ClassOrder, Const, FalsificationError,
                    FiniteAlgebra, OperationTable, Partition, PreconditionError,
                    SmbReport, Var, affine_block, all_partitions, analyzer,
                    chain_semilattice, check_cgvsim, check_identities, check_regular,
                    check_regular_base, check_smb_over, check_undersim,
                    cgvsim_below, commutator_below_sim, congruence_lattice,
                    congruence_violation, count_biconditional, core, d_rels,
                    find_smb_congruences,
                    glue_smb, join_membership_chain, alternating_chain_fold,
                    principal_congruence, quotient_algebra, random_semilattice,
                    recovered_sim, regularize, smb_axioms, taylor_check,
                    verify_cg_d3_pairs)
from smbalg.analyzer import BASE_IDENTITY_NAMES
from smbalg.cli import main
from smbalg.constructions import random_algebra
from smbalg.dsl import format_algebra
from smbalg.oracles import (compose_relations, eval_term, smb_congruences_by_lattice,
                            substitute)
from smbalg import relations
from smbalg.relations import GeneratedSet

from conftest import decoded, reference_term, regularized_glued


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
        order = ClassOrder(tuple(blocks), tuple(
            tuple(qw(i, j) == i for j in range(m)) for i in range(m)))
    return SmbReport(not violations, sim, tuple(violations), order)


def _idempotent_diagonal(alg):
    ops = {}
    for sym, table in alg.operations.items():
        entries = list(table.entries)
        for x in range(alg.size):
            entries[table.index((x,) * table.arity)] = x
        ops[sym] = OperationTable(table.arity, alg.size, entries)
    return FiniteAlgebra(f"{alg.name}_idem", alg.size, ops)


def _table_algebra(name, n, wedge, d):
    """{wedge/2, d/3} on n elements from the functions wedge(a, b) and d(a, b, c)."""
    pairs = itertools.product(range(n), repeat=2)
    triples = itertools.product(range(n), repeat=3)
    return FiniteAlgebra(name, n, {
        "wedge": OperationTable(2, n, [wedge(a, b) for a, b in pairs]),
        "d": OperationTable(3, n, [d(a, b, c) for a, b, c in triples])})


# idempotent, with 0 R 1 and 1 R 2 but 0 ^ 2 = 0: R is not transitive
INTRANSITIVE = _table_algebra(
    "intransitive3", 3, lambda a, b: a if (a, b) == (0, 2) else b,
    lambda a, b, c: a)
# SMB over 0 1 | 2 by every check except the congruence test: d(0, 0, 2) = 0
# and d(1, 0, 2) = 2 separate the class of 0 from the class of 2
NOT_CONGRUENCE = _table_algebra(
    "notcongruence3", 3, lambda a, b: b if 2 not in (a, b) else 2,
    lambda a, b, c: ((a + b + c) % 2 if 2 not in (a, b, c)
                     else 0 if (a, b, c) == (0, 0, 2) else 2))


def _expected_exit(alg):
    """Where find_smb_congruences must stop, from independent scans:
    "idempotence", "transitivity", "congruence", "conditions" or "smb"."""
    if any(table.entries[table.index((x,) * table.arity)] != x
           for table in alg.operations.values() for x in range(alg.size)):
        return "idempotence"
    n = alg.size
    w = alg.op("wedge")
    rel = {(a, b) for a in range(n) for b in range(n)
           if w.apply(a, b) == b and w.apply(b, a) == a}
    if any((a, c) not in rel for a, b in rel for b2, c in rel if b == b2):
        return "transitivity"
    sim = Partition.from_pairs(n, rel)
    if sim not in congruence_lattice(alg):
        return "congruence"
    return "smb" if scan_smb_over(alg, sim).verdict else "conditions"


def test_check_smb_over_matches_scan(corpus, monkeypatch):
    # every partition of random {wedge/2, d/3} algebras (half of them with
    # an idempotent diagonal), of the corpus and of the two tables above,
    # against the scan above; find_smb_congruences against the scan over
    # the lattice, stopping at the expected check, and every check is the
    # last one reached on some input
    algebras = [random_algebra(1 + seed % 5, {"wedge": 2, "d": 3}, seed)
                for seed in range(60)]
    algebras = [_idempotent_diagonal(a) if i % 2 else a for i, a in enumerate(algebras)]
    algebras += [e.algebra for e in corpus
                 if e.algebra.size <= 6 and e.algebra.has_op("wedge", 2)
                 and e.algebra.has_op("d", 3)]
    algebras += [INTRANSITIVE, NOT_CONGRUENCE]
    # the congruence and conditions exits end inside check_smb_over over R,
    # told apart by its first violation
    reached = []
    real_relation, real_check = analyzer._wedge_relation, analyzer.check_smb_over

    def relation_spy(*args):
        reached.append("_wedge_relation")
        return real_relation(*args)

    def check_spy(*args):
        report = real_check(*args)
        rules = [rule for rule, _ in report.violations]
        reached.append("congruence" if rules[:1] == ["Congruence"]
                       else "conditions" if rules else "smb")
        return report

    monkeypatch.setattr(analyzer, "_wedge_relation", relation_spy)
    monkeypatch.setattr(analyzer, "check_smb_over", check_spy)
    last_check = {(): "idempotence", ("_wedge_relation",): "transitivity"}
    for stop in ("congruence", "conditions", "smb"):
        last_check[("_wedge_relation", stop)] = stop
    verdicts = set()
    exits = set()
    for alg in algebras:
        for sim in all_partitions(alg.size):
            expected = scan_smb_over(alg, sim)
            assert check_smb_over(alg, sim) == expected, (alg.name, sim)
            verdicts.add(expected.verdict)
        lattice = congruence_lattice(alg)
        reached.clear()
        found = find_smb_congruences(alg)
        path = tuple(reached)
        assert found == [
            theta for theta in lattice if scan_smb_over(alg, theta).verdict], alg.name
        assert found == smb_congruences_by_lattice(alg), alg.name
        stop = last_check.get(path)
        assert (stop == "smb") == bool(found), (alg.name, path)
        assert stop == _expected_exit(alg), (alg.name, path)
        exits.add(stop)
    assert verdicts == {True, False}
    assert exits == {"idempotence", "transitivity", "congruence", "conditions", "smb"}
    assert _expected_exit(INTRANSITIVE) == "transitivity"
    assert _expected_exit(NOT_CONGRUENCE) == "congruence"


def test_class_order_from_smb(e3, e3_sim):
    order = check_smb_over(e3, e3_sim).class_order
    assert order.classes == ((0, 1), (2,))
    assert order.le(1, 0) and not order.le(0, 1)
    assert order.least() == 1 and order.greatest() == 0


def _order_queries_loop(m, pairs):
    """Reference: (least, greatest, glb_closed, is_partial_order) of the
    relation `pairs` on range(m) by the loop definitions."""
    least = next((i for i in range(m) if all((i, j) in pairs for j in range(m))), None)
    greatest = next((j for j in range(m) if all((i, j) in pairs for i in range(m))), None)

    def glb(i, j):
        lower = [k for k in range(m) if (k, i) in pairs and (k, j) in pairs]
        return next((k for k in lower if all((l, k) in pairs for l in lower)), None)

    closed = all(glb(i, j) is not None for i in range(m) for j in range(m))
    partial = (all((i, i) in pairs for i in range(m))
               and all(i == j for i, j in pairs if (j, i) in pairs)
               and all((i, k) in pairs for i, j in pairs for jj, k in pairs if j == jj))
    return least, greatest, closed, partial


def test_class_order_queries_match_loops():
    # random relations, and random preorders (reflexive-transitive
    # closures), which are glb-closed often enough to test both answers
    rng = random.Random(24)
    seen = set()
    for trial in range(1500):
        m = rng.randint(1, 6)
        leq = np.array([[rng.random() < 0.5 for _ in range(m)] for _ in range(m)])
        if trial % 2:
            leq |= np.eye(m, dtype=bool)
            for k in range(m):
                leq |= leq[:, k, None] & leq[k]
        pairs = {(i, j) for i, j in np.argwhere(leq).tolist()}
        order = ClassOrder(tuple((i,) for i in range(m)), tuple(map(tuple, leq.tolist())))
        assert all(order.le(i, j) == ((i, j) in pairs) for i in range(m) for j in range(m))
        expected = _order_queries_loop(m, pairs)
        assert (order.least(), order.greatest(), order.glb_closed(),
                order.is_partial_order()) == expected, leq
        seen.add(expected[2:])
    assert {closed for closed, _ in seen} == {partial for _, partial in seen} == {True, False}


def test_find_smb_congruences(e3, b2, s2, e3_sim):
    assert find_smb_congruences(e3) == [e3_sim]
    assert find_smb_congruences(s2) == [Partition.zero(2)]
    assert find_smb_congruences(b2) == [Partition.one(2)]


def test_one_lattice_per_algebra(tmp_path, capsys, monkeypatch):
    """Recognition and regularization build no congruence lattice; con
    builds it once."""
    builds = []

    def spy(alg):
        builds.append(alg.name)
        return congruence_lattice(alg)
    for name, mod in list(sys.modules.items()):
        if name.startswith("smbalg") and \
                getattr(mod, "congruence_lattice", None) is congruence_lattice:
            monkeypatch.setattr(mod, "congruence_lattice", spy)
    tree = random_semilattice(3, random.Random(20221))
    blocks = {c: affine_block(s) for c, s in enumerate((2, 3, 2))}
    alg = glue_smb(tree, blocks, {0: 1, 1: 3, 2: 5}, name="glued7_once")
    path = tmp_path / "glued7_once.alg"
    path.write_text(format_algebra(alg), encoding="utf-8")
    assert main(["check-smb", str(path), "--json"]) == 0
    assert main(["regularize", str(path), "-o", str(tmp_path / "reg.alg")]) == 0
    assert builds == []
    assert main(["con", str(path), "--json"]) == 0
    assert builds == ["glued7_once"]
    capsys.readouterr()


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


def test_check_regular_command_checks_smb_once(corpus, e3, tmp_path, monkeypatch,
                                               capsys):
    """check-regular takes sim and the class order from recognition, which
    returns the report of check_smb_over over R, so the regularity report
    is check_regular's, and the command runs check_smb_over once."""
    for entry in corpus:
        alg = entry.algebra
        if not (alg.has_op("wedge", 2) and alg.has_op("d", 3)):
            continue
        report = analyzer._smb_congruence(alg)
        assert find_smb_congruences(alg) == ([] if report is None else [report.sim]), \
            alg.name
        if report is not None:
            assert report == check_smb_over(alg, report.sim), alg.name
            assert analyzer._regular_conditions(alg, report.sim, report.class_order) == \
                check_regular(alg, report.sim), alg.name
    calls = []
    monkeypatch.setattr(analyzer, "check_smb_over",
                        lambda *args: calls.append(args) or check_smb_over(*args))
    path = tmp_path / "e3.alg"
    path.write_text(format_algebra(e3), encoding="utf-8")
    assert main(["check-regular", str(path), "--json"]) == 0
    capsys.readouterr()
    assert calls == [(e3, Partition(3, (0, 0, 1)))]


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


def _with_op(alg, sym, arity, entries):
    return FiniteAlgebra(alg.name, alg.size,
                         {**alg.operations, sym: OperationTable(arity, alg.size, entries)})


def test_regular_base_other_operations(e3, e3_sim, monkeypatch):
    # the base speaks of wedge and d only: another operation that is not
    # compatible with sim, or not idempotent, is a precondition failure
    for alg, rule in ((_with_op(e3, "f", 2, [0, 2, 0, 2, 1, 1, 0, 1, 2]), "Congruence"),
                      (_with_op(e3, "g", 1, [1, 1, 2]), "Idempotence")):
        with pytest.raises(PreconditionError, match=f"other than 'wedge' and 'd'.*{rule}"):
            check_regular_base(alg)
    # a compatible idempotent one changes nothing
    base = check_regular_base(_with_op(e3, "f", 2, [0, 0, 0, 1, 1, 1, 2, 2, 2]))
    assert base.holds and base.recovered_sim == e3_sim
    # a {wedge, d} reduct that fails SMB is still a falsification
    failing = SmbReport(False, e3_sim, (("Malcev", (0, 1, 1)),), None)
    monkeypatch.setattr(analyzer, "check_smb_over", lambda alg, sim: failing)
    for alg in (e3, _with_op(e3, "f", 2, [0, 2, 0, 2, 1, 1, 0, 1, 2])):
        with pytest.raises(FalsificationError, match="SMB fails over the recovered sim"):
            check_regular_base.__wrapped__(alg)


def test_regular_base_checks_each_identity_once(corpus, monkeypatch):
    # twelve names, Mal bundling two: all thirteen identities in one kernel
    # pass, and the cross-check reuses Regiii and Regiv, so its own pass
    # holds only the two terms of condition (i)
    identities = [i for idents in analyzer.regular_base_identities().values() for i in idents]
    assert len(set(identities)) == 13
    x, y, z = Var(0), Var(1), Var(2)
    base = core._identity_program(identities)
    assert len(base.roots) == 26 and base.sides == (2,) * 13
    cond_i = core._compile([App("d", (x, y, z)), App("wedge", (App("wedge", (x, y)), z))], 3)
    passes = []
    real = core._term_boxes
    for module in (core, analyzer):
        monkeypatch.setattr(module, "_term_boxes",
                            lambda alg, program: passes.append(program) or real(alg, program))
    for entry in corpus:
        if entry.has("regular"):
            passes.clear()
            assert check_regular_base.__wrapped__(entry.algebra).holds, entry.name
            assert passes == [base, cond_i], entry.name


def test_regular_base_carries_the_quotient(corpus, n4):
    for entry in corpus:
        if entry.has("regular"):
            base = check_regular_base(entry.algebra)
            assert (base.quotient, base.class_map) == \
                quotient_algebra(entry.algebra, base.recovered_sim), entry.name
            assert set(base.as_dict()) == {"verdict", "identities", "sim"}
    base = check_regular_base(n4)
    assert not base.holds and base.quotient is None and base.class_map is None


def test_regular_base_checks_sim_once(corpus, monkeypatch):
    # check_smb_over finds the recovered sim a congruence, and A/sim is
    # built from it unchecked: one congruence_violation call per base
    calls = []
    for mod in (analyzer, relations):
        real = mod.congruence_violation
        monkeypatch.setattr(mod, "congruence_violation",
                            lambda *args, _real=real: calls.append(args) or _real(*args))
    regular = [entry.algebra for entry in corpus if entry.has("regular")]
    for alg in regular + [regularized_glued(15, (2, 2, 2, 1))[0]]:
        calls.clear()
        base = check_regular_base.__wrapped__(alg)
        assert base.holds and calls == [(alg, base.recovered_sim)], alg.name


def test_witness_commands_build_the_quotient_once(tmp_path, monkeypatch, capsys):
    alg, _ = regularized_glued(29, (2, 3, 2))
    path = tmp_path / "regular.alg"
    path.write_text(format_algebra(alg), encoding="utf-8")
    check_regular_base.cache_clear()
    calls = []
    real = analyzer._quotient
    monkeypatch.setattr(analyzer, "_quotient",
                        lambda *args: calls.append(args) or real(*args))
    for which in ("cg-d3", "cgvsim", "undersim"):     # each parses the file afresh
        assert main(["verify", which, str(path), "--json"]) == 0, which
    capsys.readouterr()
    assert len(calls) == 1


def test_regular_base_cross_check_condition_ii(e3, monkeypatch):
    # a class order relating every pair breaks (ii) once the base holds
    real = analyzer.check_smb_over

    def everything_related(alg, sim):
        report = real(alg, sim)
        m = len(report.class_order.classes)
        return dataclasses.replace(report, class_order=ClassOrder(
            report.class_order.classes, ((True,) * m,) * m))

    monkeypatch.setattr(analyzer, "check_smb_over", everything_related)
    with pytest.raises(FalsificationError, match=r"condition\(s\) \['ii'\] fail"):
        check_regular_base.__wrapped__(e3)


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
    res = verify_cg_d3_pairs(e3, [(0, 1)])[0]
    assert res.relation == frozenset(e3_sim.pairs())
    assert set(res.chains) == set(e3_sim.pairs())
    res2 = verify_cg_d3_pairs(e3, [(0, 2)])[0]
    assert res2.cg.is_one and len(res2.chains) == 9
    res3 = verify_cg_d3_pairs(e3, [(1, 1)])[0]
    assert res3.cg.is_zero
    for (c, d), steps in res3.chains.items():
        assert c == d and len(steps) == 6


def regular_pairs(corpus, max_size=None):
    """(alg, a, b) for each regular corpus entry, of size at most max_size
    when it is given, and each a <= b."""
    for entry in corpus:
        alg = entry.algebra
        if entry.has("regular") and (max_size is None or alg.size <= max_size):
            for a in range(alg.size):
                for b in range(a, alg.size):
                    yield alg, a, b


def test_verify_cg_d3_chain_replay(corpus):
    # each chain links c to d through D-pairs at the least midpoints, each
    # step replays at a and b, and a D-pair's steps are shared by its chains
    for alg, a, b in regular_pairs(corpus, 6):
        res = verify_cg_d3_pairs(alg, [(a, b)])[0]
        dpairs = set(decoded(d_rels(alg, [(a, b)])[0])[0])
        d2 = compose_relations(dpairs, dpairs)
        shared = {}
        for (c, d), steps in res.chains.items():
            assert len(steps) == 6
            assert steps[0].lo == c and steps[-1].hi == d
            for s1, s2 in zip(steps, steps[1:]):
                assert s1.hi == s2.lo
            e4 = min(e for e in range(alg.size) if (c, e) in d2 and (e, d) in dpairs)
            e2 = min(e for e in range(alg.size) if (c, e) in dpairs and (e, e4) in dpairs)
            assert (steps[1].hi, steps[3].hi) == (e2, e4), (alg.name, a, b, c, d)
            for left, right in zip(steps[0::2], steps[1::2]):
                assert (left.lo, right.hi) in dpairs
                first = shared.setdefault((left.lo, right.hi), (left, right))
                assert first[0] is left and first[1] is right
            for step in steps:
                images = {eval_term(alg, step.poly, (a,)), eval_term(alg, step.poly, (b,))}
                assert images == {step.lo, step.hi}, (alg.name, a, b, c, d)


def test_verify_cg_d3_relation_matches_composition(corpus):
    for alg, a, b in regular_pairs(corpus):
        dpairs = set(decoded(d_rels(alg, [(a, b)])[0])[0])
        d3 = compose_relations(compose_relations(dpairs, dpairs), dpairs)
        assert verify_cg_d3_pairs(alg, [(a, b)])[0].relation == d3, (alg.name, a, b)


def reference_d_leaves(dset, a, b):
    """Index-keyed leaves of a D-relation: the first generator (a, b) as
    Var(0), the first (b, a) as Var(1), any other (c, c) as Const(c)."""
    leaves = {}
    for i, (elem, (o, *_)) in enumerate(zip(dset.rows.tolist(), dset.steps.tolist())):
        if o >= 0:
            continue
        if elem == [a, b] and Var(0) not in leaves.values():
            leaves[i] = Var(0)
        elif elem == [b, a] and Var(1) not in leaves.values():
            leaves[i] = Var(1)
        else:
            leaves[i] = Const(elem[0])
    return leaves


def test_terms_match_substituted_reference(corpus):
    # the step polynomials q(a, x) and q(x, a) of verify_cg_d3_pairs, for every
    # element of every D-relation of the regular corpus, against the term
    # over Var(0) = (a, b) and Var(1) = (b, a) with the variables
    # substituted; each builder's subterms are one object across its calls
    elements = repeated = 0
    for alg, a, b in regular_pairs(corpus):
        dset = d_rels(alg, [(a, b)])[0]
        leaves = reference_d_leaves(dset, a, b)
        dpairs, trace = decoded(dset)
        links = {pair: pair for pair in dpairs}      # each D-pair its own chain
        steps, = analyzer._d_pair_steps(alg, [(dset, a, b, links)])
        polys = [tuple(step.poly for step in steps[pair]) for pair in dpairs]
        for i, (left, right) in enumerate(polys):
            q = reference_term(dset, i, leaves)
            assert left == substitute(q, {0: Const(a), 1: Var(0)}), (alg.name, a, b, i)
            assert right == substitute(q, {1: Const(a)}), (alg.name, a, b, i)
            if trace[i] is not None:
                parents = trace[i][1]
                for side in (0, 1):
                    assert all(arg is polys[p][side]
                               for arg, p in zip(polys[i][side].args, parents))
                repeated += len(set(parents)) < len(parents)
        elements += len(dset)
    assert elements == 3693 and repeated > 0


def test_terms_refuse_unnamed_generators(e3):
    # a generator that is neither named nor constant has no leaf term
    dset = d_rels(e3, [(0, 2)])[0]
    assert dset.terms({(0, 2): Var(0), (2, 0): Var(1)})(0) == Var(0)
    with pytest.raises(AlgebraError, match="no leaf term supplied for generator index 1"):
        dset.terms({(0, 2): Var(0)})(1)


def test_verify_cg_d3_rejects_wrong_mid(e3, monkeypatch):
    # the two builders swapped, so the left step is q(x, a) in place of
    # q(a, x): its images are {mid, v}, not {u, mid}
    real = GeneratedSet.terms

    def swapped(self, variables):
        keys = list(variables)
        return real(self, dict(zip(keys, reversed([variables[k] for k in keys]))))

    monkeypatch.setattr(GeneratedSet, "terms", swapped)
    with pytest.raises(FalsificationError, match="does not replay"):
        verify_cg_d3_pairs(e3, [(0, 1)])[0]


def test_verify_cg_d3_rejects_wrong_kernel_value(e3, monkeypatch):
    # the kernel misreports one step polynomial: the first D-pair's q(a, x);
    # the base is checked beforehand, so only the chain replay reads it
    def off_by_one(alg, program):
        for box, values in core._term_boxes(alg, program):
            yield box, [(values[0] + 1) % alg.size, *values[1:]]

    check_regular_base(e3)
    monkeypatch.setattr(analyzer, "_term_boxes", off_by_one)
    with pytest.raises(FalsificationError, match="does not replay"):
        verify_cg_d3_pairs(e3, [(0, 1)])[0]


def test_verify_cg_d3_rejects_dropped_d_pair(e3, monkeypatch):
    # D_{0,1} on e3 is its five generators; without (1, 0), D^3 misses (1, 0),
    # so the chain for (1, 0) of Cg(0,1) has a link off D
    full = d_rels(e3, [(0, 1)])[0]
    assert (full.steps == -1).all()
    keep = (full.rows != (1, 0)).any(axis=1)
    dropped = GeneratedSet(full.symbols, full.rows[keep], full.steps[keep])
    monkeypatch.setattr(analyzer, "d_rels", lambda alg, pairs: [dropped])
    message = ("witness chain for (1,0) leaves D_(0,1) on 'e3': its links are (1,0), (0,0) "
               "and (0,0)")
    with pytest.raises(FalsificationError, match=re.escape(message)):
        verify_cg_d3_pairs(e3, [(0, 1)])[0]


def patch_cg(patch, pair, cg):
    """`analyzer._principal_table` reads `cg` for the generator pair `pair`,
    as one more row, and the true congruence for every other pair."""
    real = analyzer._principal_table

    def planted(alg):
        labels, firsts, index = real(alg)
        index = index.copy()
        index[pair] = index[pair[::-1]] = len(labels)
        return np.vstack([labels, cg.class_ids]), firsts, index
    patch.setattr(analyzer, "_principal_table", planted)


def assert_cg_d3_falsified(e3, tmp_path, capsys, pair, message):
    """`verify cg-d3` on e3 exits 3 with `message`, and the library call on
    `pair` alone raises it."""
    code, out, err = verify_cg_d3_cli(e3, tmp_path / "e3.alg", capsys)
    assert (code, out, err) == (3, "", f"falsification: {message}\n")
    with pytest.raises(FalsificationError, match=re.escape(message)):
        analyzer.verify_cg_d3_pairs(e3, [pair])


def test_verify_cg_d3_rejects_cg_below_d(e3, tmp_path, monkeypatch, capsys):
    # Cg(0,1) read as 0_A: D_(0,1) holds (0,1), which is not in it
    patch_cg(monkeypatch, (0, 1), Partition.zero(3))
    assert_cg_d3_falsified(e3, tmp_path, capsys, (0, 1),
                           "element (0,1) of D_(0,1) on 'e3' is not in Cg(0,1)")


def test_verify_cg_d3_rejects_cg_above_d3(e3, tmp_path, monkeypatch, capsys):
    # Cg(0,0) read as 1_A: D_(0,0) is the diagonal, so no chain through it
    # links two distinct elements
    patch_cg(monkeypatch, (0, 0), Partition.one(3))
    assert_cg_d3_falsified(e3, tmp_path, capsys, (0, 0),
                           "witness chain for (0,1) leaves D_(0,0) on 'e3': its links "
                           "are (0,0), (0,0) and (0,1)")


def regularized_shapes():
    """Three regularized glued algebras, of sizes 5, 6 and 7."""
    return [regularized_glued(seed, sizes)[0]
            for seed, sizes in ((3, (3, 2)), (5, (2, 2, 2)), (7, (3, 2, 2)))]


def test_verify_cg_d3_pairs_match_one_pair_calls(corpus):
    # all a <= b in one call, against one call per pair: the same relation,
    # congruence and chains, pair for pair
    algebras = [e.algebra for e in corpus if e.has("regular")] + regularized_shapes()
    total = 0
    for alg in algebras:
        n = alg.size
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        results = analyzer.verify_cg_d3_pairs(alg, pairs)
        assert len(results) == len(pairs)
        for (a, b), res in zip(pairs, results):
            one = verify_cg_d3_pairs(alg, [(a, b)])[0]
            assert (res.a, res.b, res.cg, res.relation) == (one.a, one.b, one.cg, one.relation)
            assert res.chains == one.chains, (alg.name, a, b)
            total += len(res.chains)
    assert total > 1000
    assert analyzer.verify_cg_d3_pairs(algebras[0], []) == []


def test_midpoints_chunked_match_unchunked(corpus, monkeypatch):
    # the least midpoints at the related pairs of every D-relation stack,
    # in chunks of less than one pair's n candidates, of one pair or of a
    # few pairs, equal those of one whole chunk and the per-pair rule of
    # the chain replay test
    for alg in [e.algebra for e in corpus if e.has("regular")][:6] + regularized_shapes()[:1]:
        n = alg.size
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        dm = np.zeros((len(pairs), n, n), dtype=bool)
        for l, dset in enumerate(analyzer.d_rels(alg, pairs)):
            for u, v in dset.rows.tolist():
                dm[l, u, v] = True
        d2 = dm @ dm
        ids = np.array([principal_congruence(alg, a, b).class_ids for a, b in pairs])
        related = np.nonzero(ids[:, :, None] == ids[:, None, :])
        whole = analyzer._midpoints(dm, d2, *related)
        for block in (1, n, 3 * n + 1):
            with monkeypatch.context() as patch:
                patch.setattr(core, "BLOCK_SIZE", block)
                chunked = analyzer._midpoints(dm, d2, *related)
            assert all(np.array_equal(x, y) for x, y in zip(whole, chunked)), (alg.name, block)
        for l, c, d, m2, m4 in zip(*related, *whole):
            want4 = min(e for e in range(n) if d2[l, c, e] and dm[l, e, d])
            want2 = min(e for e in range(n) if dm[l, c, e] and dm[l, e, want4])
            assert (m2, m4) == (want2, want4)


def break_pairs(monkeypatch, cg_at=(), replay_at=()):
    """Patch `analyzer.d_rels`: the D-relation D_{a,b} at each index in
    `cg_at` loses its generator (b, a), so its array check fails, and the
    two step builders of each index in `replay_at` swap their variables,
    so its first step does not replay."""
    real, terms = analyzer.d_rels, GeneratedSet.terms
    swapped = []

    def d_rels(alg, pairs):
        out = real(alg, pairs)
        for i in cg_at:
            a, b = pairs[i]
            keep = (out[i].rows != (b, a)).any(axis=1)
            out[i] = GeneratedSet(out[i].symbols, out[i].rows[keep], out[i].steps[keep])
        swapped.extend(out[i] for i in replay_at)
        return out

    def swap(self, variables):
        if any(self is dset for dset in swapped):
            keys = list(variables)
            variables = dict(zip(keys, reversed([variables[k] for k in keys])))
        return terms(self, variables)

    monkeypatch.setattr(analyzer, "d_rels", d_rels)
    monkeypatch.setattr(GeneratedSet, "terms", swap)


def test_verify_cg_d3_pairs_error_order(e3, monkeypatch):
    # an array failure of any pair comes before a chain-term failure of any
    # pair, and among failures of one kind the first pair in the given
    # order raises; dropping a row of D_(0,2) shifts the parent indices of
    # its later steps, so one of them does not replay
    pairs = [(0, 1), (0, 2)]
    cases = [
        ([1], [0], "element (1,2) of D_(0,2) on 'e3' does not replay: its step "
                   "gives (2,2)"),
        ([0], [1], "witness chain for (1,0) leaves D_(0,1) on 'e3': its links are "
                   "(1,0), (0,0) and (0,0)"),
        ([1], [1], "element (1,2) of D_(0,2) on 'e3' does not replay: its step "
                   "gives (2,2)"),
        ([], [1], "witness chain for (0,1) does not replay: step 0-0 has "
                  "polynomial images [0, 2]"),
    ]
    for cg_at, replay_at, message in cases:
        with monkeypatch.context() as patch:
            break_pairs(patch, cg_at, replay_at)
            with pytest.raises(FalsificationError, match=re.escape(message)):
                analyzer.verify_cg_d3_pairs(e3, pairs)
    assert len(analyzer.verify_cg_d3_pairs(e3, pairs)) == 2


def cg_d3_algebras(corpus):
    """The regular corpus, `regularized_shapes()` and a 10-element tree."""
    return ([e.algebra for e in corpus if e.has("regular")] + regularized_shapes()
            + [random_semilattice(10, random.Random(10))])


def verify_cg_d3_cli(alg, path, capsys) -> tuple:
    """(exit code, stdout, stderr) of `verify cg-d3 --json` on alg, written to path."""
    path.write_text(format_algebra(alg), encoding="utf-8")
    code = main(["verify", "cg-d3", str(path), "--json"])
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_cg_d3_counts_the_library_chains(corpus, tmp_path, capsys):
    # the array check's count is the number of chains the library builds
    for alg in cg_d3_algebras(corpus):
        n = alg.size
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        want = sum(len(result.chains) for result in analyzer.verify_cg_d3_pairs(alg, pairs))
        code, out, _ = verify_cg_d3_cli(alg, tmp_path / "a.alg", capsys)
        assert (code, json.loads(out)) == (0, {"verdict": True, "pairs": want}), alg.name


def test_cli_cg_d3_builds_no_terms(corpus, tmp_path, monkeypatch, capsys):
    # with the base checked beforehand, the command builds and evaluates no
    # term; the library path, spied the same way, does
    calls = []
    terms, boxes = GeneratedSet.terms, core._term_boxes
    monkeypatch.setattr(GeneratedSet, "terms",
                        lambda *args: calls.append("terms") or terms(*args))
    for module in (core, analyzer):
        monkeypatch.setattr(module, "_term_boxes",
                            lambda *args: calls.append("boxes") or boxes(*args))
    for alg in cg_d3_algebras(corpus)[-2:]:
        check_regular_base(alg)
        calls.clear()
        assert verify_cg_d3_cli(alg, tmp_path / "a.alg", capsys)[0] == 0
        assert calls == [], alg.name
        analyzer.verify_cg_d3_pairs(alg, [(0, 1)])
        assert set(calls) == {"terms", "boxes"}


def test_check_cg_d3_keeps_each_array_once(monkeypatch):
    # D as one boolean stack and the chains as five int16 columns: on
    # chain_semilattice(30) (465 pairs, 85,870 chains) the check peaks at
    # 4.6 MiB; with intp chain columns it peaked at 7.1 MiB, and with an
    # int64 index stack and a stacked copy of the chains at 13.6 MiB.  The
    # D-relations are computed beforehand and the caches warmed, so the
    # closure's boxes do not set the peak
    n = 30
    alg = chain_semilattice(n)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    dsets = d_rels(alg, pairs)
    monkeypatch.setattr(analyzer, "d_rels", lambda *_: dsets)
    analyzer._check_cg_d3(alg, pairs)
    tracemalloc.start()
    try:
        _, chains = analyzer._check_cg_d3(alg, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak
    assert len(chains[0]) == 85870


def misreport_one_value(patch):
    """The first derived element's step gives a wrong first coordinate."""
    real = analyzer.step_values

    def step_values(alg, sets):
        gives, late = real(alg, sets)
        i = np.flatnonzero(np.concatenate([s.steps[:, 0] for s in sets]) >= 0)[0]
        gives[i, 0] = (gives[i, 0] + 1) % alg.size
        return gives, late

    patch.setattr(analyzer, "step_values", step_values)


def rewrite_step(patch, step):
    """D_(0,2) of e3 gets `step` for its element 5, (1, 2), derived from
    elements 0, 0 and 3 at the parent."""
    real = analyzer.d_rels

    def d_rels(alg, pairs):
        out = real(alg, pairs)
        l = list(pairs).index((0, 2))
        steps = out[l].steps.copy()
        steps[5] = step
        out[l] = GeneratedSet(out[l].symbols, out[l].rows, steps)
        return out

    patch.setattr(analyzer, "d_rels", d_rels)


def parent_after_child(patch):
    rewrite_step(patch, [0, 0, 6, 3])


def derived_as_generator(patch):
    rewrite_step(patch, [-1, -1, -1, -1])


def link_off_d(patch):
    """Every e2 midpoint moves up by one, mod n."""
    real = analyzer._midpoints

    def midpoints(dm, d2, *related):
        e2, e4 = real(dm, d2, *related)
        return (e2 + 1) % dm.shape[1], e4

    patch.setattr(analyzer, "_midpoints", midpoints)


def test_cg_d3_replay_mutants_exit_3(e3, tmp_path, monkeypatch, capsys):
    # each broken replay raises FalsificationError, in the command (exit 3)
    # and in the library
    cases = [
        (misreport_one_value,
         "element (1,2) of D_(0,2) on 'e3' does not replay: its step gives (2,2)"),
        (parent_after_child,
         "element (1,2) of D_(0,2) on 'e3' reads a parent not evaluated before it"),
        (derived_as_generator,
         "element (1,2) of D_(0,2) on 'e3' is a generator but not (0,2), (2,0) or diagonal"),
        (link_off_d,
         "witness chain for (0,0) leaves D_(0,0) on 'e3': its links are (0,1), (1,0) "
         "and (0,0)"),
    ]
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    for mutate, message in cases:
        with monkeypatch.context() as patch:
            mutate(patch)
            code, out, err = verify_cg_d3_cli(e3, tmp_path / "e3.alg", capsys)
            assert (code, out, err) == (3, "", f"falsification: {message}\n")
            with pytest.raises(FalsificationError, match=re.escape(message)):
                analyzer.verify_cg_d3_pairs(e3, pairs)
    assert verify_cg_d3_cli(e3, tmp_path / "e3.alg", capsys)[0] == 0


def test_verify_cg_d3_needs_regular(n4):
    with pytest.raises(PreconditionError, match="regular base"):
        verify_cg_d3_pairs(n4, [(0, 1)])[0]


def test_join_membership_chain(e3, e3_sim):
    chain, trivial = join_membership_chain(e3, e3_sim, 0, 1, [(1, 0), (2, 2)])
    assert chain.member
    assert chain.cs[0] == 1 and chain.ds[-1] == 0
    assert len(chain.cs) == len(chain.ds)
    for ci, di in zip(chain.cs, chain.ds):
        assert e3_sim.related(ci, di)

    assert trivial.member and trivial.cs == (2,) and trivial.ds == (2,)

    assert [c.member for c in join_membership_chain(e3, e3_sim, 0, 0, [(0, 2)])] == [False]
    assert join_membership_chain(e3, e3_sim, 0, 1, []) == []


def test_join_chains_close_once_per_generator_pair(monkeypatch, corpus):
    # the polynomial image pairs of {a, b} are closed, and sim checked, once
    # for all pairs (c, d) of one (a, b), and each chain equals the one a
    # call for its pair alone gives
    calls = {"polynomial_image_pairs": 0, "_check_congruences": 0}
    for name in calls:
        real = getattr(analyzer, name)
        monkeypatch.setattr(analyzer, name, lambda *args, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*args))
    entry = next(entry for entry in corpus if entry.has("regularized") and entry.algebra.size == 5)
    alg, sim = entry.algebra, entry.sim
    pairs = list(itertools.product(range(alg.size), repeat=2))
    for a, b in [(0, 1), (3, 2)]:
        chains = join_membership_chain(alg, sim, a, b, pairs)
        assert calls == {"polynomial_image_pairs": 1, "_check_congruences": 1}
        members = [pair for pair, chain in zip(pairs, chains) if chain.member]
        assert len(cgvsim_below(alg, a, b, members)) == len(members) > alg.size
        assert calls == {"polynomial_image_pairs": 2, "_check_congruences": 2}
        assert chains == [join_membership_chain(alg, sim, a, b, [pair])[0] for pair in pairs]
        calls.update(dict.fromkeys(calls, 0))


def class_distance(pg, sim, c, d):
    """Fewest polynomial image pairs linking the sim-class of c to that of
    d, by relaxing every pair of `pg.rows` until nothing changes."""
    ids = sim.class_ids
    dist = {ids[c]: 0}
    changed = True
    while changed:
        changed = False
        for u, v in pg.rows.tolist():
            for x, y in ((ids[u], ids[v]), (ids[v], ids[u])):
                if x in dist and dist[x] + 1 < dist.get(y, len(ids)):
                    dist[y] = dist[x] + 1
                    changed = True
    return dist.get(ids[d])


def test_join_membership_chain_links(corpus):
    # every polynomial link {d_{i-1}, c_i} must be a unary image of {a, b},
    # and a chain has the fewest links between the classes of c and d
    inputs = [(entry.algebra, entry.sim) for entry in corpus
              if entry.has("regular") and entry.algebra.size <= 4]
    inputs += [regularized_glued(3, (2, 2, 1)), regularized_glued(3, (2, 2, 2))]
    for alg, sim in inputs:
        n = alg.size
        pairs = list(itertools.product(range(n), repeat=2))
        for a, b in pairs:
            pg = relations.polynomial_image_pairs(alg, a, b)
            for (c, d), chain in zip(pairs, join_membership_chain(alg, sim, a, b, pairs)):
                if not chain.member:
                    continue
                assert chain.cs[0] == c and chain.ds[-1] == d
                assert len(chain.cs) == len(chain.ds) == len(chain.steps) + 1
                assert all(sim.related(ci, di) for ci, di in zip(chain.cs, chain.ds))
                assert len(chain.steps) == class_distance(pg, sim, c, d)
                for i, (term, pair) in enumerate(chain.steps):
                    assert pair == (chain.ds[i], chain.cs[i + 1])
                    images = {eval_term(alg, term, (a,)), eval_term(alg, term, (b,))}
                    assert images == {chain.ds[i], chain.cs[i + 1]}


@pytest.mark.parametrize("wrong, args, member", [
    (Partition.one(3), (0, 0, 0, 2), False),    # no link leaves the class {0, 1}
    (Partition.zero(3), (0, 2, 0, 2), True),    # linked by (0, 2), though 0 !~ 2
], ids=["one", "zero"])
def test_join_membership_chain_cross_check(monkeypatch, e3, e3_sim, wrong, args, member):
    # reachability over the polynomial links is checked against the join
    # Cg(a,b) v sim computed apart: a wrong principal congruence, 1_A or
    # 0_A, makes the two disagree and raises
    a, b, c, d = args
    assert join_membership_chain(e3, e3_sim, a, b, [(c, d)])[0].member == member
    monkeypatch.setattr(analyzer, "principal_congruence", lambda alg, a, b: wrong)
    with pytest.raises(FalsificationError, match="reachability disagree"):
        join_membership_chain(e3, e3_sim, a, b, [(c, d)])


def test_cgvsim_below_examples(e3):
    (e, f), same = cgvsim_below(e3, 0, 1, [(0, 1), (2, 2)])
    assert e in (0, 1) and f in (0, 1) and same == (2, 2)
    assert cgvsim_below(e3, 0, 2, [(1, 2)]) == [(2, 2)]
    with pytest.raises(PreconditionError, match=r"\(0,2\) is not in Cg\(0,0\)"):
        cgvsim_below(e3, 0, 0, [(0, 0), (0, 2)])


def fold_witnesses(alg, chain, right):
    """(e, f) folded with wedge over a join chain: each next element the
    left argument, e = c_k^(..^c_0) and f = d_0^(..^d_k), when `right`,
    else the left-nested e = (c_0^..)^c_k and f = (d_k^..)^d_0."""
    wedge = alg.op("wedge").apply
    step = (lambda acc, x: wedge(x, acc)) if right else wedge
    return (functools.reduce(step, chain.cs[1:], chain.cs[0]),
            functools.reduce(step, reversed(chain.ds[:-1]), chain.ds[-1]))


def lowers(alg, sim, cg, c, d, e, f):
    """(c, e) and (d, f) in cg, e ~ f, and [e] below both [c] and [d]."""
    ids, wedge = sim.class_ids, alg.op("wedge").apply
    return (cg.related(c, e) and cg.related(d, f) and sim.related(e, f)
            and ids[wedge(e, c)] == ids[e] == ids[wedge(e, d)])


def test_cgvsim_below_sweep(corpus, monkeypatch):
    # every (a, b, c, d) with (c, d) in Cg(a, b) v sim on the regularized
    # corpus up to n = 5, one call per (a, b): the witnesses are the folds
    # with each next element on the left over the chains the function read,
    # and have the lowering properties, checked here apart; the left-nested
    # folds break them somewhere, so the nesting is tested
    chains, real = [], analyzer.join_membership_chain
    monkeypatch.setattr(analyzer, "join_membership_chain",
                        lambda *args: chains.append(real(*args)) or chains[-1])
    tuples = broken = 0
    for entry in corpus:
        alg, sim = entry.algebra, entry.sim
        if not (entry.has("regularized") and alg.size <= 5):
            continue
        for a, b in itertools.product(range(alg.size), repeat=2):
            cg = principal_congruence(alg, a, b)
            join = cg.join(sim)
            pairs = [(c, d) for c, d in itertools.product(range(alg.size), repeat=2)
                     if join.related(c, d)]
            witnesses = cgvsim_below(alg, a, b, pairs)
            assert len(witnesses) == len(chains[-1]) == len(pairs)
            for (c, d), (e, f), chain in zip(pairs, witnesses, chains[-1]):
                assert (e, f) == fold_witnesses(alg, chain, True), (alg.name, a, b, c, d)
                assert lowers(alg, sim, cg, c, d, e, f), (alg.name, a, b, c, d)
                broken += not lowers(alg, sim, cg, c, d, *fold_witnesses(alg, chain, False))
                tuples += 1
    assert tuples == 2575 and broken > 0


def test_check_cgvsim_examples(e3):
    assert check_cgvsim(e3, 0, 1, 1, 0) is True
    assert check_cgvsim(e3, 0, 1, 2, 2) is True
    assert check_cgvsim(e3, 0, 0, 0, 2) is False


@pytest.mark.parametrize("bad", [-1, 3])      # -1 and n, e3 has 3 elements
@pytest.mark.parametrize("call", [
    lambda alg, sim, x: check_cgvsim(alg, 0, 1, x, 0),
    lambda alg, sim, x: cgvsim_below(alg, 0, 1, [(0, x)]),
    lambda alg, sim, x: join_membership_chain(alg, sim, 0, 1, [(0, 0), (x, 0)]),
    lambda alg, sim, x: alternating_chain_fold(alg, sim, Partition.one(3), [0, 1, x, 0]),
], ids=["check_cgvsim", "cgvsim_below", "join_membership_chain",
        "alternating_chain_fold"])
def test_element_out_of_range(e3, e3_sim, call, bad):
    with pytest.raises(AlgebraError, match=rf"element {bad} out of range 0\.\.2"):
        call(e3, e3_sim, bad)


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
    # Cg_Q(x, y) is replaced by 0_Q: the quotient's principal index reads 0
    # at (x, y), for the sweep and for the pointwise checkers alike
    _, quot, _ = analyzer._regular_context(e3)
    real = relations._principal_table
    labels, firsts, index = real(quot)
    m = quot.size
    wrong = (labels, firsts, np.where(
        [[broken(x, y) for y in range(m)] for x in range(m)], 0, index))
    for mod in (analyzer, relations):
        monkeypatch.setattr(mod, "_principal_table",
                            lambda alg: wrong if alg is quot else real(alg))
    assert_same_first_failure(e3, which)


def test_count_biconditional_commutator_stops_at_first_failure(monkeypatch):
    # as a per-tuple loop would, no commutator is computed for a pair of
    # inputs that first appears after the least failing tuple
    alg = random_semilattice(4, random.Random(4))
    break_context(monkeypatch, alg, shift_quotient=True)
    real = analyzer._commutator
    seen = []
    monkeypatch.setattr(analyzer, "_commutator",
                        lambda alg, p, q: seen.append((p, q)) or real(alg, p, q))
    with pytest.raises(FalsificationError) as info:
        count_biconditional(alg, "commutator")
    failing = tuple(map(int, re.search(r"at \((\d+),(\d+),(\d+),(\d+)\)",
                                       str(info.value)).groups()))
    first = {}
    for pair in itertools.product(range(alg.size), repeat=2):
        first.setdefault(principal_congruence(alg, *pair), pair)
    assert seen and all(first[p] + first[q] <= failing for p, q in seen)


def test_count_biconditional_checks_no_congruence(monkeypatch):
    # the commutator law passes the principal congruences the library built
    # to the cached _commutator, so it re-checks none of them
    alg = regularized_glued(15, (2, 2, 2, 1))[0]
    analyzer._regular_context(alg)
    calls = []
    for mod in (analyzer, relations):
        real = mod.congruence_violation
        monkeypatch.setattr(mod, "congruence_violation",
                            lambda *args, _real=real: calls.append(args) or _real(*args))
    assert count_biconditional(alg, "commutator") == pointwise_count(alg, "commutator")
    assert calls == []


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


def test_count_biconditional_cgvsim_in_chunks(monkeypatch):
    # with a small block the cgvsim sweep joins its table rows with sim in
    # chunks of two rows: the count is the pointwise one, and a wrong join
    # planted where it first shows in a later chunk, in the sweep's
    # `_classes` and in `Partition.join` alike, raises the pointwise
    # checker's message at the least failing tuple
    alg = regularized_glued(18, (3, 2, 2, 1))[0]
    n = alg.size
    want = pointwise_count(alg, "cgvsim")
    monkeypatch.setattr(core, "BLOCK_SIZE", 2 * n * n)
    chunks = []
    real = analyzer._classes
    monkeypatch.setattr(analyzer, "_classes", lambda rel: chunks.append(real(rel)) or chunks[-1])
    assert count_biconditional(alg, "cgvsim") == want
    assert len(chunks) >= 3 and {len(chunk) for chunk in chunks[:-1]} == {2}
    earlier = [row for chunk in chunks[:2] for row in chunk.tolist()]
    target = next(row for chunk in chunks[2:] for row in chunk.tolist()
                  if row not in earlier and any(row))
    join = Partition.join

    def planted_classes(rel):
        out = real(rel)
        out[(out == target).all(axis=1)] = 0
        return out
    monkeypatch.setattr(analyzer, "_classes", planted_classes)
    monkeypatch.setattr(Partition, "join", lambda p, q: Partition.one(n)
                        if join(p, q) == Partition(n, tuple(target)) else join(p, q))
    assert_same_first_failure(alg, "cgvsim")


def test_count_biconditional_cgvsim_memory_is_bounded(monkeypatch):
    # the Cg v sim stack is cut into chunks of at most BLOCK_SIZE // n^2
    # rows: on chain_semilattice(30), 436 rows of 30 x 30, the sweep peaks
    # near 0.22 MiB with a block of 2^14; over all rows at once it peaked
    # at 2.0 MiB.  The regular base and the table are cached beforehand
    alg = chain_semilattice(30)
    want = count_biconditional(alg, "cgvsim")
    monkeypatch.setattr(core, "BLOCK_SIZE", 1 << 14)
    tracemalloc.start()
    try:
        assert count_biconditional(alg, "cgvsim") == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * core.BLOCK_SIZE, peak


def test_table_readers_make_no_partition(monkeypatch):
    # the principal table is label rows: building it, the cg-d3 check and
    # the cgvsim and undersim sweeps read the rows and make no Partition
    # once the regular base and the tables are cached
    made = []
    init = Partition.__post_init__
    monkeypatch.setattr(Partition, "__post_init__", lambda p: made.append(p) or init(p))
    for alg in (regularized_glued(18, (3, 2, 2, 1))[0], chain_semilattice(12)):
        n = alg.size
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        _, quot, _ = analyzer._regular_context(alg)
        for table in (alg, quot):
            relations._principal_table(table)
        made.clear()
        relations._principal_table.__wrapped__(alg)
        analyzer._check_cg_d3(alg, pairs)
        count_biconditional(alg, "cgvsim")
        count_biconditional(alg, "undersim")
        assert made == [], alg.name
    assert Partition.zero(2) and len(made) == 1


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
            assert check_identities(entry.algebra, [ident])[0].holds, entry.name
        for quasi in quasis.values():
            assert check_identities(entry.algebra, [quasi])[0].holds, entry.name
