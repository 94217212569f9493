import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smbalg import (AlgebraError, App, CapExceeded, ClassOrder, FalsificationError,
                    FiniteAlgebra, OperationTable, Partition,
                    PipelineResult, PreconditionError,
                    RepresentativeInconsistency, all_partitions,
                    check_regular_base, circ_table, class_order_from_circ,
                    congruence_lattice, idempotent_power,
                    iterate_wnu, regularize, run_pipeline, semilattice_term,
                    materialize_term, special_circ, table_flags, Var)
from smbalg import core, pipeline, relations
from smbalg.oracles import literal_power
from smbalg.constructions import random_algebra, trivial_algebra
from conftest import planted_wnu


def test_circ_table_examples(e3, b2, corpus):
    assert circ_table(e3, "d") == e3.op("wedge")
    assert circ_table(b2, "d").entries == (0, 1, 0, 1)  # second projection
    for entry in corpus:
        if not entry.has("smb"):
            continue
        alg = entry.algebra
        if not table_flags(alg.op("d")).wnu:
            continue
        circ = circ_table(alg, "d")
        assert all(circ.apply(a, a) == a for a in range(alg.size))


def test_circ_requires_wnu(n4):
    with pytest.raises(PreconditionError, match="not a weak near-unanimity"):
        circ_table(n4, "d")


def test_iterate_wnu_examples(e3, b2):
    assert iterate_wnu(e3, "d") == e3.op("d")
    assert iterate_wnu(b2, "d") == b2.op("d")
    one = trivial_algebra()
    assert iterate_wnu(one, "d").entries == (0,)


def test_iterate_wnu_entry_cap(e3, monkeypatch):
    monkeypatch.setattr(core, "FAST_CLOSURE_SPACE_CAP", 10)
    with pytest.raises(CapExceeded, match="beyond the cap of 10"):
        iterate_wnu(e3, "d")


def test_iterate_wnu_pointwise_oracle(e3):
    # recompute w2 from the definition and compare with one iteration step
    d = e3.op("d")
    circ = circ_table(e3, "d")
    w2 = []
    for args in itertools.product(range(3), repeat=3):
        m = d.apply(*args)
        w2.append(d.apply(*(circ.apply(m, a) for a in args)))
    # d is its own iterate here, so the pointwise recomputation agrees
    assert tuple(w2) == iterate_wnu(e3, "d").entries


def test_special_circ_examples(e3, b2, n4):
    assert special_circ(e3, "d") == e3.op("wedge")
    # circ of b2's d is the second projection, whose maps are all identities
    sp = special_circ(b2, "d")
    assert sp == circ_table(b2, "d")
    with pytest.raises(PreconditionError):
        special_circ(n4, "d")


def test_special_circ_absorption(corpus):
    for entry in corpus:
        alg = entry.algebra
        for sym, table in alg.operations.items():
            from smbalg import table_flags
            if not table_flags(table).wnu:
                continue
            sp = special_circ(alg, sym)
            n = alg.size
            for a in range(n):
                for b in range(n):
                    ab = sp.apply(a, b)
                    assert sp.apply(a, ab) == ab


def test_circ_of_matches_the_term(corpus):
    # x o y = w(x, ..., x, y), read off the array, equals the term's table
    for entry in corpus:
        for sym, table in entry.algebra.operations.items():
            if not table_flags(table).wnu:
                continue
            term = App(sym, (Var(0),) * (table.arity - 1) + (Var(1),))
            assert pipeline._circ_of(table) == materialize_term(entry.algebra, term, 2)


def test_e3_wedge_is_d_xxy(e3):
    d_xxy = App("d", (Var(0), Var(0), Var(1)))
    assert e3.op("wedge") == materialize_term(e3, d_xxy, 2)


def test_special_of_circ_refuses_a_circ_that_is_not_absorbing(monkeypatch):
    # with the idempotent powers skipped, the absorption check sees the
    # planted circ itself and names its least pair (x, y) with
    # x o (x o y) != x o y
    rng = random.Random(45)
    n = 4
    while True:
        w = planted_wnu(rng, n, 3, special=False)
        c = [[w.apply(a, a, b) for b in range(n)] for a in range(n)]
        bad = [(a, b) for a in range(n) for b in range(n) if c[a][c[a][b]] != c[a][b]]
        if bad:
            break
    monkeypatch.setattr(pipeline, "idempotent_power", tuple)
    with pytest.raises(FalsificationError,
                       match=re.escape(f"special circ is not absorbing at {bad[0]}") + "$"):
        pipeline._special_of_circ(pipeline._circ_of(w))


def test_idempotent_power_refuses_a_map_out_of_range():
    # a negative entry would count from the end, a large one past it
    with pytest.raises(AlgebraError, match=r"f\(0\) = -1$"):
        idempotent_power((-1, 0))
    with pytest.raises(AlgebraError, match=r"f\(0\) = 2$"):
        idempotent_power((2, 0))
    with pytest.raises(AlgebraError, match=r"f\(2\) = 4$"):
        idempotent_power([0, 1, 4, 7])
    assert idempotent_power(()) == ()


def test_idempotent_power_matches_literal():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 8)
        f = [rng.randrange(n) for _ in range(n)]
        assert idempotent_power(f) == literal_power(f, math.factorial(n))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=7))
def test_idempotent_power_is_idempotent(values):
    f = [v % len(values) for v in values]
    h = idempotent_power(f)
    assert tuple(h[x] for x in h) == h
    assert h == literal_power(f, math.factorial(len(f)))


def test_class_order_examples(e3, s2, b2, e3_sim):
    order = class_order_from_circ(e3, e3.op("wedge"), e3_sim)
    assert order.classes == ((0, 1), (2,))
    assert order.least() == 1 and order.greatest() == 0
    assert order.is_partial_order() and order.glb_closed()

    order2 = class_order_from_circ(b2, circ_table(b2, "d"), Partition.one(2))
    assert len(order2.classes) == 1 and order2.least() == 0

    order3 = class_order_from_circ(s2, s2.op("wedge"), Partition.zero(2))
    assert order3.le(0, 1) and not order3.le(1, 0)  # the chain order 0 < 1
    assert order3.least() is not None and order3.greatest() is not None


def test_class_order_representative_inconsistency(e3, e3_sim):
    # a circ table that separates the representatives 0 ~ 1
    bad = OperationTable(2, 3, [0, 0, 0, 2, 2, 2, 0, 1, 2])
    with pytest.raises(RepresentativeInconsistency):
        class_order_from_circ(e3, bad, e3_sim)


def test_class_order_refuses_a_table_not_binary(e3, e3_sim):
    # the ternary d has 27 entries, not the 9 of a binary table on e3
    with pytest.raises(AlgebraError, match="circ must be binary, got arity 3"):
        class_order_from_circ(e3, e3.op("d"), e3_sim)


def _projection_algebra(n):
    """x p y = y: every partition is a congruence and is compatible with p."""
    return FiniteAlgebra(f"proj{n}", n, {"p": OperationTable(
        2, n, [y for x in range(n) for y in range(n)])})


def _random_tables(corpus, seed):
    """Random binary tables, half with an idempotent diagonal, plus the
    wedge tables of the SMB corpus algebras with n <= 5."""
    rng = random.Random(seed)
    tables = []
    for i in range(40):
        n = rng.randrange(1, 5)
        entries = [rng.randrange(n) for _ in range(n * n)]
        if i % 2:
            for x in range(n):
                entries[x * n + x] = x
        tables.append(OperationTable(2, n, entries))
    return tables + [e.algebra.op("wedge") for e in corpus
                     if e.has("smb") and e.algebra.size <= 5]


def _compatible(table, sim):
    n = table.size
    ids = sim.class_ids
    return all(ids[table.entries[a * n + x]] == ids[table.entries[b * n + x]]
               and ids[table.entries[x * n + a]] == ids[table.entries[x * n + b]]
               for a in range(n) for b in range(n) if ids[a] == ids[b]
               for x in range(n))


def scan_wedge_conclusion(table, sim):
    """Reference: (verdict, violations, order leq) of the semilattice-term
    conclusion as a scan; the compatibility failure is one Congruence tag."""
    n = table.size
    ids = sim.class_ids
    blocks = sim.blocks()
    reps = [blk[0] for blk in blocks]
    m = len(blocks)

    def qw(i, j):
        return ids[table.entries[reps[i] * n + reps[j]]]

    violations = []
    if not _compatible(table, sim):
        violations.append("Congruence")
    else:
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
                if table.entries[a * n + b] != b:
                    violations.append(("SecondProj", (a, b)))
    leq = None
    if not violations:
        leq = tuple(tuple(qw(i, j) == i for j in range(m)) for i in range(m))
    return not violations, violations, leq


def test_semilattice_term_conclusion_matches_scan(corpus, monkeypatch):
    # semilattice_term over the projection algebra, with the pipeline's
    # wedge candidate replaced by each table
    verdicts = set()
    for table in _random_tables(corpus, 41):
        n = table.size
        alg = _projection_algebra(n)
        proj = alg.op("p")
        fake = PipelineResult(proj, proj, proj, proj, table, {})
        monkeypatch.setattr(pipeline, "run_pipeline", lambda a, w: fake)
        for sim in all_partitions(n):
            verdict, violations, leq = scan_wedge_conclusion(table, sim)
            verdicts.add(verdict)
            try:
                res = semilattice_term(alg, "p", sim)
            except FalsificationError:
                assert not verdict, (table.entries, sim)
                continue
            report = res.report
            assert res.conclusion_holds == report.verdict == verdict, (table.entries, sim)
            got = [v if v[0] != "Congruence" else "Congruence" for v in report.violations]
            assert got == violations, (table.entries, sim)
            assert (report.class_order and report.class_order.leq) == leq
    assert verdicts == {True, False}


def test_class_order_from_circ_matches_scan(corpus):
    # RepresentativeInconsistency exactly when the scan finds circ
    # incompatible with sim; otherwise [i] <= [j] iff (rep_j o rep_i) ~ rep_i
    raised = set()
    for circ in _random_tables(corpus, 43):
        n = circ.size
        alg = _projection_algebra(n)
        for sim in all_partitions(n):
            compatible = _compatible(circ, sim)
            raised.add(not compatible)
            if not compatible:
                with pytest.raises(RepresentativeInconsistency):
                    class_order_from_circ(alg, circ, sim)
                continue
            order = class_order_from_circ(alg, circ, sim)
            ids = sim.class_ids
            reps = [blk[0] for blk in sim.blocks()]
            m = len(reps)
            assert order.leq == tuple(
                tuple(ids[circ.entries[reps[j] * n + reps[i]]] == i for j in range(m))
                for i in range(m))
    assert raised == {True, False}


def test_semilattice_term_examples(e3, b2, e3_sim):
    res = semilattice_term(e3, "d", e3_sim)
    assert res.hypotheses_established and res.conclusion_holds
    assert res.table.apply(0, 1) == 1   # second projection on the block
    assert res.table.apply(0, 2) == 2   # meet across classes
    res2 = semilattice_term(b2, "d", Partition.one(2))
    assert res2.table.entries == (0, 1, 0, 1)
    assert res2.conclusion_holds


def test_semilattice_term_checks_sim_once(e3, e3_sim, monkeypatch):
    # its own first line checks sim; the class order and the abelian test
    # read it unchecked
    calls = []
    for mod in (pipeline, relations):
        real = mod.congruence_violation
        monkeypatch.setattr(mod, "congruence_violation",
                            lambda *args, _real=real: calls.append(args) or _real(*args))
    semilattice_term(e3, "d", e3_sim)
    assert [args for args in calls if args[0] is e3] == [(e3, e3_sim)]


def test_semilattice_term_reads_only_the_greatest_class(e3, e3_sim, monkeypatch):
    # of the class order's queries, the hypotheses need only greatest()
    calls = []
    for name in ("glb_closed", "is_partial_order"):
        monkeypatch.setattr(ClassOrder, name,
                            lambda self, _name=name: calls.append(_name))
    res = semilattice_term(e3, "d", e3_sim)
    assert res.hypotheses["greatest_class_exists"]
    assert calls == []


def test_sim_maximal_matches_lattice(corpus):
    # semilattice_term tests maximality of sim with principal congruences;
    # compare it with the lattice test on every corpus entry it accepts,
    # over the entry's sim and over every other congruence
    seen = set()
    for entry in corpus:
        alg = entry.algebra
        if entry.sim is None or not alg.has_op("d", 3) \
                or not table_flags(alg.op("d")).wnu:
            continue
        lattice = congruence_lattice(alg)
        for sim in (entry.sim,) + lattice.congruences:
            try:
                res = semilattice_term(alg, "d", sim)
            except FalsificationError:
                continue
            maximal = not sim.is_one and not any(
                sim < theta < Partition.one(alg.size) for theta in lattice)
            assert res.hypotheses["sim_maximal"] == maximal, (entry.name, sim)
            seen.add((sim == entry.sim, maximal))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_run_pipeline_diagnostics(e3):
    result = run_pipeline(e3, "d")
    assert result.diagnostics["iterated_wnu"]["wnu"]
    assert result.diagnostics["iterated_wnu"]["fixpoint"]
    assert result.circ == result.circ_special == e3.op("wedge")
    # the binary stages keep no tuple of Python ints on their tables
    assert all(t._entries is None for t in (result.circ, result.circ_iterated,
                                            result.circ_special, result.wedge_candidate))


def test_run_pipeline_checks_for_a_wnu_once(e3, n4, monkeypatch):
    calls = []
    real = pipeline._require_wnu
    monkeypatch.setattr(pipeline, "_require_wnu",
                        lambda alg, w: calls.append(w) or real(alg, w))
    run_pipeline(e3, "d")
    assert calls == ["d"]
    with pytest.raises(PreconditionError, match="not a weak near-unanimity"):
        run_pipeline(n4, "d")


def test_run_pipeline_checks_one_table_once(e3, b2, s2, corpus, monkeypatch):
    # w is checked by _require_wnu; an iterate equal to the table before it
    # is not checked again, and the diagnostics read iterate_wnu's check
    n4_reg = next(e.algebra for e in corpus if e.algebra.name == "n4_reg")
    real = pipeline.table_flags
    for alg in (e3, b2, s2, n4_reg):
        calls = []
        monkeypatch.setattr(pipeline, "table_flags",
                            lambda table: calls.append(table) or real(table))
        result = run_pipeline(alg, "d")
        assert calls == [alg.op("d")], alg.name
        assert result.diagnostics["iterated_wnu"]["wnu"], alg.name


def test_iteration_nontrivial_case(n4, n4_sim):
    # same blocks as n4 but every cross-block d value pinned to 3: d becomes
    # wnu while the wedge stays non-regular, and iteration genuinely moves
    from smbalg import FiniteAlgebra, check_smb_over, table_flags
    d4 = n4.op("d")
    entries = []
    for a, b, c in itertools.product(range(4), repeat=3):
        same = n4_sim.related(a, b) and n4_sim.related(b, c)
        entries.append(d4.apply(a, b, c) if same else 3)
    alg = FiniteAlgebra("n4w", 4, {"wedge": n4.op("wedge"),
                                   "d": OperationTable(3, 4, entries)})
    assert check_smb_over(alg, n4_sim).verdict
    assert table_flags(alg.op("d")).wnu
    iterated = iterate_wnu(alg, "d")
    assert iterated != alg.op("d")
    assert alg.op("d").apply(2, 0, 0) == 3 and iterated.apply(2, 0, 0) == 2
    assert table_flags(iterated).wnu
    res = semilattice_term(alg, "d", n4_sim)
    assert res.hypotheses_established and res.conclusion_holds


def test_regularize_examples(e3, b2, n4, n4_sim):
    reg = regularize(n4, n4_sim)
    assert reg.op("wedge").apply(0, 2) == 2
    assert check_regular_base(reg).holds
    assert regularize(e3) == e3
    assert regularize(b2) == b2
    bad = random_algebra(3, {"wedge": 2, "d": 3}, 99)
    with pytest.raises(PreconditionError):
        regularize(bad)


def test_regularize_keeps_blocks(corpus):
    for entry in corpus:
        if not entry.has("glued"):
            continue
        alg, sim = entry.algebra, entry.sim
        reg = regularize(alg, sim)
        d_old, d_new = alg.op("d"), reg.op("d")
        for blk in sim.blocks():
            for a, b, c in itertools.product(blk, repeat=3):
                assert d_old.apply(a, b, c) == d_new.apply(a, b, c)


# ---------------------------------------------------------------------------
# Order-theoretic behavior of the iterated operation on corpus algebras,
# stated against the circ-induced class order.

def _pipeline_cases(corpus):
    for entry in corpus:
        if not entry.has("smb") or entry.algebra.size > 6:
            continue
        alg = entry.algebra
        if not table_flags(alg.op("d")).wnu:
            continue
        yield entry, run_pipeline(alg, "d")


def test_cover_pairs_behave_like_meets(corpus):
    for entry, result in _pipeline_cases(corpus):
        alg, sim = entry.algebra, entry.sim
        order = class_order_from_circ(alg, result.circ_iterated, sim)
        classes = order.classes
        m = len(classes)
        ids = sim.class_ids
        w = result.iterated_wnu
        covers = [(i, j) for i in range(m) for j in range(m)
                  if i != j and order.le(i, j)
                  and not any(k not in (i, j) and order.le(i, k) and order.le(k, j)
                              for k in range(m))]
        for i, j in covers:
            union = classes[i] + classes[j]
            for args in itertools.product(union, repeat=w.arity):
                out = w.apply(*args)
                assert out in union
                expected = j if all(a in classes[j] for a in args) else i
                assert ids[out] == (sim.class_ids[classes[expected][0]])


def test_chain_unions_are_closed(corpus):
    for entry, result in _pipeline_cases(corpus):
        alg, sim = entry.algebra, entry.sim
        order = class_order_from_circ(alg, result.circ_iterated, sim)
        classes = order.classes
        m = len(classes)
        w = result.iterated_wnu
        chains = [(i, j, k) for i in range(m) for j in range(m) for k in range(m)
                  if len({i, j, k}) == 3 and order.le(i, j) and order.le(j, k)]
        for i, j, k in chains[:6]:
            union = classes[i] + classes[j] + classes[k]
            for args in itertools.product(union, repeat=w.arity):
                assert w.apply(*args) in union


def test_strict_pairs_land_in_interval(corpus):
    # for y < x the class of x o y lies in [[y], [x])
    for entry, result in _pipeline_cases(corpus):
        alg, sim = entry.algebra, entry.sim
        order = class_order_from_circ(alg, result.circ_iterated, sim)
        classes = order.classes
        ids = sim.class_ids
        circ = result.circ_iterated
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                if i == j or not order.le(j, i):
                    continue
                for xx in ci:
                    for yy in cj:
                        out_cls = ids[circ.apply(xx, yy)]
                        assert order.le(j, out_cls)
                        assert order.le(out_cls, i) and out_cls != i


def test_special_absorption_pairs(corpus):
    # with the special circ, [x] and [x o y] form a closed meet-behaving pair
    for entry, result in _pipeline_cases(corpus):
        alg, sim = entry.algebra, entry.sim
        order = class_order_from_circ(alg, result.circ_special, sim)
        classes = order.classes
        ids = sim.class_ids
        sp = result.circ_special
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                if i == j or not order.le(j, i):
                    continue
                low = ids[sp.apply(ci[0], cj[0])]
                union = classes[i] + classes[low]
                for u in union:
                    for v in union:
                        out = sp.apply(u, v)
                        assert out in union
                        both_top = ids[u] == ids[v] == ids[ci[0]]
                        assert ids[out] == (ids[ci[0]] if both_top else low)
