"""The numpy term kernel against the pointwise loops it replaced.

The reference functions below are the per-assignment Python loops that
the identity and quasi-identity checks, `table_flags`, `check_regular`
and `regularize` ran before the kernel; every verdict, witness and table
must agree with them.  `check_identities`, the one law checker, is
compared one law per call and with each algebra's identities and
quasi-identities in one batch.  Each comparison runs at the default
block size and with `core.BLOCK_SIZE` patched small, so the cut path of
`_blocks` and the box offsets of the witnesses are exercised.
"""

import dataclasses
import itertools
import random
import tracemalloc
import types

import numpy as np
import pytest

from smbalg import (App, CapExceeded, Const, FiniteAlgebra, Identity,
                    OperationTable, Quasiidentity, Var, Verdict, check_identities,
                    check_regular, check_smb_over,
                    find_smb_congruences, materialize_term,
                    random_algebra, regularize, smb_axioms,
                    table_flags, term_table, term_variables)
from smbalg.analyzer import regular_base_identities
from smbalg import core
from smbalg.core import idempotence_violation
from smbalg.oracles import eval_term, substitute
from conftest import random_term

SMALL_BLOCK = 100        # cuts most term boxes: each is charged n values per program step


def _var_count(variables):
    return max(variables) + 1 if variables else 0


def check_identity_loop(alg, ident):
    nvars = _var_count(ident.variables())
    if nvars == 0:
        ok = eval_term(alg, ident.lhs, ()) == eval_term(alg, ident.rhs, ())
        return Verdict(ok, None if ok else ())
    for args in itertools.product(range(alg.size), repeat=nvars):
        if eval_term(alg, ident.lhs, args) != eval_term(alg, ident.rhs, args):
            return Verdict(False, args)
    return Verdict(True)


def check_quasiidentity_loop(alg, quasi):
    nvars = _var_count(quasi.variables())
    for args in itertools.product(range(alg.size), repeat=max(nvars, 0)):
        ok = True
        for prem in quasi.premises:
            if eval_term(alg, prem.lhs, args) != eval_term(alg, prem.rhs, args):
                ok = False
                break
        if not ok:
            continue
        concl = quasi.conclusion
        if eval_term(alg, concl.lhs, args) != eval_term(alg, concl.rhs, args):
            return Verdict(False, args)
    return Verdict(True)


def table_flags_loop(table):
    n = table.size
    k = table.arity
    entries = table.entries
    idem = idempotence_violation(table) is None
    wnu = idem and k >= 2       # a wnu has arity at least 2
    if wnu:
        for x in range(n):
            for y in range(n):
                base = [x] * k
                base[0] = y
                v0 = entries[table.index(base)]
                for pos in range(1, k):
                    args = [x] * k
                    args[pos] = y
                    if entries[table.index(args)] != v0:
                        wnu = False
                        break
                if not wnu:
                    break
            if not wnu:
                break
    special = wnu
    if special:
        for x in range(n):
            row = [entries[table.index((x,) * (k - 1) + (y,))] for y in range(n)]
            if any(row[row[y]] != row[y] for y in range(n)):
                special = False
                break
    malcev = k == 3 and all(
        entries[table.index((x, y, y))] == x and entries[table.index((y, y, x))] == x
        for x in range(n) for y in range(n))
    second_proj = k == 2 and all(
        entries[table.index((x, y))] == y for x in range(n) for y in range(n))
    return (idem, wnu, special, malcev, second_proj)


def regular_conditions_loop(alg, sim, order):
    """Conditions (i) and (ii) of check_regular."""
    wedge, d = alg.op("wedge"), alg.op("d")
    ids = sim.class_ids
    n = alg.size
    cond_i = Verdict(True)
    for args in itertools.product(range(n), repeat=3):
        a, b, c = args
        left = d.entries[d.index(args)]
        right = wedge.entries[wedge.index((wedge.entries[wedge.index((a, b))], c))]
        if ids[left] != ids[right]:
            cond_i = Verdict(False, args)
            break
    cond_ii = Verdict(True)
    for a in range(n):
        for b in range(n):
            if order.le(ids[b], ids[a]) and wedge.entries[wedge.index((a, b))] != b:
                cond_ii = Verdict(False, (a, b))
                break
        if not cond_ii.holds:
            break
    return cond_i, cond_ii


def regularized_d_loop(alg, new_wedge):
    n = alg.size
    d = alg.op("d")

    def w2(a, b):
        return new_wedge.entries[a * n + b]

    out = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                u = w2(w2(y, z), x)
                v = w2(w2(x, z), y)
                w_ = w2(w2(x, y), z)
                out.append(d.entries[(u * n + v) * n + w_])
    return tuple(out)


def identity_algebras(corpus):
    """Every corpus entry with wedge and d, and seeded random {wedge, d}
    algebras with n <= 6."""
    algs = [e.algebra for e in corpus
            if e.algebra.has_op("wedge", 2) and e.algebra.has_op("d", 3)]
    algs += [random_algebra(1 + seed % 6, {"wedge": 2, "d": 3}, seed) for seed in range(24)]
    return algs


def checked_identities():
    """The regular base, the Taylor checks and the smb_axioms identities,
    and the smb_axioms quasi-identities."""
    x, y = Var(0), Var(1)

    def w(a, b):
        return App("wedge", (a, b))

    def d(a, b, c):
        return App("d", (a, b, c))

    xy, yx = w(x, y), w(y, x)
    identities = [i for idents in regular_base_identities().values() for i in idents]
    identities += [Identity(d(xy, xy, xy), xy), Identity(d(yx, yx, xy), xy),
                   Identity(d(xy, yx, yx), xy)]
    axioms, quasis = smb_axioms()
    return identities + list(axioms.values()), list(quasis.values())


@pytest.fixture(scope="module")
def reference_verdicts(corpus):
    """(algebra, identity or quasi-identity, reference verdict); the
    quasi-identities have six variables, so the reference loop runs them
    on n <= 4 only."""
    identities, quasis = checked_identities()
    cases = []
    for alg in identity_algebras(corpus):
        cases += [(alg, i, check_identity_loop(alg, i)) for i in identities]
        if alg.size <= 4:
            cases += [(alg, q, check_quasiidentity_loop(alg, q)) for q in quasis]
    return cases


def verdict_mismatches(cases) -> int:
    """Each law checked alone by check_identities, against its reference."""
    return sum(check_identities(alg, [law])[0] != expected for alg, law, expected in cases)


def batched_mismatches(cases) -> int:
    """The identities and quasi-identities of each algebra checked together
    by check_identities, against the same per-law references."""
    bad = 0
    for alg, group in itertools.groupby(cases, key=lambda case: case[0]):
        _, laws, expected = zip(*group)
        bad += sum(got != want for got, want in zip(check_identities(alg, laws), expected))
    return bad


def premise_free_mismatches(cases) -> int:
    """Each identity wrapped as a quasi-identity with no premises, against
    the identity's own reference."""
    return sum(check_identities(alg, [Quasiidentity((), law)])[0] != expected
               for alg, law, expected in cases if isinstance(law, Identity))


# 4000 still cuts over a hundred of the one-law programs into several boxes
# (a box is charged n values per step), and some least failing assignments
# lie past the first box; SMALL_BLOCK cuts far more, for several times the time
@pytest.mark.parametrize("block", [4000, core.BLOCK_SIZE])
def test_identity_verdicts_match_loop(reference_verdicts, monkeypatch, block):
    cut = block < core.BLOCK_SIZE
    monkeypatch.setattr(core, "BLOCK_SIZE", block)
    verdicts = [expected for _, _, expected in reference_verdicts]
    assert sum(v.holds for v in verdicts) > 0 and sum(not v.holds for v in verdicts) > 0
    assert sum(len(v.witness or ()) == 6 for v in verdicts) > 0
    # each algebra's batch mixes failing identities of one, two and three
    # variables, and on n <= 4 quasi-identities of six, some failing
    assert {len(v.witness) for _, law, v in reference_verdicts
            if isinstance(law, Identity) and not v.holds} >= {1, 2, 3}
    assert any(isinstance(law, Quasiidentity) and not v.holds
               for _, law, v in reference_verdicts)
    seen = []       # the boxes each kernel pass reads, one list per pass
    real = core._term_boxes

    def term_boxes(alg, program):
        seen.append([])
        for box, values in real(alg, program):
            seen[-1].append(box)
            yield box, values

    monkeypatch.setattr(core, "_term_boxes", term_boxes)
    assert verdict_mismatches(reference_verdicts) == 0
    assert batched_mismatches(reference_verdicts) == 0
    assert premise_free_mismatches(reference_verdicts) == 0
    if cut:         # one pass per law first, then one per algebra
        assert any(len(boxes) > 1 for boxes in seen)
        assert any(not v.holds and any(not lo <= w < hi for w, (lo, hi) in zip(v.witness, boxes[0]))
                   for boxes, (_, _, v) in zip(seen, reference_verdicts))


def test_identity_witness_order_is_checked(reference_verdicts, monkeypatch):
    # a copy of first_failure, built from its imported code, that reports
    # the last failing assignment of a box instead of the first must fail
    # the differential test above
    class LastHit:
        """numpy, except that `argmax` of a box's bad mask gives its last hit."""
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argmax(bad):
            return bad.size - 1 - np.argmax(bad.ravel()[::-1])

    real = core.first_failure
    broken = types.FunctionType(real.__code__, dict(vars(core), np=LastHit()),
                                real.__name__, real.__defaults__)
    monkeypatch.setattr(core, "first_failure", broken)
    assert verdict_mismatches(reference_verdicts) > 0


def test_premises_and_witness_widths_are_checked(reference_verdicts, monkeypatch):
    # two copies of check_identities, built from its imported code, each
    # compiling the laws with one fault, must fail the differential test:
    # one drops every premise, the other cuts every witness to the batch's
    # largest variable count instead of the law's own
    real, compile_laws = core.check_identities, core._identity_program

    def without_premises(laws):
        return compile_laws([getattr(law, "conclusion", law) for law in laws])

    def batch_widths(laws):
        program = compile_laws(laws)
        return dataclasses.replace(program, spans=(program.nvars,) * len(program.spans))

    def broken(compiled):
        return types.FunctionType(real.__code__, dict(vars(core), _identity_program=compiled),
                                  real.__name__, real.__defaults__)

    # the mismatch counters read check_identities from this module
    monkeypatch.setitem(globals(), "check_identities", broken(without_premises))
    assert verdict_mismatches(reference_verdicts) > 0
    assert batched_mismatches(reference_verdicts) > 0
    monkeypatch.setitem(globals(), "check_identities", broken(batch_widths))
    assert batched_mismatches(reference_verdicts) > 0


@pytest.mark.parametrize("block", [SMALL_BLOCK, core.BLOCK_SIZE])
def test_term_table_matches_eval_term(corpus, monkeypatch, block):
    # random terms with element literals and variables that may not occur
    monkeypatch.setattr(core, "BLOCK_SIZE", block)
    rng = random.Random(61)
    algs = [e.algebra for e in corpus if e.algebra.size <= 5]
    algs += [random_algebra(n, {"f": 1, "g": 2, "h": 3}, n) for n in (1, 2, 3, 4)]
    unused = 0
    for alg in algs:
        sig = {s: t.arity for s, t in alg.operations.items()}
        for _ in range(6):
            nvars = rng.randrange(0, 5)
            term = random_term(rng, sig, max(nvars, 1), 4, allow_const=alg.size)
            if nvars == 0:
                term = substitute(term, {0: Const(0)})
            unused += len(term_variables(term)) < nvars
            table = term_table(alg, term, nvars)
            assert table.shape == (alg.size,) * nvars
            for args in itertools.product(range(alg.size), repeat=nvars):
                assert table[args] == eval_term(alg, term, args), (alg.name, term, args)
    assert unused > 0


@pytest.mark.parametrize("block", [SMALL_BLOCK, core.BLOCK_SIZE])
def test_check_regular_matches_loop(corpus, monkeypatch, block):
    monkeypatch.setattr(core, "BLOCK_SIZE", block)
    seen = set()
    for entry in corpus:
        alg = entry.algebra
        if not alg.has_op("d", 3):
            continue
        for sim in find_smb_congruences(alg):
            got = check_regular(alg, sim).conditions
            expected = regular_conditions_loop(alg, sim, check_smb_over(alg, sim).class_order)
            assert (got["i"], got["ii"]) == expected, (alg.name, sim)
            seen.update(v.holds for v in expected)
    assert seen == {True, False}


def test_regularize_matches_loop(corpus):
    for entry in corpus:
        if not entry.has("smb"):
            continue
        out = regularize(entry.algebra, entry.sim)
        assert out.op("d").entries == regularized_d_loop(entry.algebra, out.op("wedge"))


def all_tables(n, arity):
    for entries in itertools.product(range(n), repeat=n ** arity):
        yield OperationTable(arity, n, entries)


def random_tables(rng):
    """Random tables of arity <= 4 on n <= 4: plain, idempotent, and
    symmetric idempotent (hence wnu)."""
    for _ in range(150):
        n, k = rng.randrange(1, 5), rng.randrange(1, 5)
        kind = rng.randrange(3)
        values = {}
        entries = []
        for args in itertools.product(range(n), repeat=k):
            key = tuple(sorted(args)) if kind == 2 else args
            values.setdefault(key, rng.randrange(n))
            entries.append(args[0] if kind and len(set(args)) == 1 else values[key])
        yield OperationTable(k, n, entries)


def test_table_flags_match_loop(corpus):
    tables = list(all_tables(2, 2)) + list(all_tables(2, 3))
    tables += random_tables(random.Random(5))
    tables += [t for e in corpus for t in e.algebra.operations.values()]
    seen = set()
    for table in tables:
        flags = table_flags(table)
        got = (flags.idempotent, flags.wnu, flags.special_wnu, flags.malcev,
               flags.second_projection)
        assert got == table_flags_loop(table), (table.arity, table.entries)
        seen.update(enumerate(got))
    assert seen == {(i, v) for i in range(5) for v in (True, False)}


def test_operation_table_array(e3):
    table = e3.op("d")
    array = table.array
    assert array is table.array
    assert array.dtype == np.int64 and tuple(array.tolist()) == table.entries
    with pytest.raises(ValueError):
        array[0] = 1


def test_term_table_memory_bounded_in_step_values():
    # a chain of 99 applications over 3 variables, 102 distinct subterms, at
    # n = 100: one box of all 10**6 assignments would hold 102 arrays of
    # 10**6 values (over 800 MB); the boxes are cut so that all step values
    # of a box fit in BLOCK_SIZE, and the table still equals a plain fold
    n = 100
    alg = random_algebra(n, {"f": 2}, 17)
    xs = [Var(i) for i in range(3)]
    term = xs[0]
    for i in range(1, 100):
        term = App("f", (term, xs[i % 3]))
    f = alg.op("f").array
    axes = [np.arange(n).reshape([n if j == i else 1 for j in range(3)]) for i in range(3)]
    expected = axes[0]
    for i in range(1, 100):
        expected = f[expected * n + axes[i % 3]]
    assert len(core._compile([term], 3).steps) == 102
    tracemalloc.start()
    try:
        table = term_table(alg, term, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table, expected)
    assert peak < 4 * core.BLOCK_SIZE * 8, peak


def test_term_table_cap(e3):
    x = Var(0)
    with pytest.raises(CapExceeded):
        term_table(e3, x, 15)            # 3**15 > FAST_CLOSURE_SPACE_CAP
    with pytest.raises(CapExceeded):
        materialize_term(e3, x, 10 ** 9)
    big = FiniteAlgebra("big", 3000, {"f": OperationTable(1, 3000, range(3000))})
    with pytest.raises(CapExceeded):
        materialize_term(big, App("f", (x,)), 3)
    # one array axis per variable, also where the table is small
    one = FiniteAlgebra("one", 1, {"f": OperationTable(1, 1, [0])})
    with pytest.raises(CapExceeded):
        term_table(one, x, 40)
    with pytest.raises(CapExceeded):
        check_identities(one, [Identity(Var(39), x)])
    assert check_identities(one, [Identity(Var(31), x)])[0].holds
