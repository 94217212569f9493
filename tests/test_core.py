import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from smbalg import (AlgebraError, App, Const, FiniteAlgebra, Identity,
                    OperationTable, Quasiidentity, Var, check_identity,
                    check_quasiidentity, classify_operation, materialize_term,
                    substitute, table_flags, term_table)
from smbalg.oracles import eval_term
from conftest import random_term

W = lambda a, b: App("wedge", (a, b))
D = lambda a, b, c: App("d", (a, b, c))
x, y, z = Var(0), Var(1), Var(2)


def test_table_index_last_argument_fastest():
    t = OperationTable(3, 3, [v % 3 for v in range(27)])
    assert t.index((1, 2, 0)) == (1 * 3 + 2) * 3 + 0
    assert t.index((0, 0, 1)) == 1


def test_table_validation():
    with pytest.raises(AlgebraError, match="expected 9 entries, got 8"):
        OperationTable(2, 3, [0] * 8)
    with pytest.raises(AlgebraError, match="out of range"):
        OperationTable(1, 2, [0, 2])
    with pytest.raises(AlgebraError):
        OperationTable(0, 2, [])
    # any sequence of integers: a generator, bools, numpy integer scalars;
    # entries are Python ints whatever came in
    for entries in ((v % 2 for v in range(4)), [False, True, False, True],
                    [np.int64(0), np.int64(1), np.uint8(0), np.int32(1)]):
        t = OperationTable(2, 2, entries)
        assert t.entries == (0, 1, 0, 1) and all(type(v) is int for v in t.entries)
    # the first entry that is no integer in range is named as a Python value
    for entries, bad in (([0, 1.0], "1.0"), ([0, "1"], "'1'"), ([0, None], "None"),
                         ([0, -1], "-1"), ([2 ** 70, 0], str(2 ** 70)),
                         ([0, np.True_], "True"), ([5, "x"], "5")):
        with pytest.raises(AlgebraError, match=rf"^table entry {bad} out of range 0\.\.1$"):
            OperationTable(1, 2, entries)
    # a table's `array` cannot be rebound or deleted
    t = OperationTable(2, 3, [0, 1, 2] * 3)
    with pytest.raises(AttributeError, match="immutable"):
        t.array = np.zeros(9, dtype=np.int64)
    with pytest.raises(AttributeError, match="immutable"):
        del t.array
    assert t.entries == (0, 1, 2) * 3 and t.array.tolist() == [0, 1, 2] * 3


def test_table_from_integer_array():
    # integer arrays are read as their Python ints; other arrays are not
    for dtype in (np.int64, np.int32, np.uint8):
        t = OperationTable(2, 2, np.array([0, 1, 0, 1], dtype=dtype))
        assert t == OperationTable(2, 2, [0, 1, 0, 1])
        assert all(type(v) is int for v in t.entries) and t.index((1, 0)) == 2
    with pytest.raises(AlgebraError, match=r"table entry 2 out of range 0\.\.1"):
        OperationTable(1, 2, np.array([0, 2]))
    for array, bad in ((np.array([0.0, 1.0]), "0.0"), (np.array([False, True]), "False"),
                       (np.array([0, 2 ** 63 + 1], dtype=np.uint64), str(2 ** 63 + 1)),
                       (np.array([[0], [1]]), r"\[0\]")):
        with pytest.raises(AlgebraError, match=rf"^table entry {bad} out of range 0\.\.1$"):
            OperationTable(1, 2, array)
    # one read-only int64 buffer; equal tables hash and compare equal
    # however they were built, and so do algebras built from them
    t = OperationTable(2, 3, np.array([0, 1, 2] * 3, dtype=np.int32))
    assert t.array.dtype == np.int64 and type(t.array.base) is bytes
    assert not t.array.flags.writeable
    with pytest.raises(ValueError):
        t.array[0] = 1
    u = OperationTable(2, 3, [0, 1, 2] * 3)
    assert t == u and hash(t) == hash(u) and t != OperationTable(1, 9, [0, 1, 2] * 3)
    assert FiniteAlgebra("a", 3, {"f": t}) == FiniteAlgebra("b", 3, {"f": u})
    assert hash(FiniteAlgebra("a", 3, {"f": t})) == hash(FiniteAlgebra("b", 3, {"f": u}))


def test_algebra_validation():
    t = OperationTable(1, 2, [0, 1])
    with pytest.raises(AlgebraError, match="duplicate"):
        FiniteAlgebra("a", 2, [("f", t), ("f", t)])
    with pytest.raises(AlgebraError, match="size"):
        FiniteAlgebra("a", 3, {"f": t})
    alg = FiniteAlgebra("a", 2, {"f": t})
    with pytest.raises(AlgebraError, match="unknown operation"):
        alg.op("g")


def test_operations_are_read_only():
    # the content key is built once, so the mapping it reads cannot change
    t = OperationTable(1, 2, [0, 1])
    ops = {"f": t}
    alg = FiniteAlgebra("a", 2, ops)
    ops["f"] = OperationTable(1, 2, [1, 0])
    assert alg.op("f") is t
    with pytest.raises(TypeError):
        alg.operations["f"] = OperationTable(1, 2, [1, 0])
    with pytest.raises(TypeError):
        del alg.operations["f"]
    assert alg.rename("b") == alg and dict(alg.operations) == {"f": t}


def test_attributes_are_read_only():
    # no attribute of a table or an algebra can be assigned or deleted after
    # __init__, so a cached answer filed under the algebra's content key
    # stays true: the table, the hash and the cached congruence keep
    from smbalg import example_e3, principal_congruence
    e3 = example_e3()
    d = e3.op("d")
    entries, key = d.entries, hash(e3)
    assert str(principal_congruence(e3, 0, 2)) == "0 1 2"
    for obj, name, value in [(d, "array", np.zeros(27, dtype=np.int64)), (d, "arity", 2),
                             (d, "size", 2), (d, "_entries", ()), (e3, "name", "x"),
                             (e3, "size", 2), (e3, "operations", {}), (e3, "_key", None),
                             (e3, "_hash", 0), (d, "extra", 1), (e3, "extra", 1)]:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, value)
        if hasattr(obj, name):
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, name)
    assert d.entries == entries and d.array.tolist() == list(entries)
    assert (d.arity, d.size, e3.name, e3.size, hash(e3)) == (3, 3, "e3", 3, key)
    assert dict(e3.operations) == {"wedge": e3.op("wedge"), "d": d}
    assert str(principal_congruence(e3, 0, 2)) == "0 1 2"


ONE_ALGEBRA = """algebra {name}
size 3
{ops}
"""
OPS = {"f": "op f 1\n1 2 0", "g": "op g 2\n0 1 2\n1 1 2\n2 2 2"}


def test_content_key():
    # equality and hash ignore the algebra name and the declaration order;
    # any entry, symbol or (on one element) arity tells algebras apart
    from smbalg.dsl import parse_algebra
    first = parse_algebra(ONE_ALGEBRA.format(name="a", ops=OPS["f"] + "\n" + OPS["g"]))
    second = parse_algebra(ONE_ALGEBRA.format(name="b", ops=OPS["g"] + "\n" + OPS["f"]))
    assert list(first.operations) != list(second.operations)
    assert first == second and hash(first) == hash(second)
    changed = parse_algebra(ONE_ALGEBRA.format(
        name="a", ops=OPS["f"].replace("1 2 0", "1 2 1") + "\n" + OPS["g"]))
    assert changed != first
    renamed = FiniteAlgebra("a", 3, {"h": first.op("f"), "g": first.op("g")})
    assert renamed != first
    binary = FiniteAlgebra("p", 1, {"f": OperationTable(2, 1, [0])})
    ternary = FiniteAlgebra("p", 1, {"f": OperationTable(3, 1, [0])})
    assert binary != ternary
    assert first != first.op("f")


def test_fresh_parse_hits_the_principal_cache():
    from smbalg import principal_congruence
    from smbalg.dsl import parse_algebra
    text = ONE_ALGEBRA.format(name="cached", ops=OPS["g"])
    cg = principal_congruence(parse_algebra(text), 0, 1)
    hits = principal_congruence.cache_info().hits
    assert principal_congruence(parse_algebra(text), 0, 1) is cg
    assert principal_congruence.cache_info().hits == hits + 1


def test_cached_functions():
    # every module-level cache in smbalg; a new one needs a measured reason
    import importlib
    import pkgutil
    import smbalg
    modules = [importlib.import_module(f"smbalg.{info.name}")
               for info in pkgutil.iter_modules(smbalg.__path__)]
    cached = {f"{mod.__name__}.{name}" for mod in modules
              for name, val in vars(mod).items()
              if hasattr(val, "cache_info") and val.__module__ == mod.__name__}
    assert cached == {"smbalg.relations._translations",
                      "smbalg.relations.principal_congruence",
                      "smbalg.relations._commutator",
                      "smbalg.analyzer.check_regular_base",
                      "smbalg.analyzer._regular_context"}


def test_oracles_stay_apart():
    # the independent references live in smbalg.oracles and are not
    # re-exported, so library code cannot reach them through smbalg
    import smbalg
    from smbalg import oracles
    defined = {name for name, val in vars(oracles).items()
               if getattr(val, "__module__", None) == oracles.__name__}
    assert defined == {"smb_congruences_by_lattice",
                       "congruence_by_alternating_closure",
                       "commutator_oracle", "literal_power",
                       "compose_relations", "eval_term",
                       "unary_polynomials", "generate_subuniverse",
                       "all_subuniverses"}
    assert not defined & set(vars(smbalg))


def test_library_never_reaches_the_oracles():
    # no library module but oracles imports smbalg.oracles or names
    # eval_term, the pointwise reference that only the tests call
    import smbalg
    offences = []
    for path in sorted(Path(smbalg.__file__).parent.glob("*.py")):
        if path.stem == "oracles":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for field in ("module", "name", "id", "attr", "arg"):
                value = getattr(node, field, None)
                if isinstance(value, str) and (
                        value == "eval_term" or "oracles" in value.split(".")):
                    offences.append((path.name, getattr(node, "lineno", None), value))
    assert offences == []


def test_one_closure_loop():
    # the boxes of every subpower closure, traced or orbit-reduced, are
    # evaluated in the one round loop of relations._subpower_closure
    import smbalg

    def calls(tree):
        return sum(isinstance(node, ast.Call) and "_apply_block" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(tree))

    total, callers = 0, []
    for path in sorted(Path(smbalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += calls(tree)
        callers += [(path.stem, func.name) for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and calls(func)]
    # a call inside a nested function would list the nested one too
    assert (total, callers) == (1, [("relations", "_subpower_closure")])


def test_eval_term_examples(e3):
    assert eval_term(e3, D(x, y, z), (0, 1, 0)) == 1
    assert eval_term(e3, D(x, x, y), (0, 2)) == 2
    for a in range(3):
        assert eval_term(e3, x, (a,)) == a


@pytest.mark.parametrize("evaluate", [
    eval_term, lambda alg, term, args: term_table(alg, term, len(args))],
    ids=["eval_term", "term_table"])
def test_eval_term_errors(e3, evaluate):
    # the kernel validates every node the pointwise reference does
    with pytest.raises(AlgebraError, match="unknown operation 'f'"):
        evaluate(e3, App("f", (x,)), (0,))
    with pytest.raises(AlgebraError, match="arity 3 applied to 2"):
        evaluate(e3, App("d", (x, y)), (0, 1))
    with pytest.raises(AlgebraError, match="does not cover variable 1"):
        evaluate(e3, W(x, y), (0,))
    with pytest.raises(AlgebraError, match="literal 5"):
        evaluate(e3, Const(5), ())


def test_materialize_examples(e3):
    wedge = materialize_term(e3, D(x, x, y), 2)
    assert wedge.rows() == [(0, 1, 2), (0, 1, 2), (2, 2, 2)]
    ident = materialize_term(e3, x, 1)
    assert ident.entries == (0, 1, 2)
    # (x^y)^y collapses back to the wedge table
    assert materialize_term(e3, W(W(x, y), y), 2) == e3.op("wedge")
    with pytest.raises(AlgebraError, match="variable 1"):
        materialize_term(e3, W(x, y), 1)


def test_check_identity_examples(e3, s2):
    regiv = Identity(W(W(x, y), y), W(x, y))
    verdict = check_identity(e3, regiv)
    assert verdict.holds
    # independent scan over all nine assignments
    for a, b in itertools.product(range(3), repeat=2):
        assert eval_term(e3, regiv.lhs, (a, b)) == eval_term(e3, regiv.rhs, (a, b))
    bad = check_identity(e3, Identity(D(x, y, z), x))
    # d(0,0,1) = 1 != 0 already fails, and precedes (0,1,0) lexicographically
    assert not bad.holds and bad.witness == (0, 0, 1)
    assert eval_term(e3, D(x, y, z), (0, 1, 0)) == 1  # the larger witness also fails
    comm = Identity(W(W(x, y), W(y, x)), W(y, x))
    assert check_identity(s2, comm).holds


def test_check_identity_least_witness(b2):
    # wedge on b2 is the second projection, so x = x^y first fails at (0, 1)
    verdict = check_identity(b2, Identity(x, W(x, y)))
    assert verdict.witness == (0, 1)


def test_check_quasiidentity(e3, n4):
    from smbalg import smb_axioms
    _, quasis = smb_axioms()
    assert check_quasiidentity(e3, quasis["wedge-compat-1"]).holds
    assert check_quasiidentity(n4, quasis["d-compat-1"]).holds
    assert check_quasiidentity(n4, quasis["d-compat-2"]).holds
    vacuous = Quasiidentity(
        (Identity(x, Const(0)), Identity(x, Const(1))),
        Identity(x, y))
    assert check_quasiidentity(e3, vacuous).holds


def test_classify_operation(e3, b2):
    flags = classify_operation(e3, "d")
    assert (flags.idempotent, flags.wnu, flags.malcev, flags.special_wnu) == \
        (True, True, False, True)
    assert classify_operation(b2, "d").malcev
    wflags = classify_operation(b2, "wedge")
    assert wflags.second_projection and not wflags.wnu


def test_non_idempotent_flags():
    t = OperationTable(2, 2, [1, 1, 1, 1])
    flags = table_flags(t)
    assert not flags.idempotent and not flags.wnu


def test_wnu_circ_convention(corpus):
    # for a wnu w, w(y, x, ..., x) agrees with x o y := w(x, ..., x, y)
    for entry in corpus:
        for sym, table in entry.algebra.operations.items():
            if not table_flags(table).wnu or table.arity < 2:
                continue
            k = table.arity
            for a in range(table.size):
                for b in range(table.size):
                    assert table.apply(*((b,) + (a,) * (k - 1))) == \
                        table.apply(*((a,) * (k - 1) + (b,)))


def test_materialize_round_trip(corpus):
    rng = random.Random(11)
    for entry in corpus[:12]:
        alg = entry.algebra
        sig = {s: t.arity for s, t in alg.operations.items()}
        for _ in range(8):
            nvars = rng.randrange(1, 4)
            term = random_term(rng, sig, nvars, 3, allow_const=alg.size)
            table = materialize_term(alg, term, nvars)
            for args in itertools.product(range(alg.size), repeat=nvars):
                assert table.apply(*args) == eval_term(alg, term, args)


def test_idempotent_algebra_constant_terms(corpus):
    rng = random.Random(23)
    idem = [e for e in corpus if e.has("smb") or e.has("extension")]
    for entry in idem:
        alg = entry.algebra
        sig = {s: t.arity for s, t in alg.operations.items()}
        for _ in range(100 // len(idem) + 3):
            term = random_term(rng, sig, 2, 3)
            for a in range(alg.size):
                assert eval_term(alg, term, (a, a)) == a


def test_substitute():
    t = W(x, D(y, x, z))
    s = substitute(t, {0: Const(2), 2: Var(0)})
    assert s == W(Const(2), D(y, Const(2), Var(0)))
