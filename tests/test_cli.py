import json
import random
import time
from pathlib import Path

import pytest

from smbalg import (affine_block, format_algebra, glue_layout, glue_smb,
                    parse_algebra, random_semilattice)
from smbalg.cli import _json_text, main

from conftest import module_caches, parity_algebra


@pytest.fixture()
def e3_file(tmp_path):
    path = tmp_path / "e3.alg"
    assert main(["construct", "e3", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def n4_file(tmp_path):
    path = tmp_path / "n4.alg"
    assert main(["construct", "n4", "-o", str(path)]) == 0
    return str(path)


def test_verify_base_e3(e3_file, capsys):
    assert main(["verify-base", e3_file]) == 0
    out = capsys.readouterr().out
    assert out.count("holds") == 12
    assert "recovered sim: 0 1 | 2" in out


def test_verify_base_n4(n4_file, capsys):
    assert main(["verify-base", n4_file]) == 1
    out = capsys.readouterr().out
    assert "Regiv fails at (0, 2)" in out


def test_cg_json(e3_file, capsys):
    assert main(["cg", e3_file, "0", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partition"] == "0 1 2"
    assert payload["classes"] == [[0, 1, 2]]


def test_check_smb(e3_file, capsys):
    assert main(["check-smb", e3_file, "--sim", "0 1 | 2"]) == 0
    assert main(["check-smb", e3_file, "--sim", "0 | 1 2"]) == 1
    assert main(["check-smb", e3_file]) == 0
    out = capsys.readouterr().out
    assert "0 1 | 2" in out


def test_check_smb_json_shape(e3_file, capsys):
    assert main(["check-smb", e3_file, "--sim", "0 2 | 1", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"verdict", "sim", "violations"}
    assert payload["violations"] and {"rule", "witness"} == set(payload["violations"][0])


def test_check_regular(e3_file, n4_file, capsys):
    assert main(["check-regular", e3_file]) == 0
    assert main(["check-regular", n4_file]) == 1
    out = capsys.readouterr().out
    assert "(ii) fails at (0, 2)" in out


def test_con_command(e3_file, capsys):
    assert main(["con", e3_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["congruences"] == ["0 | 1 | 2", "0 1 | 2", "0 1 2"]
    assert payload["covers"] == [[0, 1], [1, 2]]


def test_con_keeps_no_state(tmp_path, capsys):
    """con leaves every module cache alone, the translations included, which
    its principal table reads once and uncached; a second run on the same
    file prints the same JSON."""
    alg = glue_smb(random_semilattice(3, random.Random(2022)),
                   {c: affine_block(s) for c, s in enumerate((2, 2, 3))},
                   {0: 1, 1: 3, 2: 5}, name="glued7_stateless")
    path = tmp_path / "glued7_stateless.alg"
    path.write_text(format_algebra(alg), encoding="utf-8")
    caches = module_caches()

    def infos():
        return {name: cache.cache_info() for name, cache in caches.items()}

    before = infos()
    assert main(["con", str(path), "--json"]) == 0
    first = capsys.readouterr().out
    assert infos() == before
    assert main(["con", str(path), "--json"]) == 0
    assert capsys.readouterr().out == first
    assert infos() == before
    assert len(json.loads(first)["congruences"]) > 2


def test_commutator_command(e3_file, capsys):
    assert main(["commutator", e3_file, "0 1 | 2", "0 1 | 2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partition"] == "0 | 1 | 2"
    # non-congruence input is a usage error
    assert main(["commutator", e3_file, "0 2 | 1", "0 1 | 2"]) == 2


def test_verify_sweeps(e3_file, capsys):
    for which in ("taylor", "cg-d3", "cgvsim", "undersim", "commutator"):
        assert main(["verify", which, e3_file]) == 0, which


def test_verify_sweep_payloads(e3_file, capsys):
    # the counts the per-tuple loop over all 81 tuples gave
    for which, true in (("cgvsim", 61), ("undersim", 65), ("commutator", 65)):
        assert main(["verify", which, e3_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"verdict": True, "tuples": 81, "true": true}, which
    # one chain per pair of Cg(a, b), summed over a <= b
    assert main(["verify", "cg-d3", e3_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": True, "pairs": 32}


def test_verify_needs_regular(n4_file, capsys):
    assert main(["verify", "cg-d3", n4_file]) == 2


@pytest.mark.parametrize("which", ["cgvsim", "undersim", "commutator"])
def test_verify_sweeps_need_regular(n4_file, capsys, which):
    assert main(["verify", which, n4_file]) == 2
    assert "error: 'n4' does not satisfy the regular base" in capsys.readouterr().err


def test_regularize_command(n4_file, tmp_path, capsys):
    out_path = tmp_path / "n4reg.alg"
    assert main(["regularize", n4_file, "-o", str(out_path)]) == 0
    assert main(["verify-base", str(out_path)]) == 0


def test_other_operations(e3_file, tmp_path, capsys):
    # e3 with a binary f that is not compatible with sim: the base holds,
    # so every base-dependent command refuses the input with exit 2
    text = Path(e3_file).read_text(encoding="utf-8")
    bad = tmp_path / "e3x.alg"
    bad.write_text(text + "op f 2\n0 2 0\n2 1 1\n0 1 2\n", encoding="utf-8")
    capsys.readouterr()
    for argv in (["verify-base"], ["verify", "cg-d3"], ["verify", "cgvsim"],
                 ["verify", "undersim"], ["verify", "commutator"]):
        assert main(argv + [str(bad)]) == 2, argv
        err = capsys.readouterr().err
        assert "('Congruence', ('f', (0, 0), (1, 0)))" in err and "falsification" not in err
    assert main(["check-smb", str(bad)]) == 1
    # with f the first projection, regularize keeps f after wedge and d
    proj = tmp_path / "e3p.alg"
    proj.write_text(text + "op f 2\n0 0 0\n1 1 1\n2 2 2\n", encoding="utf-8")
    plain, kept = tmp_path / "e3_reg.alg", tmp_path / "e3p_reg.alg"
    assert main(["regularize", e3_file, "-o", str(plain)]) == 0
    assert main(["regularize", str(proj), "-o", str(kept)]) == 0
    assert kept.read_text(encoding="utf-8") == \
        plain.read_text(encoding="utf-8") + "op f 2\n0 0 0\n1 1 1\n2 2 2\n"
    assert main(["verify-base", str(kept)]) == 0


def test_pipeline_command(e3_file, tmp_path, capsys):
    assert main(["pipeline", e3_file, "d", "--sim", "0 1 | 2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stages"]["circ"]["entries"] == [0, 1, 2, 0, 1, 2, 2, 2, 2]
    assert payload["semilattice_term"]["conclusion_holds"]
    assert main(["pipeline", e3_file, "nope"]) == 2
    # the identity map is idempotent, but a wnu has arity at least 2
    unary = tmp_path / "unary.alg"
    unary.write_text("algebra unary\nsize 3\nop f 1\n0 1 2\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["pipeline", str(unary), "f"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "is not a weak near-unanimity operation" in err


def test_construct_builtins(tmp_path, capsys):
    assert main(["construct", "b2"]) == 0
    text = capsys.readouterr().out
    alg = parse_algebra(text)
    assert alg.name == "b2" and alg.size == 2


B2_TEXT = "algebra b2\nsize 2\nop wedge 2\n0 1\n0 1\nop d 3\n0 1\n1 0\n1 0\n0 1\n"


def test_construct_prints_exact_bytes(capfdbinary):
    # without -o, the text form is the .alg file itself, and --json wraps it
    # in the two-space indented object every command prints
    assert main(["construct", "b2"]) == 0
    assert capfdbinary.readouterr().out == B2_TEXT.encode()
    assert main(["construct", "b2", "--json"]) == 0
    assert capfdbinary.readouterr().out == (
        '{\n  "name": "b2",\n  "text": "' + B2_TEXT.replace("\n", "\\n") + '"\n}\n').encode()


def test_construct_extend(e3_file, tmp_path, capsys):
    out_path = tmp_path / "ext.alg"
    assert main(["construct", "extend", e3_file, "d", "-o", str(out_path)]) == 0
    ext = parse_algebra(out_path.read_text())
    assert ext.size == 6 and "v" in ext.operations


def test_extend_and_pipeline_sim_leave_the_principal_table_alone(e3_file, tmp_path, capsys):
    # the extension reads one uncached principal table and leaves every
    # module cache alone; the maximality of sim generates only the
    # congruences it reads, and caches no table
    from smbalg import relations
    table = relations._principal_table
    table.cache_clear()
    caches = module_caches()
    before = {name: cache.cache_info() for name, cache in caches.items()}
    assert main(["construct", "extend", e3_file, "d", "-o", str(tmp_path / "ext.alg")]) == 0
    assert {name: cache.cache_info() for name, cache in caches.items()} == before
    capsys.readouterr()
    assert main(["--json", "pipeline", e3_file, "d", "--sim", "0 1 | 2"]) == 0
    assert json.loads(capsys.readouterr().out)["semilattice_term"]["hypotheses"]["sim_maximal"]
    assert table.cache_info().currsize == 0


def test_regularize_output_keeps_no_entries_tuple(n4_file, tmp_path):
    # the written algebra is the one check_regular_base caches: formatting
    # it leaves no tuple of Python ints on its tables
    from smbalg import check_regular_base
    check_regular_base.cache_clear()
    out = tmp_path / "n4_reg.alg"
    assert main(["regularize", n4_file, "-o", str(out)]) == 0
    report = check_regular_base(parse_algebra(out.read_text(encoding="utf-8")))
    assert report.holds
    assert all(t._entries is None for t in report.algebra.operations.values())


def test_construct_extend_above_cap_exit(tmp_path, capsys):
    path = tmp_path / "par11.alg"
    path.write_text(format_algebra(parity_algebra(11)))
    assert main(["construct", "extend", str(path), "w"]) == 2
    assert "beyond the cap" in capsys.readouterr().err


@pytest.mark.parametrize("what, extra", [("e3", ["copy.alg"]), ("n4", ["a", "b"])])
def test_construct_builtin_refuses_file_and_w(tmp_path, capsys, what, extra):
    # a built-in takes no FILE or W: exit 2 before any output, and no file
    # is written
    assert main(["construct", what, *(str(tmp_path / x) for x in extra)]) == 2
    assert capsys.readouterr() == (
        "", f"error: construct {what} takes no FILE or W; write it with -o OUT\n")
    assert list(tmp_path.iterdir()) == []


def test_corpus_command(capsys):
    assert main(["corpus", "--max-size", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [e["name"] for e in payload["corpus"]]
    assert "e3" in names and "n4" in names
    assert all(e["size"] <= 5 for e in payload["corpus"])


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nsize 2\nop f 1\n0\n5\n")
    assert main(["cg", str(bad), "0", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["con", "/nonexistent/x.alg"]) == 2


def test_json_flag_before_subcommand(e3_file, capsys):
    assert main(["--json", "cg", e3_file, "0", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partition"] == "0 1 | 2"


def _random_payload(rng, depth=0):
    """A nested value of the kinds `json.dumps` takes: scalars, strings
    with quotes, escapes and non-ASCII text, int and string lists, lists
    of int lists (some empty), tuples, and dicts, a few with a float or a
    non-`str` key."""
    leaves = [0, -1, 7, -(2 ** 70), 2 ** 64 + 3, True, False, None, 1.5, -0.0,
              "", "x", 'q"uo\\te', "tab\tnew\nline\x00\x1f", "é ü ž ∧ 😀"]
    roll = rng.random()
    if depth >= 4 or roll < 0.25:
        return rng.choice(leaves)
    if roll < 0.4:
        return [rng.randrange(-3, 300) for _ in range(rng.randrange(4))]
    if roll < 0.5:
        return [[rng.randrange(12) for _ in range(rng.randrange(3))]
                for _ in range(rng.randrange(4))]
    if roll < 0.6:
        return tuple(rng.choice(leaves[10:]) for _ in range(rng.randrange(4)))
    if roll < 0.8:
        return [_random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    keys = ["verdict", "sim", "é", 'k"ey', "a\nb"]
    if rng.random() < 0.15:
        keys.append(rng.choice([1, 2.5, None, True]))
    return {rng.choice(keys): _random_payload(rng, depth + 1)
            for _ in range(rng.randrange(4))}


def test_json_text_matches_json_dumps():
    # the --json writer prints exactly what json.dumps(payload, indent=2) does
    rng = random.Random(37)
    payloads = [_random_payload(rng) for _ in range(3000)]
    payloads += [{}, [], (), {"a": {}, "b": [], "c": ()}, [[], [1], []],
                 [[0, 1], [2]], [{"name": "e3", "size": 3}], -5, 2.5,
                 {1: "int key"}, {"x": 1, 2: "mixed keys"}, {"f": float("nan")},
                 {"text": format_algebra(parse_algebra(B2_TEXT))}]
    kinds = {type(p) for p in payloads}
    assert {dict, list, tuple, int, float, bool, str, type(None)} <= kinds
    for payload in payloads:
        assert _json_text(payload) == json.dumps(payload, indent=2), payload


@pytest.mark.parametrize("argv", [
    ["con", "{e3}"], ["corpus", "--max-size", "4"], ["pipeline", "{e3}", "d"],
    ["construct", "b2"], ["check-smb", "{e3}", "--sim", "0 2 | 1"],
    ["verify-base", "{e3}"],
])
def test_json_output_is_json_dumps_text(e3_file, capsys, argv):
    main(["--json"] + [a.format(e3=e3_file) for a in argv])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_output_deterministic(e3_file, capsys):
    main(["verify-base", e3_file, "--json"])
    first = capsys.readouterr().out
    main(["verify-base", e3_file, "--json"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("text", [
    "algebra x\nsize ²\nop f 1\n0 1\n",          # a superscript two
    "algebra x\nsize 2\nop f 1\n0 ¹\n",          # a superscript one
])
def test_non_decimal_digits_exit(tmp_path, capsys, text):
    bad = tmp_path / "digits.alg"
    bad.write_text(text, encoding="utf-8")
    assert main(["check-smb", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cg", "{file}", "1_0", "1"],                   # int() reads it as 10
    ["cg", "{file}", "0", "+1"],
    ["commutator", "{file}", "+0 1 | 2", "0 1 2"],
    ["check-smb", "{file}", "--sim", "0 1_0 | 2"],
])
def test_non_decimal_elements_exit(e3_file, capsys, argv):
    assert main([a.format(file=e3_file) for a in argv]) == 2
    assert "bad element" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    f"algebra x\nsize {'1' * 5000}\nop f 1\n0\n",
    f"algebra x\nsize 2\nop f {'1' * 5000}\n0 1\n",
    f"algebra x\nsize 2\nop f 1\n1 0\nderive g {'1' * 5000} = f(x)\n",
    f"algebra x\nsize 2\nop f 1\n1 0\nderive g 1 = f(@{'1' * 5000})\n",
])
def test_long_numbers_in_file_exit(tmp_path, capsys, text):
    # more digits than `int` converts: a parse error, not a traceback
    bad = tmp_path / "long.alg"
    bad.write_text(text)
    assert main(["check-smb", str(bad)]) == 2
    assert "digits is out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cg", "{file}", "0", "1" * 5000],
    ["check-smb", "{file}", "--sim", f"0 1 | {'2' * 5000}"],
    ["commutator", "{file}", f"0 {'0' * 4999}1 | 2", "0 1 2"],
])
def test_long_elements_exit(e3_file, capsys, argv):
    assert main([a.format(file=e3_file) for a in argv]) == 2
    assert "5000 digits" in capsys.readouterr().err


def test_non_utf8_file_exit(tmp_path, capsys):
    bad = tmp_path / "latin1.alg"
    bad.write_bytes("algebra café\nsize 1\nop f 1\n0\n".encode("latin-1"))
    assert main(["check-smb", str(bad)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_deeply_nested_derive_exit(tmp_path, capsys):
    depth = 3000
    term = "f(" * depth + "x" + ")" * depth
    bad = tmp_path / "deep.alg"
    bad.write_text(f"algebra x\nsize 2\nop f 1\n1 0\nderive g 1 = {term}\n")
    assert main(["check-smb", str(bad)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("arity", [3, 10 ** 9])
def test_large_derive_exit(tmp_path, capsys, arity):
    # the derived table would have 3000**arity entries: refused before any work
    n = 3000
    big = tmp_path / "big.alg"
    big.write_text(f"algebra big\nsize {n}\nop f 1\n"
                   + " ".join(str((i + 1) % n) for i in range(n))
                   + f"\nderive g {arity} = f(x0)\n")
    start = time.perf_counter()
    assert main(["con", str(big)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "beyond the cap" in capsys.readouterr().err


def test_corpus_past_the_cap_exit(capsys):
    # a size-190 semilattice's d table would have 190^3 entries: refused
    # before the first entry is built
    start = time.perf_counter()
    assert main(["corpus", "--max-size", "190"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "190^3 entries, beyond the cap" in capsys.readouterr().err


@pytest.mark.parametrize("max_size", ["0", "-5"])
def test_corpus_below_one_exit(max_size, capsys):
    # no corpus entry has fewer than one element: refused, not an empty list
    assert main(["corpus", "--max-size", max_size]) == 2
    assert f"corpus max size must be >= 1, got {max_size}" in capsys.readouterr().err


def test_table_past_int64_exit(tmp_path, capsys):
    # a 3000-digit size converts, but its square has more digits than str
    # prints: the op line is refused before the power is formed
    bad = tmp_path / "huge.alg"
    bad.write_text(f"algebra a\nsize {'1' * 3000}\nop f 2\n0 1\n")
    start = time.perf_counter()
    assert main(["check-smb", str(bad)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "line 3" in err and "Traceback" not in err


def test_a4_refused_before_any_work(e3_file, monkeypatch, capsys):
    # 3**4 = 81 entries over a cap of 80: `verify commutator` and `pipeline
    # --sim` exit 2 before a regular base, a principal table or a pipeline
    # stage is computed
    from smbalg import analyzer, core, pipeline
    calls = []
    for module, name in ((analyzer, "_regular_context"),
                         (analyzer, "_principal_table"), (pipeline, "iterate_wnu")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    monkeypatch.setattr(core, "FAST_CLOSURE_SPACE_CAP", 80)
    for argv in (["verify", "commutator", e3_file],
                 ["pipeline", e3_file, "d", "--sim", "0 1 | 2"]):
        assert main(argv) == 2
        assert "A^4 would have 3^4 entries, beyond the cap of 80" in capsys.readouterr().err
    assert calls == []


def test_cg_d3_json_does_not_depend_on_chunks(tmp_path, monkeypatch, capsys):
    # `verify cg-d3` closes the D-relations of the 36 pairs a <= b of a
    # regularized glued algebra of size 8 in one lane closure; with the cap
    # patched so that one bitmap holds 5 lanes, or 1, they close in 8 or 36
    # chunks, and the JSON is byte for byte that of one chunk
    from smbalg import core, regularize, relations
    sl = random_semilattice(3, random.Random(3))
    blocks = {0: affine_block(3), 1: affine_block(3), 2: affine_block(2)}
    alg = regularize(glue_smb(sl, blocks), glue_layout(sl, blocks))
    path = tmp_path / "glued8_reg.alg"
    path.write_text(format_algebra(alg), encoding="utf-8")
    rounds, calls = relations._closure_rounds, []
    monkeypatch.setattr(relations, "_closure_rounds",
                        lambda *a: calls.append(len(a[2])) or rounds(*a))
    assert main(["--json", "verify", "cg-d3", str(path)]) == 0
    whole = capsys.readouterr().out
    assert calls == [36] and json.loads(whole)["verdict"] is True
    for cap, chunks in ((40, 8), (8, 36)):
        calls.clear()
        monkeypatch.setattr(core, "FAST_CLOSURE_SPACE_CAP", cap)
        assert main(["--json", "verify", "cg-d3", str(path)]) == 0
        assert capsys.readouterr().out == whole
        assert len(calls) == 1 + chunks


def test_pipeline_sim_runs_the_pipeline_once(e3_file, monkeypatch, capsys):
    from smbalg import pipeline
    calls = []
    real = pipeline.iterate_wnu
    monkeypatch.setattr(pipeline, "iterate_wnu", lambda *a: calls.append(a) or real(*a))
    assert main(["--json", "pipeline", e3_file, "d", "--sim", "0 1 | 2"]) == 0
    assert "semilattice_term" in json.loads(capsys.readouterr().out)
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["check-smb", "{file}"], ["verify-base", "{file}"], ["check-regular", "{file}"],
    ["verify", "cg-d3", "{file}"], ["regularize", "{file}", "-o", "{out}"],
    ["con", "{file}"],
])
def test_arity_beyond_the_cap_exit(tmp_path, capsys, argv):
    # one array axis per argument: arity 32 loads, 33 and 70 are refused
    for arity in (32, 33, 70):
        path = tmp_path / f"arity{arity}.alg"
        path.write_text("algebra a\nsize 1\nop wedge 2\n0\nop d 3\n0\n"
                        f"op f {arity}\n0\n")
        rc = main([a.format(file=path, out=tmp_path / "out.alg") for a in argv])
        err = capsys.readouterr().err
        if arity == 32:
            assert rc == 0
        else:
            assert rc == 2 and f"arity {arity} is beyond the cap of 32" in err


def test_recognition_beyond_the_lattice_cap(tmp_path, capsys):
    # n = 12 is above LATTICE_SIZE_CAP: check-smb, regularize and
    # check-regular answer from the wedge table, while con still refuses
    rng = random.Random(12)
    tree = random_semilattice(4, rng)
    blocks = {c: affine_block(3) for c in range(4)}
    alg = glue_smb(tree, blocks, {c: 3 * c + 2 for c in range(4)}, name="glued12")
    sim = glue_layout(tree, blocks)
    path, reg = tmp_path / "glued12.alg", tmp_path / "glued12_reg.alg"
    path.write_text(format_algebra(alg), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-smb", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] and payload["sims"] == [str(sim)]
    assert main(["check-regular", str(path)]) == 1
    assert main(["regularize", str(path), "-o", str(reg)]) == 0
    capsys.readouterr()
    assert main(["check-regular", str(reg), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] and payload["sim"] == str(sim)
    assert main(["con", str(path)]) == 2
    assert "congruence lattice capped at universe size 10" in capsys.readouterr().err
