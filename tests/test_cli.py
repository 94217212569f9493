import json
import time

import pytest

from smbalg import parse_algebra
from smbalg.cli import main


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


def test_pipeline_command(e3_file, capsys):
    assert main(["pipeline", e3_file, "d", "--sim", "0 1 | 2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stages"]["circ"]["entries"] == [0, 1, 2, 0, 1, 2, 2, 2, 2]
    assert payload["semilattice_term"]["conclusion_holds"]
    assert main(["pipeline", e3_file, "nope"]) == 2


def test_construct_builtins(tmp_path, capsys):
    assert main(["construct", "b2"]) == 0
    text = capsys.readouterr().out
    alg = parse_algebra(text)
    assert alg.name == "b2" and alg.size == 2


def test_construct_extend(e3_file, tmp_path, capsys):
    out_path = tmp_path / "ext.alg"
    assert main(["construct", "extend", e3_file, "d", "-o", str(out_path)]) == 0
    ext = parse_algebra(out_path.read_text())
    assert ext.size == 6 and "v" in ext.operations


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
