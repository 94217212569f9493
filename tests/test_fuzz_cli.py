"""Derandomized fuzzing of the CLI: every run exits 0, 1 or 2.

Three sources of input go through `cli.main`: mutated `.alg` text
(derive lines included), mutated partition and element text on a valid
file, and regular corpus algebras with one random extra operation.  Exit 3
(falsification) or an uncaught exception fails the test.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from smbalg import FiniteAlgebra, OperationTable, format_algebra
from smbalg.cli import main

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)

_ALPHABET = "0123456789 \n@(),=|#-_xyzdfw²"
_DERIVE = "derive t 2 = d(x, wedge(x, y), y)\n"


def _exit(argv) -> int:
    """main's exit code; argparse's usage errors exit through SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _mutate(data, text: str) -> str:
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["insert", "delete", "replace", "number", "line"]))
        pos = data.draw(st.integers(0, max(len(text) - 1, 0)))
        if kind == "insert":
            text = text[:pos] + data.draw(st.sampled_from(_ALPHABET)) + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1:]
        elif kind == "replace":
            text = text[:pos] + data.draw(st.sampled_from(_ALPHABET)) + text[pos + 1:]
        elif kind == "number":
            # one number (a size, an arity, an entry, an element) set anew;
            # kept small so that no derived table is large
            numbers = list(re.finditer(r"\d+", text))
            if numbers:
                m = numbers[pos % len(numbers)]
                text = text[:m.start()] + str(data.draw(st.integers(0, 6))) + text[m.end():]
        else:
            lines = text.split("\n")
            i = pos % len(lines)
            lines[i:i + 1] = data.draw(st.sampled_from([[], [lines[i]] * 2]))
            text = "\n".join(lines)
    return text


def _small(corpus, *tags):
    return [e for e in corpus if e.algebra.size <= 4 and e.has(*tags)]


def test_fuzz_algebra_text(corpus, tmp_path):
    texts = [format_algebra(e.algebra) + _DERIVE for e in _small(corpus, "smb")]
    path, out = tmp_path / "fuzz.alg", tmp_path / "out.alg"
    commands = (["check-smb"], ["check-regular"], ["verify-base"], ["con"],
                ["verify", "taylor"], ["verify", "cg-d3"], ["pipeline", "{f}", "d"],
                ["cg", "{f}", "0", "1"], ["regularize", "{f}", "-o", str(out)])

    @FUZZ
    @given(st.data())
    def run(data):
        path.write_text(_mutate(data, data.draw(st.sampled_from(texts))), encoding="utf-8")
        command = data.draw(st.sampled_from(commands))
        argv = [a.format(f=path) for a in command]
        if "{f}" not in command:
            argv.append(str(path))
        assert _exit(argv) in (0, 1, 2), argv

    run()


def test_fuzz_partition_text(e3, n4, tmp_path):
    files = []
    for alg in (e3, n4):
        path = tmp_path / f"{alg.name}.alg"
        path.write_text(format_algebra(alg), encoding="utf-8")
        files.append((str(path), alg.size))

    @FUZZ
    @given(st.data())
    def run(data):
        path, n = data.draw(st.sampled_from(files))
        valid = ["0 1 | " + " ".join(map(str, range(2, n))), " ".join(map(str, range(n))),
                 " | ".join(map(str, range(n)))]

        def text():
            return _mutate(data, data.draw(st.sampled_from(valid + ["0", "1"])))

        argv = data.draw(st.sampled_from([
            lambda: ["check-smb", path, "--sim=" + text()],
            lambda: ["cg", path, text(), text()],
            lambda: ["commutator", path, text(), text()],
            lambda: ["pipeline", path, "d", "--sim=" + text()],
        ]))()
        assert _exit(argv) in (0, 1, 2), argv

    run()


def test_fuzz_extra_operation(corpus, tmp_path):
    # the twelve base identities speak of wedge and d only; an extra
    # operation that breaks SMB is a precondition failure, not exit 3
    algebras = [e.algebra for e in _small(corpus, "regular")]
    path, out = tmp_path / "extra.alg", tmp_path / "extra_reg.alg"
    commands = (["verify-base"], ["verify", "cg-d3"], ["verify", "cgvsim"],
                ["verify", "undersim"], ["verify", "commutator"], ["check-smb"],
                ["check-regular"], ["regularize", "-o", str(out)])

    @FUZZ
    @given(st.data())
    def run(data):
        alg = data.draw(st.sampled_from(algebras))
        n = alg.size
        arity = data.draw(st.integers(1, 2))
        entries = data.draw(st.lists(st.integers(0, n - 1), min_size=n ** arity,
                                     max_size=n ** arity))
        if data.draw(st.booleans()):
            for x in range(n):
                entries[x * (n ** arity - 1) // (n - 1) if n > 1 else 0] = x
        extra = FiniteAlgebra(alg.name, n, {**alg.operations,
                                            "f": OperationTable(arity, n, entries)})
        path.write_text(format_algebra(extra), encoding="utf-8")
        argv = data.draw(st.sampled_from(commands)) + [str(path)]
        assert _exit(argv) in (0, 1, 2), argv

    run()
