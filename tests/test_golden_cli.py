"""Golden CLI output: the `--json` stdout of the recognition commands is
byte-identical to the recorded sha256 digests.

The inputs are every corpus entry with n <= 6 and three seeded random
{wedge/2, d/3} algebras; the non-SMB inputs pin the failing witnesses.
Each key is "<algebra>/<command>" and each value "<exit code>:<sha256 of
stdout>".  `pipeline d` runs only where d is a wnu.

The digests in golden_cli.json were recorded from a known-good build with

    PYTHONPATH=src:tests python -c "import json, tempfile, pathlib, \
        test_golden_cli as g; print(json.dumps(g.cli_digests( \
        pathlib.Path(tempfile.mkdtemp())), indent=1, sort_keys=True))" \
        > tests/golden_cli.json
"""

import contextlib
import hashlib
import io
import json
import pathlib

from smbalg import (build_corpus, classify_operation, format_algebra,
                    random_algebra)
from smbalg.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
COMMANDS = {
    "check-smb": ["check-smb", "FILE"],
    "check-regular": ["check-regular", "FILE"],
    "verify-base": ["verify-base", "FILE"],
    "verify-taylor": ["verify", "taylor", "FILE"],
    "con": ["con", "FILE"],
}
PIPELINE = {"pipeline-d": ["pipeline", "FILE", "d"]}


def golden_algebras() -> list:
    algs = [e.algebra for e in build_corpus() if e.algebra.size <= 6]
    algs += [random_algebra(n, {"wedge": 2, "d": 3}, seed)
             for n, seed in ((4, 1), (5, 2), (6, 3))]
    return algs


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"])
    return f"{code}:{hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def cli_digests(workdir: pathlib.Path) -> dict:
    digests = {}
    for alg in golden_algebras():
        path = workdir / f"{alg.name}.alg"
        path.write_text(format_algebra(alg), encoding="utf-8")
        commands = dict(COMMANDS)
        if alg.has_op("d") and classify_operation(alg, "d").wnu:
            commands.update(PIPELINE)
        for label, argv in commands.items():
            digests[f"{alg.name}/{label}"] = _run(
                [str(path) if a == "FILE" else a for a in argv])
    return digests


def test_cli_json_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = cli_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert not changed, changed
