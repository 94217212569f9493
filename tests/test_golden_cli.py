"""Golden CLI output: the `--json` stdout of the recognition commands is
byte-identical to the recorded sha256 digests.

The inputs are every corpus entry with n <= 6 and three seeded random
{wedge/2, d/3} algebras; the non-SMB inputs pin the failing witnesses.
Each key is "<algebra>/<command>" and each value "<exit code>:<sha256 of
stdout>", with the work directory in stdout read as WORKDIR.  `pipeline d`
and `construct extend FILE d` run only where d is a wnu, and on those SMB
entries `pipeline d --sim SIM` too.  The SMB entries also run `cg` on 0
and n-1, `commutator` on (1_A, 1_A) and (sim, 1_A), `regularize`, whose
written file has its own key "<algebra>/regularize-file" (the sha256 of
the file, or "missing"), and `verify cg-d3|cgvsim|undersim|commutator`.

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

from smbalg import (Partition, build_corpus, format_algebra,
                    random_algebra, table_flags)
from smbalg.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
COMMANDS = {
    "check-smb": ["check-smb", "FILE"],
    "check-regular": ["check-regular", "FILE"],
    "verify-base": ["verify-base", "FILE"],
    "verify-taylor": ["verify", "taylor", "FILE"],
    "con": ["con", "FILE"],
}
WNU_COMMANDS = {
    "pipeline-d": ["pipeline", "FILE", "d"],
    "construct-extend": ["construct", "extend", "FILE", "d"],
}
PIPELINE_SIM = {"pipeline-d-sim": ["pipeline", "FILE", "d", "--sim", "SIM"]}
SMB_COMMANDS = {
    "cg": ["cg", "FILE", "0", "LAST"],
    "commutator-1A-1A": ["commutator", "FILE", "ONE", "ONE"],
    "commutator-sim-1A": ["commutator", "FILE", "SIM", "ONE"],
    "regularize": ["regularize", "FILE", "-o", "OUT"],
    "verify-cg-d3": ["verify", "cg-d3", "FILE"],
    "verify-cgvsim": ["verify", "cgvsim", "FILE"],
    "verify-undersim": ["verify", "undersim", "FILE"],
    "verify-commutator": ["verify", "commutator", "FILE"],
}


def golden_inputs() -> list:
    """(algebra, sim) per input, with sim None unless the entry is SMB."""
    inputs = [(e.algebra, e.sim if e.has("smb") else None)
              for e in build_corpus() if e.algebra.size <= 6]
    inputs += [(random_algebra(n, {"wedge": 2, "d": 3}, seed), None)
               for n, seed in ((4, 1), (5, 2), (6, 3))]
    return inputs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv, workdir: pathlib.Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"])
    return f"{code}:{_digest(out.getvalue().replace(str(workdir), 'WORKDIR'))}"


def cli_digests(workdir: pathlib.Path) -> dict:
    digests = {}
    for alg, sim in golden_inputs():
        path = workdir / f"{alg.name}.alg"
        output = workdir / f"{alg.name}.regularized.alg"
        path.write_text(format_algebra(alg), encoding="utf-8")
        commands = dict(COMMANDS)
        wnu = alg.has_op("d") and table_flags(alg.op("d")).wnu
        if wnu:
            commands.update(WNU_COMMANDS)
        words = {"FILE": str(path), "OUT": str(output)}
        if sim is not None:
            commands.update(SMB_COMMANDS)
            if wnu:
                commands.update(PIPELINE_SIM)
            words.update(LAST=str(alg.size - 1), SIM=str(sim),
                         ONE=str(Partition.one(alg.size)))
        for label, argv in commands.items():
            digests[f"{alg.name}/{label}"] = _run([words.get(a, a) for a in argv],
                                                  workdir)
        if sim is not None:
            digests[f"{alg.name}/regularize-file"] = (
                _digest(output.read_text(encoding="utf-8")) if output.exists()
                else "missing")
    return digests


def test_cli_json_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = cli_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert not changed, changed
