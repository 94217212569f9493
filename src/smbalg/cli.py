"""Command-line surface.

Exit codes: 0 verdict holds / success, 1 verdict fails (report printed),
2 usage or parse error, 3 internal falsification (a checked mathematical
guarantee failed; must never happen on valid regular SMB inputs).
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (AlgebraError, CapExceeded, FalsificationError,
                   FiniteAlgebra, PreconditionError)
from .partitions import Partition
from .relations import commutator, congruence_lattice, principal_congruence
from .analyzer import (check_regular, check_regular_base, check_smb_over,
                       count_biconditional, find_smb_congruences,
                       taylor_check, verify_cg_d3, BASE_IDENTITY_NAMES)
from .pipeline import regularize, run_pipeline, semilattice_term
from .constructions import (example_b2, example_e3, example_n4, example_s2,
                            extend_simple_type5, build_corpus, CorpusSpec)
from .dsl import ParseError, format_algebra, parse_algebra

BUILTINS = {"e3": example_e3, "b2": example_b2, "s2": example_s2, "n4": example_n4}


def _load(path: str) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise AlgebraError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_algebra(text)


def _emit(args, payload: dict, lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _partition_payload(p: Partition) -> dict:
    return {"partition": str(p), "classes": p.json_classes()}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check_smb(args) -> int:
    alg = _load(args.file)
    if args.sim is not None:
        sim = Partition.parse(args.sim, alg.size)
        report = check_smb_over(alg, sim)
        payload = report.as_dict()
        lines = [f"smb over {sim}: {'holds' if report.verdict else 'fails'}"]
        lines += [f"  {rule} fails at {tuple(w)}" for rule, w in report.violations]
        _emit(args, payload, lines)
        return 0 if report.verdict else 1
    sims = find_smb_congruences(alg)
    payload = {"verdict": bool(sims),
               "sim": str(sims[0]) if sims else None,
               "sims": [str(s) for s in sims],
               "violations": []}
    lines = ([f"smb: holds over {len(sims)} congruence(s)"]
             + [f"  {s}" for s in sims]) if sims else ["smb: fails (no witness congruence)"]
    _emit(args, payload, lines)
    return 0 if sims else 1


def _cmd_check_regular(args) -> int:
    alg = _load(args.file)
    sims = find_smb_congruences(alg)
    if not sims:
        _emit(args, {"verdict": False, "sim": None,
                     "violations": [{"rule": "NotSmb", "witness": []}]},
              ["not an SMB algebra"])
        return 1
    chosen = None
    for sim in sims:
        report = check_regular(alg, sim)
        chosen = (sim, report)
        if report.holds:
            break
    sim, report = chosen
    payload = report.as_dict()
    payload["sim"] = str(sim)
    lines = [f"regular over {sim}: {'holds' if report.holds else 'fails'}"]
    for name, verdict in report.conditions.items():
        state = "holds" if verdict.holds else f"fails at {tuple(verdict.witness)}"
        lines.append(f"  ({name}) {state}")
    _emit(args, payload, lines)
    return 0 if report.holds else 1


def _cmd_verify_base(args) -> int:
    alg = _load(args.file)
    report = check_regular_base(alg)
    payload = report.as_dict()
    lines = []
    for name in BASE_IDENTITY_NAMES:
        verdict = report.verdicts[name]
        if verdict.holds:
            lines.append(f"{name} holds")
        else:
            lines.append(f"{name} fails at {tuple(verdict.witness)}")
    if report.holds:
        lines.append(f"recovered sim: {report.recovered_sim}")
    _emit(args, payload, lines)
    return 0 if report.holds else 1


def _cmd_regularize(args) -> int:
    alg = _load(args.file)
    out = regularize(alg)
    text = format_algebra(out)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    _emit(args, {"verdict": True, "output": args.output},
          [f"regularized algebra written to {args.output}"])
    return 0


def _cmd_con(args) -> int:
    alg = _load(args.file)
    lattice = congruence_lattice(alg)
    payload = {"congruences": [str(p) for p in lattice.congruences],
               "classes": [p.json_classes() for p in lattice.congruences],
               "covers": [list(c) for c in lattice.covers]}
    lines = [f"{len(lattice)} congruence(s)"]
    lines += [f"  [{i}] {p}" for i, p in enumerate(lattice.congruences)]
    lines += [f"  cover: [{i}] < [{j}]" for i, j in lattice.covers]
    _emit(args, payload, lines)
    return 0


def _cmd_cg(args) -> int:
    alg = _load(args.file)
    p = principal_congruence(alg, args.a, args.b)
    _emit(args, _partition_payload(p), [str(p)])
    return 0


def _cmd_commutator(args) -> int:
    alg = _load(args.file)
    p = Partition.parse(args.p1, alg.size)
    q = Partition.parse(args.p2, alg.size)
    result = commutator(alg, p, q)
    _emit(args, _partition_payload(result), [str(result)])
    return 0


def _cmd_verify(args) -> int:
    alg = _load(args.file)
    n = alg.size
    if args.which == "taylor":
        report = taylor_check(alg)
        payload = report.as_dict()
        lines = [f"{label}: {'holds' if v.holds else f'fails at {tuple(v.witness)}'}"
                 for label, v in report.checks]
        _emit(args, payload, lines)
        return 0 if report.holds else 1
    if args.which == "cg-d3":
        checked = 0
        for a in range(n):
            for b in range(a, n):
                result = verify_cg_d3(alg, a, b)
                checked += len(result.chains)
        _emit(args, {"verdict": True, "pairs": checked},
              [f"cg-d3: holds for all generator pairs ({checked} chains replayed)"])
        return 0
    total = n ** 4
    true_count = count_biconditional(alg, args.which)
    _emit(args, {"verdict": True, "tuples": total, "true": true_count},
          [f"{args.which}: both sides agree on all {total} tuples "
           f"({true_count} hold)"])
    return 0


def _cmd_pipeline(args) -> int:
    alg = _load(args.file)
    result = run_pipeline(alg, args.w)

    def table_payload(t):
        return {"arity": t.arity, "size": t.size, "entries": list(t.entries)}

    payload = {"stages": {
        "circ": table_payload(result.circ),
        "iterated_wnu": table_payload(result.iterated_wnu),
        "circ_iterated": table_payload(result.circ_iterated),
        "circ_special": table_payload(result.circ_special),
        "wedge_candidate": table_payload(result.wedge_candidate),
    }, "diagnostics": result.diagnostics}
    lines = []
    for stage in ("circ", "circ_iterated", "circ_special", "wedge_candidate"):
        table = getattr(result, stage)
        lines.append(f"stage {stage}:")
        lines += ["  " + " ".join(str(v) for v in row) for row in table.rows()]
    lines.append(f"diagnostics: {result.diagnostics}")
    if args.sim is not None:
        sim = Partition.parse(args.sim, alg.size)
        sl = semilattice_term(alg, args.w, sim)
        payload["semilattice_term"] = {
            "table": table_payload(sl.table),
            "hypotheses": sl.hypotheses,
            "hypotheses_established": sl.hypotheses_established,
            "conclusion_holds": sl.conclusion_holds,
        }
        lines.append(f"semilattice term over {sim}: "
                     f"conclusion {'holds' if sl.conclusion_holds else 'fails'} "
                     f"(hypotheses established: {sl.hypotheses_established})")
    _emit(args, payload, lines)
    return 0


def _cmd_construct(args) -> int:
    if args.what == "extend":
        if args.file is None or args.w is None:
            raise PreconditionError("construct extend needs FILE and W")
        alg = extend_simple_type5(_load(args.file), args.w)
    else:
        alg = BUILTINS[args.what]()
    text = format_algebra(alg)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(args, {"name": alg.name, "output": args.output},
              [f"{alg.name} written to {args.output}"])
    else:
        if args.json:
            print(json.dumps({"name": alg.name, "text": text}, indent=2))
        else:
            sys.stdout.write(text)
    return 0


def _cmd_corpus(args) -> int:
    spec = CorpusSpec(seed=args.seed, max_size=args.max_size)
    entries = build_corpus(spec)
    payload = [{"name": e.name, "size": e.algebra.size,
                "tags": sorted(e.tags),
                "sim": None if e.sim is None else str(e.sim)}
               for e in entries]
    lines = ["name\tsize\ttags\tsim"]
    lines += [f"{e.name}\t{e.algebra.size}\t{','.join(sorted(e.tags))}\t"
              f"{'-' if e.sim is None else e.sim}" for e in entries]
    _emit(args, {"corpus": payload}, lines)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smbalg",
        description="Finite-algebra toolkit for semilattices of Mal'cev blocks")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a pre-subcommand --json from being clobbered
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-smb", parents=[common],
                       help="recognize SMB structure")
    p.add_argument("file")
    p.add_argument("--sim", help="candidate congruence, e.g. '0 1 | 2'")
    p.set_defaults(func=_cmd_check_smb)

    p = sub.add_parser("check-regular", parents=[common],
                       help="check the four regularity conditions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_regular)

    p = sub.add_parser("verify-base", parents=[common],
                       help="check the twelve-identity regular base")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify_base)

    p = sub.add_parser("regularize", parents=[common],
                       help="rewrite wedge and d into regular term operations")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("con", parents=[common], help="congruence lattice")
    p.add_argument("file")
    p.set_defaults(func=_cmd_con)

    p = sub.add_parser("cg", parents=[common], help="principal congruence")
    p.add_argument("file")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=_cmd_cg)

    p = sub.add_parser("verify", parents=[common],
                       help="run one of the checked laws over the whole algebra")
    p.add_argument("which", choices=["cg-d3", "taylor", "cgvsim", "undersim",
                                     "commutator"])
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("commutator", parents=[common],
                       help="binary commutator of two congruences")
    p.add_argument("file")
    p.add_argument("p1")
    p.add_argument("p2")
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("pipeline", parents=[common],
                       help="term-iteration pipeline for a wnu operation")
    p.add_argument("file")
    p.add_argument("w", help="wnu operation symbol")
    p.add_argument("--sim", help="congruence for the semilattice-term stage")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("construct", parents=[common],
                       help="emit a built-in algebra or a simple extension")
    p.add_argument("what", choices=sorted(BUILTINS) + ["extend"])
    p.add_argument("file", nargs="?")
    p.add_argument("w", nargs="?")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("corpus", parents=[common],
                       help="list the deterministic test corpus")
    p.add_argument("--seed", type=int, default=CorpusSpec().seed)
    p.add_argument("--max-size", type=int, default=CorpusSpec().max_size)
    p.set_defaults(func=_cmd_corpus)
    return parser


# built on the first call to `main` and reused by every later call in the
# process: building the argparse tree costs about as much as a small op
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, CapExceeded, AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FalsificationError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
