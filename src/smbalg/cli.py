"""Command-line surface.

Exit codes: 0 verdict holds / success, 1 verdict fails (report printed),
2 usage or parse error, 3 internal falsification (a checked mathematical
guarantee failed; must never happen on valid regular SMB inputs), 141
stdout closed by its reader (128 + SIGPIPE; nothing is printed to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .core import (AlgebraError, CapExceeded, FalsificationError,
                   FiniteAlgebra, PreconditionError)
from .partitions import Partition, blocks_text, parse_element
from .relations import commutator, congruence_generated, congruence_lattice
from .analyzer import (_check_cg_d3, _regular_conditions, _smb_congruence,
                       check_regular_base, check_smb_over, count_biconditional,
                       find_smb_congruences, taylor_check)
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


class _Json(str):
    """A value's JSON text, already laid out as `_json_text` lays it out at
    its place in the output; `_json_text` copies it as it is."""


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)`, with every line after the first
    indented by `indent` more.  Strings, ints, bools, None, lists, tuples
    and dicts with `str` keys are written here; a list of only ints, only
    strings, only int lists or only `_Json` texts is written without a call
    per item.  Any other value, and a dict with any other key, is
    `json.dumps`'s own text."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is _Json:
        return value
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(str, value)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, value)
        elif kinds == {_Json}:
            items = value
        elif kinds == {list} and set(map(type, chain.from_iterable(value))) == {int}:
            leaf = inner + "  "       # int lists, such as `con`'s classes
            sep = ",\n" + leaf
            items = [f"[\n{leaf}{sep.join(map(str, v))}\n{inner}]" if v else "[]"
                     for v in value]
        else:
            items = (_json_text(v, inner) for v in value)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if kind is dict and set(map(type, value)) == {str}:
        inner = indent + "  "
        return "{\n" + ",\n".join(
            f"{inner}{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
            for k, v in value.items()) + f"\n{indent}}}"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _emit(args, payload: dict, lines):
    """Print the payload's JSON or the text lines, flushed: a closed stdout raises here."""
    print(_json_text(payload) if args.json else "\n".join(lines), flush=True)


def _partition_payload(p: Partition) -> dict:
    """The text form and the class lists of p, both from one `blocks` call."""
    blocks = p.blocks()
    return {"partition": blocks_text(blocks), "classes": [list(b) for b in blocks]}


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
    smb = _smb_congruence(alg)
    if smb is None:
        _emit(args, {"verdict": False, "sim": None,
                     "violations": [{"rule": "NotSmb", "witness": []}]},
              ["not an SMB algebra"])
        return 1
    sim = smb.sim
    report = _regular_conditions(alg, sim, smb.class_order)
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
    lines = [f"{name} {'holds' if v.holds else f'fails at {tuple(v.witness)}'}"
             for name, v in report.verdicts.items()]
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
    # the layout of `_json_text`, written here once per distinct block and
    # once per member: a member sits two levels into the payload, a block three
    outer, inner = "    ", "      "
    known = {}                 # block -> its text and its JSON, once per lattice
    names, classes = [], []
    for p in lattice.congruences:
        found = []
        for block in p.blocks():
            got = known.get(block)
            if got is None:
                got = known[block] = (" ".join(map(str, block)), _json_text(list(block), inner))
            found.append(got)
        texts, written = zip(*found)
        names.append(" | ".join(texts))
        classes.append(_Json(f"[\n{inner}" + f",\n{inner}".join(written) + f"\n{outer}]"))
    payload = {"congruences": names, "classes": classes,
               "covers": [list(c) for c in lattice.covers]}

    def lines():               # formatted only when printed, not under --json
        yield f"{len(lattice)} congruence(s)"
        yield from (f"  [{i}] {name}" for i, name in enumerate(names))
        yield from (f"  cover: [{i}] < [{j}]" for i, j in lattice.covers)

    _emit(args, payload, lines())
    return 0


def _cmd_cg(args) -> int:
    alg = _load(args.file)
    a, b = (parse_element(x, "cg arguments") for x in (args.a, args.b))
    p = congruence_generated(alg, [(a, b)])   # one pair: no whole principal table
    payload = _partition_payload(p)
    _emit(args, payload, [payload["partition"]])
    return 0


def _cmd_commutator(args) -> int:
    alg = _load(args.file)
    p = Partition.parse(args.p1, alg.size)
    q = Partition.parse(args.p2, alg.size)
    payload = _partition_payload(commutator(alg, p, q))
    _emit(args, payload, [payload["partition"]])
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
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        _, chains = _check_cg_d3(alg, pairs)    # builds no terms
        checked = len(chains[0])
        _emit(args, {"verdict": True, "pairs": checked},
              [f"cg-d3: holds for all generator pairs ({checked} chains checked)"])
        return 0
    total = n ** 4
    true_count = count_biconditional(alg, args.which)
    _emit(args, {"verdict": True, "tuples": total, "true": true_count},
          [f"{args.which}: both sides agree on all {total} tuples "
           f"({true_count} hold)"])
    return 0


def _cmd_pipeline(args) -> int:
    alg = _load(args.file)
    sim = None if args.sim is None else Partition.parse(args.sim, alg.size)
    sl = None if sim is None else semilattice_term(alg, args.w, sim)
    result = run_pipeline(alg, args.w) if sl is None else sl.pipeline    # run once

    def table_payload(t):
        return {"arity": t.arity, "size": t.size, "entries": t.array.tolist()}

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
    if sl is not None:
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
    elif args.file is not None or args.w is not None:
        raise PreconditionError(f"construct {args.what} takes no FILE or W; write it with -o OUT")
    else:
        alg = BUILTINS[args.what]()
    text = format_algebra(alg)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(args, {"name": alg.name, "output": args.output},
              [f"{alg.name} written to {args.output}"])
    else:
        _emit(args, {"name": alg.name, "text": text}, text.splitlines())
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
    p.add_argument("a")
    p.add_argument("b")
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
    except BrokenPipeError:     # Python's recipe: devnull on stdout, the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
