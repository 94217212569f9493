#!/usr/bin/env python3
"""The smbalg benchmark: one closed-loop client running CLI ops in-process.

    python3 bench/run.py --workload recognize|witness|commutator \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the `src/` directory next
to this one, and the benchmark refuses to run (exit 1, no result) when it
is missing.  Set-up builds the seeded `.alg` inputs under `bench/_work/`.
One op is `smbalg.cli.main([... "--json"])` with stdout captured, run one
after another in this process.  Every op's exit code, JSON and (at the
digest seed) output digest is checked.

`--trace 0` runs whole rounds of the op list, at least MIN_ROUNDS and
then up to the round boundary nearest to S seconds, and prints the
end-to-end metrics.  Every time in them is scaled to a reference host
speed: a fixed pure-Python probe loop is timed around the import, each
round of set-up and each op, and the wall time in between is multiplied by
REF_PROBE_S over the mean of the two probe times (see `probe`); the wall
figures go to stderr.  `--trace 1` runs a fixed number of rounds twice,
untraced and then traced, and prints the per-layer metrics; spans go to
`bench/_work/spans-<workload>-<seed>.npz`.  The last line of stdout is the
JSON result; a summary goes to stderr.

`--write-digests` runs every round of the pool at seed 1, untraced, and
stores its per-op output digests in `bench/digests.json`.
"""

from __future__ import annotations

import time

# The host-speed probe: a fixed loop of dict stores under tuple keys, the
# kind of work smbalg's pure-Python layers do, that allocates nothing the
# garbage collector tracks.  Other load on a shared host slows the probe
# and the ops alike, by a third or more for seconds at a time, so an
# interval's wall time times REF_PROBE_S / (probe time around it) is its
# time at the reference speed.  REF_PROBE_S is about the probe's time on
# an unloaded core of a 2-vCPU Intel Xeon VM; it only sets the scale.
PROBE_KEYS = [(i & 63, i >> 6) for i in range(4096)]
PROBE_TABLE = dict.fromkeys(PROBE_KEYS, 0)
REF_PROBE_S = 0.4e-3


def probe() -> float:
    """Seconds the probe loop takes now: the least of three passes."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for key in PROBE_KEYS:
            PROBE_TABLE[key] ^= 1
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall: float, before: float, after: float) -> float:
    """`wall` seconds, measured between probes `before` and `after`, at
    the reference speed."""
    return wall * 2 * REF_PROBE_S / (before + after)


PROBE_T0 = probe()
T0_IMPORTS = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
DIGESTS = BENCH / "digests.json"
DIGEST_SEED = 1

# Rounds in a traced run; fixed, so its counts repeat exactly.
TRACE_ROUNDS = 1
# Rounds an untraced run always finishes; peak_rss_mb is read at the end
# of the last of them, so it covers the same work in every run.
MIN_ROUNDS = 3

CLI_COMMANDS = ("check-smb", "verify-base", "regularize", "con", "check-regular",
                "verify-cg-d3", "verify-cgvsim", "verify-undersim", "commutator",
                "verify-commutator")

# Per-layer metrics: (span or cache name, metric suffixes).  `calls`,
# `self_s` and `total_s` come from spans, `hit_ratio` from cache_info(),
# anything else from the tracer's counters.
LAYER_METRICS = (
    ("dsl.parse_algebra", ("total_s",)),
    ("dsl.format_algebra", ("total_s",)),
    ("core.check_identity", ("calls", "self_s", "assignments")),
    ("partitions.Partition.join", ("calls",)),
    ("partitions.Partition.meet", ("calls",)),
    ("partitions.Partition.refines", ("calls",)),
    ("relations.congruence_lattice", ("calls", "self_s", "members", "hit_ratio")),
    ("relations.congruence_violation", ("calls", "self_s")),
    ("relations.principal_congruence", ("calls", "total_s", "hit_ratio")),
    ("relations.congruence_generated", ("calls", "self_s")),
    ("relations.quotient_algebra", ("calls", "self_s")),
    ("relations.generate_subpower", ("calls", "self_s", "elements")),
    ("relations.d_rel", ("hit_ratio",)),
    ("relations.polynomial_image_pairs", ("hit_ratio",)),
    ("relations.unary_polynomials", ("hit_ratio",)),
    ("relations.subpower_closure_fast", ("calls", "self_s", "elements")),
    ("relations.matrix_set", ("hit_ratio",)),
    ("relations.commutator", ("calls", "self_s", "hit_ratio")),
    ("relations.commutator_oracle", ("hit_ratio",)),
    ("analyzer.find_smb_congruences", ("total_s",)),
    ("analyzer.check_smb_over", ("calls", "self_s")),
    ("analyzer.check_regular_base", ("self_s", "hit_ratio")),
    ("analyzer._regular_context", ("hit_ratio",)),
    ("analyzer.check_regular", ("self_s",)),
    ("analyzer.verify_cg_d3", ("self_s", "chains")),
    ("analyzer.check_cgvsim", ("self_s",)),
    ("analyzer.check_undersim", ("self_s",)),
    ("analyzer.commutator_below_sim", ("self_s",)),
    ("pipeline.regularize", ("calls", "self_s")),
)
# Spans of the set-up phase, reported per round of inputs like setup_s.
SETUP_METRICS = ("constructions.glue_smb", "constructions.random_semilattice",
                 "relations.product_algebra")
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "hit_ratio": "fraction"}


def import_program():
    """Import smbalg from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "smbalg" / "__init__.py").is_file():
        sys.exit(f"bench: no smbalg sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import smbalg
    if Path(smbalg.__file__).resolve().parent != (src / "smbalg").resolve():
        sys.exit(f"bench: imported smbalg from {smbalg.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Set-up

def build_pool(workload: str, seed: int, workdir: Path):
    """All rounds of inputs, written to `workdir`; returns the rounds, the
    scaled build time of each round and a digest of every input file."""
    from smbalg import dsl
    import workloads
    draw = workloads.Draw(workload, seed)
    rounds, times = [], []
    digest = hashlib.sha256()
    before = probe()
    for r in range(workloads.POOL_ROUNDS[workload]):
        t0 = time.perf_counter()
        cases = workloads.ROUND_BUILDERS[workload](draw, r)
        texts = [dsl.format_algebra(case.algebra) for case in cases]
        for case, text in zip(cases, texts):
            with open(workdir / case.file, "w", encoding="utf-8") as fh:
                fh.write(text)
        wall = time.perf_counter() - t0
        after = probe()
        times.append(scaled(wall, before, after))
        before = after
        for case, text in zip(cases, texts):
            digest.update(f"{case.file}\n{text}".encode())
        rounds.append(cases)
    return rounds, times, digest.hexdigest()


def clear_caches(caches: dict):
    for cache in caches.values():
        cache.cache_clear()


# ---------------------------------------------------------------------------
# Ops

class Pass:
    """One pass over rounds of the op list, with its latencies and failures."""

    def __init__(self):
        self.commands: list = []
        self.latencies: list = []    # scaled to the reference speed
        self.wall: list = []         # as measured
        self.errors: list = []       # (op label, message)
        self.digests: list = []
        self.labels: list = []
        self.rounds = 0
        self.round_starts: list = []  # index of each round's first op
        self.peak_rss_mb = None       # at the end of round MIN_ROUNDS

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def by_command(self, command: str) -> list:
        return [t for c, t in zip(self.commands, self.latencies) if c == command]

    def round_rates(self, latencies=None) -> list:
        """Ops per second of each round (scaled, unless other latencies
        are given)."""
        latencies = self.latencies if latencies is None else latencies
        bounds = self.round_starts + [len(latencies)]
        return [(hi - lo) / sum(latencies[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(rounds, budget, tracer, expected_digests) -> Pass:
    """Run rounds in order.  With a budget in wall seconds, start another
    round after the first MIN_ROUNDS only while the pass would end nearer
    the budget with it than without, going by the mean round so far."""
    from smbalg import cli
    result = Pass()
    start = time.perf_counter()
    for cases in rounds:
        elapsed = time.perf_counter() - start
        if budget is not None and result.rounds >= MIN_ROUNDS \
                and elapsed + elapsed / result.rounds / 2 > budget:
            break
        result.rounds += 1
        result.round_starts.append(len(result.latencies))
        for case in cases:
            case.results = {}
            for op in case.ops:
                index = len(result.latencies)
                label = " ".join(op.argv)
                if tracer is not None:
                    tracer.op_id = index
                out, err = io.StringIO(), io.StringIO()
                rc, crash = None, None
                before = probe()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        if tracer is not None:
                            with tracer.span(f"cli.{op.command}"):
                                rc = cli.main(op.argv + ["--json"])
                        else:
                            rc = cli.main(op.argv + ["--json"])
                except SystemExit as exc:          # argparse usage errors
                    rc = exc.code
                except Exception as exc:           # an op that crashes is a failure
                    crash = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                after = probe()
                enabled = tracer is not None and tracer.enabled
                if enabled:
                    tracer.enabled = False
                try:
                    digest, error = check_op(op, case, rc, crash, out.getvalue(),
                                             err.getvalue())
                finally:
                    if enabled:
                        tracer.enabled = True
                if error is None and expected_digests is not None \
                        and index < len(expected_digests) \
                        and expected_digests[index] != digest:
                    error = "output digest differs from the stored one"
                result.commands.append(op.command)
                result.latencies.append(scaled(latency, before, after))
                result.wall.append(latency)
                result.digests.append(digest)
                result.labels.append(label)
                if error is not None:
                    result.errors.append((label, error))
        if result.rounds == MIN_ROUNDS:
            result.peak_rss_mb = peak_rss_mb()
    if result.peak_rss_mb is None:
        result.peak_rss_mb = peak_rss_mb()
    return result


def check_op(op, case, rc, crash, stdout: str, stderr: str):
    """(output digest, error text or None) for one finished op."""
    digest = hashlib.sha256(stdout.encode())
    if crash is not None:
        return digest.hexdigest()[:16], crash
    if rc != op.expect:
        return digest.hexdigest()[:16], \
            f"exit {rc}, expected {op.expect}: {stderr.strip()[:200]}"
    try:
        if op.output is not None:
            with open(op.output, "rb") as fh:
                digest.update(fh.read())
        payload = json.loads(stdout)
        case.results[op.command] = payload
        error = op.check(payload, case) if op.check is not None else None
    except Exception as exc:                       # a malformed output is a failure
        error = f"output check raised {type(exc).__name__}: {exc}"
    return digest.hexdigest()[:16], error


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(setup_s: float, run: Pass) -> dict:
    lat = run.latencies
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(run.round_rates()), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(tracer, untraced: Pass, traced: Pass, pool_rounds: int) -> dict:
    metrics = {}
    for command in CLI_COMMANDS:
        lat = untraced.by_command(command)
        metrics[f"cli.{command}.p50_ms"] = (
            statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    for name, suffixes in LAYER_METRICS:
        for suffix in suffixes:
            if suffix == "calls" and name.startswith("partitions."):
                value = tracer.count(f"{name}.calls")
            elif suffix == "calls":
                value = tracer.calls(name)
            elif suffix == "self_s":
                value = tracer.self_s(name)
            elif suffix == "total_s":
                value = tracer.total_s(name)
            elif suffix == "hit_ratio":
                value = tracer.hit_ratio(name)
            else:
                value = tracer.count(f"{name}.{suffix}")
            metrics[f"{name}.{suffix}"] = (value, UNITS.get(suffix, "count"))
    for name in SETUP_METRICS:
        metrics[f"{name}.total_s"] = (tracer.total_s(name, "setup") / pool_rounds, "s")
    metrics["trace.overhead_ratio"] = (
        sum(traced.latencies) / sum(untraced.latencies), "ratio")
    return metrics


def samples_above_p90(lat: list) -> int:
    p90 = statistics.quantiles(lat, n=10)[-1]
    return sum(1 for t in lat if t > p90)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("recognize", "witness", "commutator"))
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="run the whole pool and store its output digests")
    args = parser.parse_args(argv)
    if args.write_digests and (args.trace or args.seed != DIGEST_SEED):
        parser.error(f"--write-digests runs untraced at seed {DIGEST_SEED}")

    import_program()
    import tracing
    import_s = scaled(time.perf_counter() - T0_IMPORTS, PROBE_T0, probe())
    caches = tracing.find_caches()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(caches)
        tracer.install()
        tracer.enabled = True

    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        rounds, build_times, input_digest = build_pool(args.workload, args.seed, workdir)
        setup_s = import_s + statistics.median(build_times)
        clear_caches(caches)
        expected = None
        if args.seed == DIGEST_SEED and DIGESTS.is_file():
            expected = json.loads(DIGESTS.read_text()).get(args.workload)
        os.chdir(workdir)
        if args.write_digests:
            passes = [run_pass(rounds, None, None, None)]
        elif tracer is None:
            passes = [run_pass(rounds, args.seconds, None, expected)]
        else:
            tracer.enabled = False
            untraced = run_pass(rounds[:TRACE_ROUNDS], None, tracer, expected)
            clear_caches(caches)
            tracer.phase = "ops"
            tracer.enabled = True
            traced = run_pass(rounds[:TRACE_ROUNDS], None, tracer, expected)
            tracer.enabled = False
            passes = [untraced, traced]
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.npz",
                           traced.labels)
        metrics = per_layer(tracer, untraced, traced, len(rounds))
    else:
        metrics = end_to_end(setup_s, passes[0])
    attempted = sum(p.attempted for p in passes)
    errors = [e for p in passes for e in p.errors]

    if args.write_digests:
        if errors:
            print(f"bench: not writing digests, {len(errors)} ops failed", file=sys.stderr)
        else:
            stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
            stored[args.workload] = passes[0].digests
            DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    main_pass = passes[-1]
    wall = main_pass.wall
    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{main_pass.rounds} of {len(rounds)} rounds, {main_pass.attempted} ops, "
          f"{samples_above_p90(main_pass.latencies)} above p90, {len(errors)} failed; "
          f"wall: {statistics.median(main_pass.round_rates(wall)):.4g} ops/s, "
          f"p50 {statistics.median(wall) * 1e3:.4g} ms, host speed "
          f"{sum(main_pass.latencies) / sum(wall):.3f} of the reference; "
          f"inputs sha256 {input_digest}", file=sys.stderr)
    for label, error in errors[:20]:
        print(f"  FAILED {label}: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
