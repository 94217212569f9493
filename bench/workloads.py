"""Seeded inputs, op lists and output checks for the three workloads.

A workload is a list of rounds.  A round is a fixed ladder of slots, each
an input family at one size.  The structure in a slot (tree shape,
cross-class representatives, product factors, random tables, principal
pairs) is the same in every round and for every seed; each round renames
the elements of every input afresh, from the seed (see `Draw`).  So all
rounds cost about the same, a run's figures stay steady whichever number
of rounds it finishes, and the program still meets new inputs, with new
cache keys, in every round and for every seed.

Every input is a `Case`: one algebra written to a `.alg` file, plus the
CLI ops run on it, each with its expected exit code and an output check.
Checks use only the op's JSON, earlier JSON of the same case and facts
known from the construction; the two that need the library call its
uncached functions (see `uncached`), never a second engine.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from smbalg import analyzer, constructions, dsl, pipeline, relations
from smbalg.core import FiniteAlgebra, OperationTable
from smbalg.partitions import Partition

# Rounds generated per run.  A run stops early only when a much faster
# program finishes all of them inside the time budget.
POOL_ROUNDS = {"recognize": 14, "witness": 14, "commutator": 14}

# Glue layouts: (tree size, block sizes).  Block 0 sits on the tree root,
# the least class, and is never a singleton, so every glued algebra is
# SMB but not regular.
RECOGNIZE_GLUED = ((2, (3, 3)), (3, (2, 3, 2)), (3, (3, 2, 3)),
                   (4, (2, 2, 3, 2)), (4, (3, 2, 3, 2)))
RECOGNIZE_TREES = (6, 7, 8)
RECOGNIZE_RANDOM = (4, 6, 8)
WITNESS_GLUED = ((3, (2, 2, 2)), (2, (3, 3)), (3, (3, 2, 2)), (3, (3, 3, 2)))
WITNESS_TREES = (6, 7, 8, 10)
COMMUTATOR_GLUED = ((3, (2, 1, 1)), (3, (2, 2, 1)), (3, (2, 2, 2)))
VERIFY_COMMUTATOR_MAX = 5
PRINCIPALS_PER_ALGEBRA = 2


def uncached(fn):
    """The plain function behind an lru_cache (and behind a tracing
    wrapper), so a check leaves the cache and its statistics untouched."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


# ---------------------------------------------------------------------------
# Partition text helpers (the `0 1 | 2` form the CLI prints and parses)

def partition_text(class_ids) -> str:
    return str(Partition(len(class_ids), tuple(class_ids)))


def zero_text(n: int) -> str:
    return " | ".join(str(x) for x in range(n))


def one_text(n: int) -> str:
    return " ".join(str(x) for x in range(n))


def class_ids_of(text: str, n: int) -> tuple:
    return Partition.parse(text, n).class_ids


def refines(fine: tuple, coarse: tuple) -> bool:
    seen: dict = {}
    return all(seen.setdefault(f, c) == c for f, c in zip(fine, coarse))


def pair_count(classes) -> int:
    """Ordered related pairs of a partition given as JSON classes."""
    return sum(len(block) ** 2 for block in classes)


# ---------------------------------------------------------------------------
# Cases and ops

@dataclass
class Op:
    argv: list                 # CLI arguments, without --json
    expect: int                # expected exit code
    check: Optional[Callable] = None   # (payload, case) -> error text or None
    output: Optional[str] = None       # file the op writes, digested too

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv[0] != "verify" else f"verify-{self.argv[1]}"


@dataclass
class Case:
    name: str
    family: str
    algebra: object
    sim: Optional[str] = None  # sim known from the construction
    regularized: Optional[str] = None  # file `regularize` writes
    ops: list = field(default_factory=list)
    results: dict = field(default_factory=dict)   # command -> payload

    @property
    def file(self) -> str:
        return f"{self.name}.alg"

    @property
    def size(self) -> int:
        return self.algebra.size


def _fail(cond: bool, text: str) -> Optional[str]:
    return None if cond else text


# ---------------------------------------------------------------------------
# Input families

def _relabel(alg, perm: list, name: str):
    """The isomorphic copy of `alg` in which element x is called perm[x]."""
    n = alg.size
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    ops = {}
    for sym, table in alg.operations.items():
        entries = [perm[table.entries[table.index([inv[a] for a in args])]]
                   for args in itertools.product(range(n), repeat=table.arity)]
        ops[sym] = OperationTable(table.arity, n, entries)
    return FiniteAlgebra(name, n, ops)


class Draw:
    """The random sources of one run.

    `shape(slot)` gives the stream a slot's structure is drawn from; it
    restarts for every round and ignores the seed, so a slot holds the
    same isomorphism type throughout.  `labels`, drawn from the seed,
    renames the elements of each input.  Distinct names give every input
    its own cache keys, so caches are reused only where a case reuses its
    own algebra.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        # str seeds hash with sha512, independent of PYTHONHASHSEED
        self.labels = random.Random(f"smbalg-bench/{workload}/{seed}")
        self.seen: set = set()

    def shape(self, slot: str) -> random.Random:
        return random.Random(f"smbalg-bench/{self.workload}/{slot}")

    def fresh(self, name: str, make):
        """`make()` gives (algebra, partitions); returns a relabelling of the
        algebra unequal to every earlier input, and its partitions in the
        `0 1 | 2` text form.  Only when every relabelling tried was drawn
        before does it ask `make` for another structure."""
        for _ in range(20):
            alg, parts = make()
            for _ in range(50):
                perm = list(range(alg.size))
                self.labels.shuffle(perm)
                out = _relabel(alg, perm, name)
                if out not in self.seen:
                    self.seen.add(out)
                    return out, [_relabel_partition(p, perm) for p in parts]
        raise RuntimeError(f"could not draw a fresh input for {name}")


def _relabel_partition(p: Partition, perm: list) -> str:
    ids = [0] * p.size
    for x, c in enumerate(p.class_ids):
        ids[perm[x]] = c
    return partition_text(ids)


def _glued(rng: random.Random, tree_size: int, block_sizes: tuple):
    sl = constructions.random_semilattice(tree_size, rng)
    blocks = {c: constructions.affine_block(s) for c, s in enumerate(block_sizes)}
    offsets = [sum(block_sizes[:c]) for c in range(tree_size)]
    reps = {c: offsets[c] + rng.randrange(block_sizes[c]) for c in range(tree_size)}
    return (constructions.glue_smb(sl, blocks, reps),
            constructions.glue_layout(sl, blocks))


def _regularized_glued(rng: random.Random, tree_size: int, block_sizes: tuple):
    alg, sim = _glued(rng, tree_size, block_sizes)
    return pipeline.regularize(alg, sim), sim


def _tree(rng: random.Random, size: int):
    return constructions.random_semilattice(size, rng), Partition.zero(size)


def _with_sim(make):
    """Adapts a builder of (algebra, sim) to `Draw.fresh`."""
    def built():
        alg, sim = make()
        return alg, (sim,)
    return built


def _random_non_smb(rng: random.Random, size: int):
    while True:
        alg = constructions.random_algebra(
            size, {"wedge": 2, "d": 3}, rng.randrange(1 << 30))
        # a non-idempotent algebra is not SMB
        if any(t.entries[t.index((x,) * t.arity)] != x
               for t in alg.operations.values() for x in range(size)):
            return alg, ()


# Product slots: two small SMB factors each, as (builder, regular).  A
# builder returns (algebra, sim).
_FACTORS = {
    "b2": (lambda rng: (constructions.example_b2(), Partition.one(2)), True),
    "s2": (lambda rng: (constructions.example_s2(), Partition.zero(2)), True),
    "e3": (lambda rng: (constructions.example_e3(), Partition(3, (0, 0, 1))), True),
    "tree3": (lambda rng: _tree(rng, 3), True),
    "tree4": (lambda rng: _tree(rng, 4), True),
    "glued3": (lambda rng: _glued(rng, 2, (2, 1)), False),
}
PRODUCT_SLOTS = (("tree3", "tree3"), ("b2", "tree3"), ("s2", "tree4"), ("e3", "glued3"))


def _product(rng: random.Random, left: str, right: str):
    (a, sim_a), (b, sim_b) = _FACTORS[left][0](rng), _FACTORS[right][0](rng)
    nb = b.size
    ids = [(sim_a.class_ids[e // nb], sim_b.class_ids[e % nb])
           for e in range(a.size * nb)]
    canon: dict = {}
    sim = Partition(len(ids), tuple(canon.setdefault(i, len(canon)) for i in ids))
    return relations.product_algebra(a, b), sim


# ---------------------------------------------------------------------------
# recognize: check-smb, verify-base, regularize, then con and check-regular
# on the result

def _check_smb(expect_smb: bool):
    def check(p, case):
        if p["verdict"] != expect_smb:
            return f"check-smb verdict {p['verdict']}"
        if not expect_smb:
            return _fail(p["sims"] == [] and p["sim"] is None, "non-SMB with sims")
        if p["sim"] != p["sims"][0]:
            return "sim is not the first of sims"
        return _fail(case.sim in p["sims"], f"construction sim {case.sim} not found")
    return check


def _check_base(expect_regular: bool):
    def check(p, case):
        if p["verdict"] != expect_regular:
            return f"verify-base verdict {p['verdict']}"
        if not expect_regular:
            return _fail(p["sim"] is None, "failing base recovered a sim")
        sims = case.results["check-smb"]["sims"]
        return _fail(p["sim"] in sims, f"recovered sim {p['sim']} is not an SMB sim")
    return check


def _check_regularize(p, case):
    if p != {"verdict": True, "output": case.regularized}:
        return f"regularize payload {p}"
    # the output passes verify-base, recovering the sim it was built over
    with open(case.regularized, encoding="utf-8") as fh:
        out = dsl.parse_algebra(fh.read())
    report = uncached(analyzer.check_regular_base)(out)
    want = case.results["check-smb"]["sim"]
    return _fail(report.holds and str(report.recovered_sim) == want,
                 f"regularized output fails verify-base over {want}")


def _check_con(p, case):
    n = case.size
    cons = p["congruences"]
    if zero_text(n) not in cons or one_text(n) not in cons:
        return "con misses 0_A or 1_A"
    if len(p["classes"]) != len(cons):
        return "con classes and congruences differ in length"
    if any(not (0 <= i < len(cons) and 0 <= j < len(cons)) for i, j in p["covers"]):
        return "cover index out of range"
    if case.family == "tree" and len(cons) != 2 ** (n - 1):
        return f"tree of size {n} has {len(cons)} congruences, not {2 ** (n - 1)}"
    return None


def _check_regular(expect: bool):
    def check(p, case):
        if p["verdict"] != expect:
            return f"check-regular verdict {p['verdict']}"
        return None if expect else _fail(p["sim"] is None, "non-SMB with a sim")
    return check


def _recognize_case(case: Case, smb: bool, regular: bool) -> Case:
    x = case.file
    case.ops = [Op(["check-smb", x], 0 if smb else 1, _check_smb(smb)),
                Op(["verify-base", x], 0 if regular else 1, _check_base(regular))]
    if smb:
        case.regularized = f"{case.name}_reg.alg"
        r = case.regularized
        case.ops += [Op(["regularize", x, "-o", r], 0, _check_regularize, output=r),
                     Op(["con", r], 0, _check_con),
                     Op(["check-regular", r], 0, _check_regular(True))]
    else:
        case.ops += [Op(["con", x], 0, _check_con),
                     Op(["check-regular", x], 1, _check_regular(False))]
    return case


def recognize_round(draw: Draw, r: int) -> list:
    slots = ([(f"tree{n}", "tree", lambda rng, n=n: _tree(rng, n), True)
              for n in RECOGNIZE_TREES]
             + [(f"glued{sum(bs)}_{i}", "glued",
                 lambda rng, l=(t, bs): _glued(rng, *l), False)
                for i, (t, bs) in enumerate(RECOGNIZE_GLUED)]
             + [(f"{a}x{b}", "product", lambda rng, a=a, b=b: _product(rng, a, b),
                 _FACTORS[a][1] and _FACTORS[b][1])
                for a, b in PRODUCT_SLOTS])
    cases = []
    for label, family, build, regular in slots:
        name = f"r{r}_{label}"
        rng = draw.shape(label)
        alg, (sim,) = draw.fresh(name, _with_sim(lambda: build(rng)))
        cases.append(_recognize_case(Case(name, family, alg, sim), True, regular))
    for n in RECOGNIZE_RANDOM:
        name = f"r{r}_rand{n}"
        rng = draw.shape(f"rand{n}")
        alg, _ = draw.fresh(name, lambda: _random_non_smb(rng, n))
        cases.append(_recognize_case(Case(name, "random", alg), False, False))
    return cases


# ---------------------------------------------------------------------------
# witness: verify cg-d3, cgvsim and undersim on regular algebras

def _check_cg_d3(p, case):
    n = case.size
    pc = uncached(relations.principal_congruence)
    want = sum(pair_count(pc(case.algebra, a, b).json_classes())
               for a in range(n) for b in range(a, n))
    return _fail(p == {"verdict": True, "pairs": want},
                 f"cg-d3 payload {p}, expected {want} chains")


def _check_tuples(lower_bound):
    def check(p, case):
        n = case.size
        if p.get("verdict") is not True or p.get("tuples") != n ** 4:
            return f"verify payload {p}"
        low = lower_bound(case)
        return _fail(low <= p["true"] <= n ** 4,
                     f"{p['true']} tuples hold, fewer than the {low} forced ones")
    return check


def _forced_by_zero(case):
    # Cg(a,a) is 0_A, so every tuple with a = b or c = d holds
    n = case.size
    return 2 * n ** 3 - n ** 2


def _forced_by_sim(case):
    # (c,d) in sim always lies in Cg(a,b) join sim
    n = case.size
    return n ** 2 * pair_count(Partition.parse(case.sim, n).json_classes())


def witness_round(draw: Draw, r: int) -> list:
    slots = ([(f"reg{sum(bs)}_{i}", "regularized",
               lambda rng, l=(t, bs): _regularized_glued(rng, *l))
              for i, (t, bs) in enumerate(WITNESS_GLUED)]
             + [(f"tree{n}", "tree", lambda rng, n=n: _tree(rng, n))
                for n in WITNESS_TREES])
    inputs = []
    for label, family, build in slots:
        name = f"w{r}_{label}"
        rng = draw.shape(label)
        alg, (sim,) = draw.fresh(name, _with_sim(lambda: build(rng)))
        inputs.append(Case(name, family, alg, sim))
    for case in inputs:
        x = case.file
        case.ops = [Op(["verify", "cg-d3", x], 0, _check_cg_d3),
                    Op(["verify", "cgvsim", x], 0, _check_tuples(_forced_by_sim)),
                    Op(["verify", "undersim", x], 0, _check_tuples(_forced_by_zero))]
    return inputs


# ---------------------------------------------------------------------------
# commutator: [P, Q] for P, Q among sim, 1_A and principal congruences

def _check_commutator(p_text, q_text):
    def check(p, case):
        n = case.size
        result = Partition.from_blocks(n, p["classes"]).class_ids
        if class_ids_of(p["partition"], n) != result:
            return "partition text and classes disagree"
        meet = Partition(n, tuple(zip(class_ids_of(p_text, n),
                                      class_ids_of(q_text, n)))).class_ids
        return _fail(refines(result, meet), f"[{p_text}, {q_text}] = {p['partition']} "
                                            "is not below the meet")
    return check


def commutator_round(draw: Draw, r: int) -> list:
    pc = uncached(relations.principal_congruence)
    cases = []
    for i, (tree_size, block_sizes) in enumerate(COMMUTATOR_GLUED):
        n = sum(block_sizes)
        name = f"c{r}_reg{n}_{i}"
        rng = draw.shape(f"reg{n}_{i}")

        def make():
            alg, sim = _regularized_glued(rng, tree_size, block_sizes)
            args = [sim, Partition.one(n)]
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            rng.shuffle(pairs)
            for a, b in pairs:
                if len(args) == 2 + PRINCIPALS_PER_ALGEBRA:
                    break
                cg = pc(alg, a, b)
                if cg not in args:
                    args.append(cg)
            return alg, args
        alg, args = draw.fresh(name, make)
        case = Case(name, "regularized", alg, args[0])
        case.ops = [Op(["commutator", case.file, p, q], 0, _check_commutator(p, q))
                    for p in args for q in args]
        if n <= VERIFY_COMMUTATOR_MAX:
            case.ops.append(Op(["verify", "commutator", case.file], 0,
                               _check_tuples(_forced_by_zero)))
        cases.append(case)
    return cases


ROUND_BUILDERS = {"recognize": recognize_round, "witness": witness_round,
                  "commutator": commutator_round}
