"""Builders for the standard example algebras and a seeded corpus generator.

The named examples exposed through the CLI:

  e3   three elements {0,1,2}: d is mod-2 addition on {0,1} with 2
       absorbing, wedge(x,y) = d(x,x,y); regular SMB over 0 1 | 2
  b2   one Mal'cev block: d = x+y+z mod 2, wedge = second projection
  s2   the two-element chain semilattice with d = (x^y)^z
  n4   two mod-2 blocks glued over a two-chain with a wrong cross-class
       representative (0^2 = 3); SMB but not regular

Glued algebras put wedge(a, b) = b inside a block and the representative
of the meet class across blocks, and d(a, b, c) = the block Mal'cev
operation inside a block and (a^b)^c across blocks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from . import core
from .core import (AlgebraError, FalsificationError, FiniteAlgebra,
                   OperationTable, materialize_term, table_flags, term_table,
                   App, Var)
from .partitions import Partition
from .analyzer import WEDGE, D, check_smb_over, wedge_conditions
from .relations import _principal_table
from .pipeline import regularize

_MEET3 = App(WEDGE, (App(WEDGE, (Var(0), Var(1))), Var(2)))     # (x ^ y) ^ z


def trivial_algebra() -> FiniteAlgebra:
    return FiniteAlgebra("one", 1, {WEDGE: OperationTable(2, 1, [0]),
                                    D: OperationTable(3, 1, [0])})


def example_b2() -> FiniteAlgebra:
    d = [(x + y + z) % 2 for x in range(2) for y in range(2) for z in range(2)]
    return FiniteAlgebra("b2", 2, {WEDGE: OperationTable(2, 2, [0, 1, 0, 1]),
                                   D: OperationTable(3, 2, d)})


def chain_semilattice(k: int, name: Optional[str] = None) -> FiniteAlgebra:
    """The k-element chain 0 < 1 < ... < k-1 with meet = min and
    d = (x^y)^z."""
    wedge = [min(x, y) for x in range(k) for y in range(k)]
    d = [min(x, y, z) for x in range(k) for y in range(k) for z in range(k)]
    return FiniteAlgebra(name or f"chain{k}", k,
                         {WEDGE: OperationTable(2, k, wedge),
                          D: OperationTable(3, k, d)})


def example_s2() -> FiniteAlgebra:
    return chain_semilattice(2, "s2")


def example_e3() -> FiniteAlgebra:
    entries = []
    for x in range(3):
        for y in range(3):
            for z in range(3):
                entries.append(2 if 2 in (x, y, z) else (x + y + z) % 2)
    d = OperationTable(3, 3, entries)
    wedge = OperationTable(2, 3, core._circ(d).ravel())     # d(x, x, y)
    return FiniteAlgebra("e3", 3, {D: d, WEDGE: wedge})


def affine_block(size: int) -> FiniteAlgebra:
    """A one-block Mal'cev algebra: d(x, y, z) = x - y + z mod size."""
    d = [(x - y + z) % size
         for x in range(size) for y in range(size) for z in range(size)]
    return FiniteAlgebra(f"z{size}", size, {D: OperationTable(3, size, d)})


# ---------------------------------------------------------------------------
# Gluing

def glue_layout(semilattice: FiniteAlgebra,
                blocks: Mapping[int, FiniteAlgebra]) -> Partition:
    """The block partition of the glued universe (blocks are laid out in
    semilattice-element order)."""
    if set(blocks) != set(range(semilattice.size)):
        raise AlgebraError("blocks must be indexed by the semilattice elements")
    sizes = [blocks[c].size for c in range(semilattice.size)]
    ids = []
    for c, s in enumerate(sizes):
        ids.extend([c] * s)
    return Partition(sum(sizes), tuple(ids))


def glue_smb(semilattice: FiniteAlgebra,
             blocks: Mapping[int, FiniteAlgebra],
             reps: Optional[Mapping[int, int]] = None,
             name: Optional[str] = None) -> FiniteAlgebra:
    """Glue Mal'cev blocks over a meet-semilattice into an SMB algebra.

    Each semilattice element c carries blocks[c], whose designated d must
    be Mal'cev.  reps picks one global element per class, used as the
    value of cross-class wedges; the default is each block's first
    element, and any in-block choice keeps the output SMB (a nonsingleton
    block below another class makes it non-regular).
    """
    sl_wedge = semilattice.op(WEDGE)
    if sl_wedge.arity != 2:
        raise AlgebraError("the semilattice operation must be binary")
    m = semilattice.size
    not_semilattice, _, _ = wedge_conditions(sl_wedge, Partition.zero(m))
    if not_semilattice:
        rule, witness = not_semilattice[0]
        raise AlgebraError(f"not a semilattice: {rule} fails at {witness}")
    sim = glue_layout(semilattice, blocks)
    sizes = [blocks[c].size for c in range(m)]
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    if reps is None:
        reps = {c: offsets[c] for c in range(m)}
    for c in range(m):
        if c not in reps:
            raise AlgebraError(f"no representative given for class {c}")
        if not offsets[c] <= reps[c] < offsets[c] + sizes[c]:
            raise AlgebraError(f"representative {reps[c]} is not in block {c}")
    for c in range(m):
        if not table_flags(blocks[c].op(D)).malcev:
            raise AlgebraError(f"block {c} operation d is not Mal'cev")

    n = sum(sizes)
    class_of = np.repeat(np.arange(m), sizes)
    rep = np.array([reps[c] for c in range(m)])
    meets = rep[sl_wedge.array.reshape(m, m)[class_of[:, None], class_of]]
    wedge = OperationTable(2, n, np.where(class_of[:, None] == class_of,
                                          np.arange(n), meets).ravel())
    d = term_table(FiniteAlgebra("glued", n, {WEDGE: wedge}), _MEET3, 3)
    for c, off in enumerate(offsets):
        inside = slice(off, off + sizes[c])
        d[inside, inside, inside] = off + blocks[c].op(D).array.reshape((sizes[c],) * 3)

    out = FiniteAlgebra(name or f"glued{n}", n, {
        WEDGE: wedge,
        D: OperationTable(3, n, d.ravel()),
    })
    report = check_smb_over(out, sim)
    if not report.verdict:
        raise FalsificationError(
            f"glued algebra failed the SMB check: {report.violations[0]}")
    return out


def example_n4() -> FiniteAlgebra:
    """Two mod-2 blocks over a two-chain with the wrong bottom
    representative, so wedge(0, 2) = 3."""
    # semilattice element 1 below element 0
    sl = FiniteAlgebra("chain2r", 2, {WEDGE: OperationTable(2, 2, [0, 1, 1, 1])})
    alg = glue_smb(sl, {0: affine_block(2), 1: affine_block(2)},
                   reps={0: 0, 1: 3}, name="n4")
    return alg


def n4_sim() -> Partition:
    return Partition(4, (0, 0, 1, 1))


# ---------------------------------------------------------------------------
# The simple type-5 extension

def extend_simple_type5(alg: FiniteAlgebra, w_symbol: str) -> FiniteAlgebra:
    """Extend a wnu algebra by three fresh elements (absorbing zero, a
    shift element s, and a top generator) into a simple algebra whose only
    operation is a wnu of the same arity.

    Fresh elements are appended after the original universe in the order
    (zero, s, top).  Nearly unanimous means exactly one dissident
    coordinate; the absorbing rule takes precedence.  The (n + 3)^k
    entries, filled by pattern, are held to the cap before the wnu check;
    the result is checked a wnu, and simple on one principal table.
    """
    w = alg.op(w_symbol)
    core.check_power(alg.size + 3, w.arity, "the extension's table")
    if not table_flags(w).wnu:
        raise AlgebraError(
            f"operation '{w_symbol}' of '{alg.name}' is not a wnu operation")
    if w.arity < 3:
        raise AlgebraError("the extension needs a wnu of arity at least 3")
    n = alg.size
    k = w.arity
    zero, s, top = n, n + 1, n + 2
    size = n + 3

    def circ(r, t):
        # nearly unanimous value: repeated r, single dissident t
        if r == s:
            if t < n:
                return t + 1 if t + 1 < n else top
            return zero            # t == top
        if t == s:
            if r < n:
                return r + 1 if r + 1 < n else top
            return 0               # r == top: the first original element
        if r == top:
            return top             # t < n
        return s                   # r < n, t == top

    # later writes take precedence: zero (a zero argument, or no pattern),
    # then w on the original block, the nearly unanimous tuples through s
    # or top, and the unanimous diagonal
    v = np.full((size,) * k, zero, dtype=np.int64)
    v[(slice(0, n),) * k] = w.array.reshape((n,) * k)
    for r, t in itertools.permutations([*range(n), s, top], 2):
        if {r, t} & {s, top}:
            for i in range(k):
                v[(r,) * i + (t,) + (r,) * (k - 1 - i)] = circ(r, t)
    v[(np.arange(size),) * k] = np.arange(size)
    out = FiniteAlgebra(f"{alg.name}_ext", size,
                        {"v": OperationTable(k, size, v.ravel())})

    if not table_flags(out.op("v")).wnu:
        raise FalsificationError(
            f"extension of '{alg.name}' did not produce a wnu operation")
    # simple: every Cg(a, b) is 1_A, all labels 0 (size >= 4, so 0_A != 1_A);
    # the rows come by first pair, so the first that is not 1_A has the least pair
    labels, firsts, _ = _principal_table.__wrapped__(out)   # uncached: read once
    for (a, b), row in zip(firsts[1:], labels[1:]):
        if row.any():
            raise FalsificationError(f"extension of '{alg.name}' is not simple: "
                                     f"Cg({a}, {b}) = {Partition(len(row), tuple(row.tolist()))}")
    return out


# ---------------------------------------------------------------------------
# Random and exhaustive streams

def random_algebra(n: int, signature: Mapping[str, int], seed: int) -> FiniteAlgebra:
    """A reproducible random algebra for the given signature; every
    operation is held to the cap before the first draw."""
    for sym, arity in signature.items():
        core.check_power(n, arity, f"operation '{sym}'")
    rng = random.Random(seed)
    ops = {}
    for sym, arity in signature.items():
        ops[sym] = OperationTable(
            arity, n, [rng.randrange(n) for _ in range(n ** arity)])
    return FiniteAlgebra(f"rand{n}_{seed}", n, ops)


def exhaustive_enumerate(n: int, signature: Mapping[str, int]) -> Iterator[FiniteAlgebra]:
    """Every algebra of the signature on {0..n-1}; refuses when the stream
    would be infeasibly large."""
    cut = (1_000_000).bit_length() + 1      # exponents cut as in core.check_power
    exponent = sum(n ** min(arity, cut) for arity in signature.values())
    if n ** min(exponent, cut) > 1_000_000:     # n ** exponent algebras
        raise AlgebraError(f"infeasible enumeration request: more than 1000000 "
                           f"algebras of signature {dict(signature)} on {n} elements")
    syms = list(signature.items())
    spaces = [itertools.product(range(n), repeat=n ** arity) for _, arity in syms]
    for i, combo in enumerate(itertools.product(*spaces)):
        ops = {sym: OperationTable(arity, n, entries)
               for (sym, arity), entries in zip(syms, combo)}
        yield FiniteAlgebra(f"enum{n}_{i}", n, ops)


def random_semilattice(size: int, rng: random.Random) -> FiniteAlgebra:
    """A meet-semilattice from a random rooted tree (root 0 is the least
    element; meets are deepest common ancestors).

    Every parent precedes its child, so an element's ancestors are its
    parent's and itself, and for b < a the meet of a and b is b when b is
    an ancestor of a, else the meet of a's parent and b."""
    if size < 1:
        raise AlgebraError(f"algebra size must be >= 1, got {size}")
    anc = np.eye(size, dtype=bool)
    meet = np.diag(np.arange(size))
    for a in range(1, size):
        parent = rng.randrange(a)
        anc[a] |= anc[parent]
        meet[a, :a] = meet[:a, a] = np.where(anc[a, :a], np.arange(a), meet[parent, :a])
    table = OperationTable(2, size, meet.ravel())
    d = materialize_term(FiniteAlgebra("tree", size, {WEDGE: table}), _MEET3, 3)
    return FiniteAlgebra(f"tree{size}", size, {WEDGE: table, D: d})


# ---------------------------------------------------------------------------
# Corpus

@dataclass(frozen=True)
class CorpusSpec:
    seed: int = 20240817
    max_size: int = 8


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    algebra: FiniteAlgebra
    sim: Optional[Partition]
    tags: frozenset

    def has(self, *tags: str) -> bool:
        return all(t in self.tags for t in tags)


def _entry(alg, sim, *tags):
    return CorpusEntry(alg.name, alg, sim, frozenset(tags))


# block size layouts per glued algebra: (tree size, block sizes)
_GLUE_LAYOUTS = (
    (2, (2, 2)), (2, (3, 2)), (2, (2, 3)), (2, (2, 2)),
    (3, (2, 2, 1)), (3, (2, 1, 2)), (3, (3, 2, 2)), (3, (2, 2, 2)),
    (4, (2, 1, 1, 1)), (4, (2, 2, 1, 1)), (4, (2, 1, 2, 1)), (4, (3, 1, 2, 1)),
)


def build_corpus(spec: CorpusSpec = CorpusSpec()) -> list:
    """The deterministic test corpus.

    Tags: smb (with sim the witness partition), regular, semilattice,
    glued, regularized, extension, random, simple.  Every glued entry has
    a nonsingleton bottom block below another class, which guarantees it
    is SMB but not regular; its regularization is included as well.  No
    entry has more than spec.max_size elements.  A max_size below 1 raises
    AlgebraError, and one whose random semilattice's d table would pass
    the cap raises CapExceeded, both before any work.
    """
    if spec.max_size < 1:
        raise AlgebraError(f"corpus max size must be >= 1, got {spec.max_size}")
    core.check_power(spec.max_size, 3, "a corpus semilattice's d table")
    rng = random.Random(spec.seed)
    entries = []

    def zero_sim(alg):
        return Partition.zero(alg.size)

    entries.append(_entry(trivial_algebra(), Partition.one(1),
                          "smb", "regular", "semilattice"))
    entries.append(_entry(example_b2(), Partition.one(2), "smb", "regular", "affine"))
    e3 = example_e3()
    entries.append(_entry(e3, Partition(3, (0, 0, 1)), "smb", "regular"))
    n4 = example_n4()
    entries.append(_entry(n4, n4_sim(), "smb", "glued"))
    entries.append(_entry(regularize(n4, n4_sim()), n4_sim(),
                          "smb", "regular", "regularized"))

    s2 = example_s2()
    entries.append(_entry(s2, zero_sim(s2), "smb", "regular", "semilattice"))
    for k in range(3, min(4, spec.max_size) + 1):
        alg = chain_semilattice(k)
        entries.append(_entry(alg, zero_sim(alg), "smb", "regular", "semilattice"))
    for size in range(5, spec.max_size + 1):
        alg = random_semilattice(size, rng)
        entries.append(_entry(alg, zero_sim(alg), "smb", "regular", "semilattice"))

    for i, (tree_size, block_sizes) in enumerate(_GLUE_LAYOUTS):
        if sum(block_sizes) > spec.max_size:
            continue
        sl = random_semilattice(tree_size, rng)
        blocks = {c: affine_block(s) for c, s in enumerate(block_sizes)}
        sim = glue_layout(sl, blocks)
        offsets = [sum(block_sizes[:c]) for c in range(tree_size)]
        reps = {c: offsets[c] + rng.randrange(block_sizes[c])
                for c in range(tree_size)}
        glued = glue_smb(sl, blocks, reps, name=f"glued{sum(block_sizes)}_{i}")
        entries.append(_entry(glued, sim, "smb", "glued"))
        entries.append(_entry(
            regularize(glued, sim).rename(f"{glued.name}_reg"), sim,
            "smb", "regular", "regularized"))

    for alg in (trivial_algebra(), example_b2(), example_s2(),
                chain_semilattice(3), e3):
        if alg.size + 3 > spec.max_size:
            continue
        ext = extend_simple_type5(alg, D)
        entries.append(_entry(ext, None, "extension", "simple"))

    for i, n in enumerate((3, 3, 4)):
        alg = random_algebra(n, {WEDGE: 2, D: 3}, rng.randrange(1 << 30))
        entries.append(_entry(alg, None, "random"))

    # the fixed examples and random algebras are built whatever max_size is;
    # they drop out here, after every rng draw, so the draws stay the same
    return [e for e in entries if e.algebra.size <= spec.max_size]
