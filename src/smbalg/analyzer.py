"""Recognition and verification for semilattices of Mal'cev blocks.

An SMB algebra is an idempotent algebra with designated operations
`wedge` (binary) and `d` (ternary) together with a congruence `sim` such
that the quotient is a wedge-semilattice while on each sim-class wedge is
the second projection and d is Mal'cev.  The wedge half of that condition
is checked in one place, `wedge_conditions`, over the m x m table of
sim-classes of wedge at class representatives; `check_smb_over` adds
idempotence, the congruence test and the Mal'cev condition, and the
pipeline, the gluing construction and the circ class order reuse it.

Besides recognition, the module checks regularity and its twelve-identity
equational base, verifies the principal-congruence decomposition
Cg(a,b) = D o D o D with six-step polynomial witnesses, and runs the
congruence/commutator biconditionals that hold in the regular case.

The biconditional checkers compute both sides independently and raise
FalsificationError when they disagree, so the test suite doubles as a
falsification harness rather than assuming the mathematics.  The sweeps
over all of A^4 (`count_biconditional`) group the tuples by the values
each law reads; every disagreement check still runs, once per distinct
input, and a disagreement is re-raised by the pointwise checker at the
lexicographically least failing tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (AlgebraError, App, Const, FalsificationError, FiniteAlgebra,
                   Identity, OperationTable, PreconditionError, Quasiidentity,
                   Term, Var, Verdict, check_identity, eval_term, first_failure,
                   idempotence_violation, substitute, term_table)
from .partitions import Partition
from .relations import (GeneratedSet, _check_congruences, compose_relations,
                        congruence_violation, d_rel, polynomial_image_pairs,
                        principal_congruence, quotient_algebra, commutator,
                        congruence_lattice)

WEDGE = "wedge"
D = "d"

_x, _y, _z = Var(0), Var(1), Var(2)


def _w(a: Term, b: Term) -> Term:
    return App(WEDGE, (a, b))


def _d(a: Term, b: Term, c: Term) -> Term:
    return App(D, (a, b, c))


# ---------------------------------------------------------------------------
# Report types

@dataclass(frozen=True)
class ClassOrder:
    """A partial order on sim-classes; classes are tuples sorted by least
    element and leq holds index pairs (i, j) meaning classes[i] <= classes[j]."""
    classes: tuple
    leq: frozenset

    def le(self, i: int, j: int) -> bool:
        return (i, j) in self.leq

    def least(self) -> Optional[int]:
        for i in range(len(self.classes)):
            if all((i, j) in self.leq for j in range(len(self.classes))):
                return i
        return None

    def greatest(self) -> Optional[int]:
        for j in range(len(self.classes)):
            if all((i, j) in self.leq for i in range(len(self.classes))):
                return j
        return None

    def glb(self, i: int, j: int) -> Optional[int]:
        lower = [k for k in range(len(self.classes))
                 if (k, i) in self.leq and (k, j) in self.leq]
        for k in lower:
            if all((m, k) in self.leq for m in lower):
                return k
        return None

    def glb_closed(self) -> bool:
        m = len(self.classes)
        return all(self.glb(i, j) is not None for i in range(m) for j in range(m))


@dataclass(frozen=True)
class SmbReport:
    verdict: bool
    sim: Partition
    violations: tuple          # of (condition tag, witness tuple)
    class_order: Optional[ClassOrder]

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "sim": str(self.sim),
            "violations": [{"rule": rule, "witness": list(w)} for rule, w in self.violations],
        }


@dataclass(frozen=True)
class RegularityReport:
    holds: bool
    conditions: dict           # "i".."iv" -> Verdict

    def as_dict(self) -> dict:
        return {
            "verdict": self.holds,
            "conditions": {name: v.as_dict() for name, v in self.conditions.items()},
        }


BASE_IDENTITY_NAMES = ("Idem1", "Idem2", "Comm", "Assoc1", "Assoc2", "Mal",
                       "Regi1", "Regi2", "Regii1", "Regii2", "Regiii", "Regiv")


@dataclass(frozen=True)
class BaseReport:
    verdicts: dict             # identity name -> Verdict
    holds: bool
    recovered_sim: Optional[Partition]

    def as_dict(self) -> dict:
        return {
            "verdict": self.holds,
            "identities": {name: v.as_dict() for name, v in self.verdicts.items()},
            "sim": None if self.recovered_sim is None else str(self.recovered_sim),
        }


# ---------------------------------------------------------------------------
# Designated operations

def designated_ops(alg: FiniteAlgebra) -> Tuple[OperationTable, OperationTable]:
    if not alg.has_op(WEDGE, 2):
        raise AlgebraError(f"algebra '{alg.name}' has no binary operation '{WEDGE}'")
    if not alg.has_op(D, 3):
        raise AlgebraError(f"algebra '{alg.name}' has no ternary operation '{D}'")
    return alg.op(WEDGE), alg.op(D)


# ---------------------------------------------------------------------------
# SMB recognition

def wedge_conditions(wedge: OperationTable, sim: Partition) -> Tuple[list, list, ClassOrder]:
    """The wedge half of the SMB condition over sim: (mod_sim, second_proj, order).

    All of it is read off the m x m class table q[i, j] = [rep_i wedge
    rep_j], rep_i the least element of class i, and the n x n table of
    wedge.  mod_sim lists the Idem-, Comm- and Assoc-mod-sim failures of q
    in index order, with witnesses at the representatives; they describe
    the quotient only when wedge is compatible with sim, which the caller
    checks.  second_proj lists ("SecondProj", (a, b)) for a ~ b with
    a wedge b != b, class by class.  order relates classes i <= j when
    q[i, j] = i; it is the order of the quotient semilattice when both
    lists are empty and wedge is compatible with sim.
    """
    n = sim.size
    ids = np.asarray(sim.class_ids, dtype=np.int64)
    blocks = sim.blocks()
    reps = [blk[0] for blk in blocks]
    table = wedge.array.reshape(n, n)
    q = ids[table[np.ix_(reps, reps)]]
    c = np.arange(len(reps))
    assoc = q[q[:, :, None], c] != q[c[:, None, None], q]
    mod_sim = ([("Idem-mod-sim", (reps[i],)) for i in np.flatnonzero(q.diagonal() != c).tolist()]
               + [("Comm-mod-sim", (reps[i], reps[j])) for i, j in np.argwhere(q != q.T).tolist()]
               + [("Assoc-mod-sim", (reps[i], reps[j], reps[k]))
                  for i, j, k in np.argwhere(assoc).tolist()])
    same = ids[:, None] == ids
    second_proj = [("SecondProj", (a, b))
                   for a, b in _by_class(np.argwhere(same & (table != np.arange(n))), ids)]
    order = ClassOrder(tuple(blocks), frozenset(map(tuple, np.argwhere(q == c[:, None]).tolist())))
    return mod_sim, second_proj, order


def _by_class(pairs: np.ndarray, ids: np.ndarray) -> list:
    """Index pairs (a, b) from np.argwhere, stably regrouped by the class of a."""
    return pairs[np.argsort(ids[pairs[:, 0]], kind="stable")].tolist()


def _sim_conditions(wedge: OperationTable, d: OperationTable,
                    sim: Partition) -> Tuple[list, list, ClassOrder]:
    """(mod_sim, per_class, order): wedge_conditions plus the Mal'cev
    failures ("Malcev", (x, y, y)) and ("Malcev", (y, y, x)) of d on each
    class; per_class lists the SecondProj and then the Malcev failures of
    each class in turn."""
    mod_sim, second_proj, order = wedge_conditions(wedge, sim)
    n = sim.size
    ids = np.asarray(sim.class_ids, dtype=np.int64)
    x = np.arange(n)[:, None]
    y = np.arange(n)
    dt = d.array.reshape(n, n, n)
    dyy, yyx = dt[x, y, y], dt[y, y, x]          # d(x, y, y) and d(y, y, x) at [x, y]
    malcev = []
    for a, b in _by_class(np.argwhere((ids[:, None] == ids) & ((dyy != x) | (yyx != x))), ids):
        if dyy[a, b] != a:
            malcev.append(("Malcev", (a, b, b)))
        if yyx[a, b] != a:
            malcev.append(("Malcev", (b, b, a)))
    per_class = sorted(second_proj + malcev, key=lambda v: sim.class_ids[v[1][0]])
    return mod_sim, per_class, order


def _idempotence_violations(alg: FiniteAlgebra) -> list:
    out = []
    for sym, table in alg.operations.items():
        x = idempotence_violation(table)
        if x is not None:
            out.append(("Idempotence", (sym, x)))
    return out


def check_smb_over(alg: FiniteAlgebra, sim: Partition) -> SmbReport:
    """Check the SMB conditions for one candidate congruence.

    Violations carry the exact failing tuples, in this order:
      Idempotence   (symbol, least failing element), per operation
      Congruence    (symbol, args, args'); replaces the mod-sim checks
      Idem/Comm/Assoc-mod-sim   representative tuples at class level
      SecondProj    (a, b) in one class with wedge(a, b) != b
      Malcev        the failing d-argument triple inside one class
    SecondProj and Malcev are listed class by class.
    """
    wedge, d = designated_ops(alg)
    if sim.size != alg.size:
        raise AlgebraError(
            f"partition size {sim.size} does not match algebra size {alg.size}")
    bad = congruence_violation(alg, sim)
    mod_sim, per_class, order = _sim_conditions(wedge, d, sim)
    violations = (_idempotence_violations(alg)
                  + ([("Congruence", bad)] if bad is not None else mod_sim) + per_class)
    verdict = not violations
    return SmbReport(verdict, sim, tuple(violations), order if verdict else None)


def _check_smb(alg: FiniteAlgebra, sim: Partition) -> SmbReport:
    """check_smb_over, raising PreconditionError when the verdict fails."""
    report = check_smb_over(alg, sim)
    if not report.verdict:
        rule, witness = report.violations[0]
        raise PreconditionError(
            f"'{alg.name}' is not SMB over {sim}: {rule} fails at {witness}")
    return report


def find_smb_congruences(alg: FiniteAlgebra) -> list:
    """All congruences over which the algebra is SMB; empty means not SMB.

    Lattice members are congruences by construction and idempotence does
    not depend on sim, so only the per-sim conditions of check_smb_over
    are tested for each member.
    """
    wedge, d = designated_ops(alg)
    lattice = congruence_lattice(alg)
    if _idempotence_violations(alg):
        return []
    out = []
    for theta in lattice:
        mod_sim, per_class, _ = _sim_conditions(wedge, d, theta)
        if not mod_sim and not per_class:
            out.append(theta)
    return out


# ---------------------------------------------------------------------------
# Regularity

def check_regular(alg: FiniteAlgebra, sim: Partition) -> RegularityReport:
    """The four regularity conditions for an SMB algebra over sim.

    (i)   the sim-class of d(a,b,c) is the class of (a wedge b) wedge c,
    (ii)  comparable classes absorb: [a] >= [b] forces a wedge b = b,
    (iii) d(x,y,z) = d((y^z)^x, (x^z)^y, (x^y)^z) as an identity,
    (iv)  (x^y)^y = x^y as an identity.
    """
    report = _check_smb(alg, sim)
    wedge = alg.op(WEDGE)
    ids = np.asarray(sim.class_ids, dtype=np.int64)
    n = alg.size

    cond_i = first_failure(ids[term_table(alg, _d(_x, _y, _z), 3)]
                           != ids[term_table(alg, _w(_w(_x, _y), _z), 3)])
    order = report.class_order
    m = len(order.classes)
    leq = np.array([[order.le(i, j) for j in range(m)] for i in range(m)])
    # [b] <= [a] forces a wedge b = b
    cond_ii = first_failure(leq[ids[None, :], ids[:, None]]
                            & (wedge.array.reshape(n, n) != np.arange(n)))

    cond_iii = check_identity(alg, Identity(
        _d(_x, _y, _z),
        _d(_w(_w(_y, _z), _x), _w(_w(_x, _z), _y), _w(_w(_x, _y), _z))))
    cond_iv = check_identity(alg, Identity(_w(_w(_x, _y), _y), _w(_x, _y)))

    conditions = {"i": cond_i, "ii": cond_ii, "iii": cond_iii, "iv": cond_iv}
    return RegularityReport(all(v.holds for v in conditions.values()), conditions)


def regular_base_identities() -> dict:
    """The twelve-identity equational base, by name.  Each entry is a tuple
    of identities that must all hold (Mal bundles two)."""
    x, y, z = _x, _y, _z
    return {
        "Idem1": (Identity(_w(x, x), x),),
        "Idem2": (Identity(_d(x, x, x), x),),
        "Comm": (Identity(_w(_w(x, y), _w(y, x)), _w(y, x)),),
        "Assoc1": (Identity(_w(_w(x, _w(y, z)), _w(_w(x, y), z)), _w(_w(x, y), z)),),
        "Assoc2": (Identity(_w(_w(_w(x, y), z), _w(x, _w(y, z))), _w(x, _w(y, z))),),
        "Mal": (Identity(_d(_w(x, y), _w(y, x), _w(y, x)), _w(x, y)),
                Identity(_d(_w(y, x), _w(y, x), _w(x, y)), _w(x, y))),
        "Regi1": (Identity(_w(_w(_w(x, y), z), _d(x, y, z)), _d(x, y, z)),),
        "Regi2": (Identity(_w(_d(x, y, z), _w(_w(x, y), z)), _w(_w(x, y), z)),),
        "Regii1": (Identity(_w(x, _w(x, y)), _w(x, y)),),
        "Regii2": (Identity(_w(x, _w(y, x)), _w(y, x)),),
        "Regiii": (Identity(_d(x, y, z),
                            _d(_w(_w(y, z), x), _w(_w(x, z), y), _w(_w(x, y), z))),),
        "Regiv": (Identity(_w(_w(x, y), y), _w(x, y)),),
    }


def recovered_sim(alg: FiniteAlgebra) -> Partition:
    """The relation x ~ y iff x^y = y and y^x = x, which is the SMB
    congruence whenever the regular base holds.  Raises FalsificationError
    if the relation is not transitive."""
    wedge, _ = designated_ops(alg)
    n = alg.size
    table = wedge.array.reshape(n, n)
    related = (table == np.arange(n)) & (table.T == np.arange(n)[:, None])
    intransitive = first_failure(related[:, :, None] & related[None] & ~related[:, None, :])
    if not intransitive.holds:
        raise FalsificationError(
            f"wedge-derived relation on '{alg.name}' is not transitive "
            f"at {intransitive.witness}")
    return Partition.from_pairs(n, np.argwhere(related).tolist())


@lru_cache(maxsize=None)
def check_regular_base(alg: FiniteAlgebra) -> BaseReport:
    """Verify the twelve base identities; when they all hold, recover sim
    from the tables and confirm the algebra really is regular SMB over it."""
    designated_ops(alg)
    verdicts = {}
    for name, idents in regular_base_identities().items():
        verdict = Verdict(True)
        for ident in idents:
            verdict = check_identity(alg, ident)
            if not verdict.holds:
                break
        verdicts[name] = verdict
    holds = all(v.holds for v in verdicts.values())
    sim = None
    if holds:
        sim = recovered_sim(alg)
        smb = check_smb_over(alg, sim)
        if not smb.verdict:
            raise FalsificationError(
                f"base identities hold on '{alg.name}' but SMB fails over the "
                f"recovered sim: {smb.violations[0]}")
        reg = check_regular(alg, sim)
        if not reg.holds:
            bad = [k for k, v in reg.conditions.items() if not v.holds]
            raise FalsificationError(
                f"base identities hold on '{alg.name}' but regularity condition(s) "
                f"{bad} fail over the recovered sim")
    return BaseReport(verdicts, holds, sim)


@lru_cache(maxsize=None)
def _regular_context(alg: FiniteAlgebra):
    """(sim, quotient algebra, class map) for a regular SMB algebra."""
    base = check_regular_base(alg)
    if not base.holds:
        failing = [name for name, v in base.verdicts.items() if not v.holds]
        raise PreconditionError(
            f"'{alg.name}' does not satisfy the regular base; failing: {failing}")
    quot, cmap = quotient_algebra(alg, base.recovered_sim)
    return base.recovered_sim, quot, cmap


# ---------------------------------------------------------------------------
# The Taylor term

@dataclass(frozen=True)
class TaylorReport:
    holds: bool
    checks: tuple              # (label, Verdict)

    def as_dict(self) -> dict:
        return {"verdict": self.holds,
                "checks": {label: v.as_dict() for label, v in self.checks}}


def taylor_check(alg: FiniteAlgebra) -> TaylorReport:
    """Check the six-variable term t = d(x1^x2, x3^x4, x5^x6) against the
    three two-variable instances that must all equal x^y."""
    designated_ops(alg)
    xy, yx = _w(_x, _y), _w(_y, _x)
    checks = (
        ("t(x,y,x,y,x,y)", check_identity(alg, Identity(_d(xy, xy, xy), xy))),
        ("t(y,x,y,x,x,y)", check_identity(alg, Identity(_d(yx, yx, xy), xy))),
        ("t(x,y,y,x,y,x)", check_identity(alg, Identity(_d(xy, yx, yx), xy))),
    )
    return TaylorReport(all(v.holds for _, v in checks), checks)


# ---------------------------------------------------------------------------
# Cg = D o D o D with six-polynomial witnesses

@dataclass(frozen=True)
class ChainStep:
    poly: Term                 # unary polynomial, variable 0
    lo: int
    hi: int


@dataclass(frozen=True)
class CgD3Result:
    a: int
    b: int
    cg: Partition
    relation: frozenset
    chains: dict               # (c, d) -> tuple of 6 ChainStep


def _d_rel_leaf_terms(dset: GeneratedSet, a: int, b: int) -> dict:
    leaves = {}
    for i, elem in enumerate(dset.elements):
        if dset.trace[i] is not None:
            continue
        if elem == (a, b) and not any(isinstance(t, Var) and t.index == 0
                                      for t in leaves.values()):
            leaves[i] = Var(0)
        elif elem == (b, a) and not any(isinstance(t, Var) and t.index == 1
                                        for t in leaves.values()):
            leaves[i] = Var(1)
        else:
            leaves[i] = Const(elem[0])
    return leaves


def verify_cg_d3(alg: FiniteAlgebra, a: int, b: int) -> CgD3Result:
    """Confirm Cg(a,b) = D_{a,b} composed with itself three times, and build
    a six-step polynomial chain for every related pair.

    Requires the regular base; inequality of the two sides, or a chain that
    fails to replay, raises FalsificationError.
    """
    _regular_context(alg)
    cg = principal_congruence(alg, a, b)
    dset = d_rel(alg, a, b)
    dpairs = dset.as_set()
    d3 = compose_relations(compose_relations(dpairs, dpairs), dpairs)
    cg_rel = frozenset(cg.pairs())
    if cg_rel != d3:
        raise FalsificationError(
            f"Cg({a},{b}) and the triple D-composition differ on '{alg.name}': "
            f"symmetric difference {sorted(cg_rel ^ d3)[:4]}")

    succ: dict = {}
    for u, v in dset.elements:
        succ.setdefault(u, []).append(v)
    leaves = _d_rel_leaf_terms(dset, a, b)
    term_cache: dict = {}

    def binary_term(u, v):
        if (u, v) not in term_cache:
            term_cache[(u, v)] = dset.term_for(dset.index[(u, v)], leaves)
        return term_cache[(u, v)]

    def midpoints(c, d):
        if (c, d) in dset.index:
            return c, c
        for e4 in succ.get(c, ()):
            if (e4, d) in dset.index:
                return c, e4
        for e2 in succ.get(c, ()):
            for e4 in succ.get(e2, ()):
                if (e4, d) in dset.index:
                    return e2, e4
        raise FalsificationError(
            f"({c},{d}) in the composed relation has no 3-step decomposition")

    chains = {}
    for c, dd in sorted(cg_rel):
        e2, e4 = midpoints(c, dd)
        evens = (c, e2, e4, dd)
        steps = []
        for i in range(3):
            q = binary_term(evens[i], evens[i + 1])
            mid = eval_term(alg, q, (a, a))
            left = substitute(q, {0: Const(a), 1: Var(0)})
            right = substitute(q, {1: Const(a)})
            steps.append(ChainStep(left, evens[i], mid))
            steps.append(ChainStep(right, mid, evens[i + 1]))
        for step in steps:
            images = {eval_term(alg, step.poly, (a,)), eval_term(alg, step.poly, (b,))}
            if images != {step.lo, step.hi}:
                raise FalsificationError(
                    f"witness chain for ({c},{dd}) does not replay: step "
                    f"{step.lo}-{step.hi} has polynomial images {sorted(images)}")
        chains[(c, dd)] = tuple(steps)
    return CgD3Result(a, b, cg, d3, chains)


# ---------------------------------------------------------------------------
# Join membership chains

@dataclass(frozen=True)
class JoinChain:
    member: bool
    cs: Optional[tuple] = None
    ds: Optional[tuple] = None
    steps: Optional[tuple] = None   # (term, (u, v)) linking ds[i-1] to cs[i]


def join_membership_chain(alg: FiniteAlgebra, sim: Partition,
                          a: int, b: int, c: int, d: int) -> JoinChain:
    """Is (c, d) in Cg(a,b) join sim, with an explicit alternating chain
    c = c0 ~ d0, c1 ~ d1, ..., ck ~ dk = d whose links {d_{i-1}, c_i} are
    unary polynomial images of {a, b}."""
    _check_congruences(alg, sim)
    cg = principal_congruence(alg, a, b)
    member = cg.join(sim).related(c, d)

    pg = polynomial_image_pairs(alg, a, b)
    n = alg.size
    poly_adj: dict = {u: [] for u in range(n)}
    for u, v in pg.elements:
        poly_adj[u].append((v, (u, v)))
        if (v, u) not in pg.index:
            poly_adj[v].append((u, (u, v)))

    prev: dict = {c: None}
    frontier = [c]
    while frontier and d not in prev:
        nxt = []
        for u in frontier:
            for v in range(n):
                if sim.related(u, v) and v not in prev:
                    prev[v] = (u, "sim", None)
                    nxt.append(v)
            for v, oriented in sorted(poly_adj[u]):
                if v not in prev:
                    prev[v] = (u, "poly", oriented)
                    nxt.append(v)
        frontier = nxt

    reachable = d in prev
    if reachable != member:
        raise FalsificationError(
            f"join membership and chain reachability disagree for "
            f"Cg({a},{b}) v sim at ({c},{d}) on '{alg.name}'")
    if not member:
        return JoinChain(False)

    edges = []
    node = d
    while prev[node] is not None:
        u, kind, oriented = prev[node]
        edges.append((u, node, kind, oriented))
        node = u
    edges.reverse()

    leaves = {}
    for i, elem in enumerate(pg.elements):
        if pg.trace[i] is None:
            leaves[i] = Var(0) if elem == (a, b) else Const(elem[0])

    cs, ds, steps = [c], [], []
    current = c
    for u, v, kind, oriented in edges:
        if kind == "sim":
            current = v
        else:
            term = pg.term_for(pg.index[oriented], leaves)
            ds.append(current)
            steps.append((term, (current, v)))
            cs.append(v)
            current = v
    ds.append(current)
    return JoinChain(True, tuple(cs), tuple(ds), tuple(steps))


def cgvsim_below(alg: FiniteAlgebra, a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """From a chain witnessing (c,d) in Cg(a,b) join sim, produce (e, f) with
    (c,e), (d,f) in Cg(a,b), e ~ f, and the class of e below both [c] and [d].

    Built by left-nested wedge folds over the chain; all three properties
    are verified and a violation raises FalsificationError.
    """
    sim, _, _ = _regular_context(alg)
    chain = join_membership_chain(alg, sim, a, b, c, d)
    if not chain.member:
        raise PreconditionError(
            f"({c},{d}) is not in Cg({a},{b}) join sim on '{alg.name}'")
    wedge = alg.op(WEDGE)

    e = chain.cs[0]
    for cl in chain.cs[1:]:
        e = wedge.entries[wedge.index((cl, e))]
    f = chain.ds[-1]
    for dl in reversed(chain.ds[:-1]):
        f = wedge.entries[wedge.index((dl, f))]

    cg = principal_congruence(alg, a, b)
    ids = sim.class_ids
    wcd = wedge.entries[wedge.index((c, d))]
    below = ids[wedge.entries[wedge.index((e, wcd))]] == ids[e]
    if not (cg.related(c, e) and cg.related(d, f) and sim.related(e, f) and below):
        raise FalsificationError(
            f"fold witnesses (e,f)=({e},{f}) violate the lowering properties "
            f"for ({a},{b},{c},{d}) on '{alg.name}'")
    return e, f


def check_cgvsim(alg: FiniteAlgebra, a: int, b: int, c: int, d: int) -> bool:
    """(c,d) in Cg(a,b) join sim iff (c, d^c) and (d, c^d) are in Cg(a,b).

    Both sides are computed independently; disagreement raises
    FalsificationError.
    """
    sim, _, _ = _regular_context(alg)
    wedge = alg.op(WEDGE)
    cg = principal_congruence(alg, a, b)
    left = cg.join(sim).related(c, d)
    right = (cg.related(c, wedge.entries[wedge.index((d, c))])
             and cg.related(d, wedge.entries[wedge.index((c, d))]))
    if left != right:
        raise FalsificationError(
            f"join-membership biconditional fails at ({a},{b},{c},{d}) on "
            f"'{alg.name}': join side {left}, wedge side {right}")
    return left


def check_undersim(alg: FiniteAlgebra, a: int, b: int, c: int, d: int) -> bool:
    """Cg(a,b) meet Cg(c,d) below sim iff the corresponding quotient
    principal congruences meet trivially."""
    sim, quot, cmap = _regular_context(alg)
    left = principal_congruence(alg, a, b).meet(
        principal_congruence(alg, c, d)).refines(sim)
    right = principal_congruence(quot, cmap[a], cmap[b]).meet(
        principal_congruence(quot, cmap[c], cmap[d])).is_zero
    if left != right:
        raise FalsificationError(
            f"meet-below-sim biconditional fails at ({a},{b},{c},{d}) on "
            f"'{alg.name}': algebra side {left}, quotient side {right}")
    return left


def commutator_below_sim(alg: FiniteAlgebra, a: int, b: int, c: int, d: int) -> bool:
    """[Cg(a,b), Cg(c,d)] below sim iff the quotient commutator vanishes;
    the quotient side uses that commutator equals meet there."""
    sim, quot, cmap = _regular_context(alg)
    comm = commutator(alg, principal_congruence(alg, a, b),
                      principal_congruence(alg, c, d))
    left = comm.refines(sim)
    right = principal_congruence(quot, cmap[a], cmap[b]).meet(
        principal_congruence(quot, cmap[c], cmap[d])).is_zero
    if left != right:
        raise FalsificationError(
            f"commutator biconditional fails at ({a},{b},{c},{d}) on "
            f"'{alg.name}': commutator side {left}, quotient side {right}")
    return left


# ---------------------------------------------------------------------------
# The biconditionals over all of A^4, one evaluation per distinct input

BICONDITIONALS = {"cgvsim": check_cgvsim, "undersim": check_undersim,
                  "commutator": commutator_below_sim}


def _pair_groups(n: int, key) -> dict:
    """key(a, b) -> [(a, b) first in lexicographic order, number of pairs],
    over all pairs of {0..n-1}, in order of first appearance."""
    groups: dict = {}
    for a in range(n):
        for b in range(n):
            group = groups.setdefault(key(a, b), [(a, b), 0])
            group[1] += 1
    return groups


def _relation_rows(parts) -> np.ndarray:
    """One row per partition: its relation matrix, flattened, as int64."""
    ids = np.array([p.class_ids for p in parts], dtype=np.int64)
    return (ids[:, :, None] == ids[:, None, :]).reshape(len(parts), -1).astype(np.int64)


def _disagreement(alg: FiniteAlgebra, which: str, tup: tuple):
    """Re-run the pointwise checker at the least failing tuple; it raises
    its own FalsificationError, and if it does not, raise one here."""
    BICONDITIONALS[which](alg, *tup)
    raise FalsificationError(
        f"grouped {which} sweep disagrees at {tup} on '{alg.name}', "
        f"but the pointwise check holds there")


def count_biconditional(alg: FiniteAlgebra, which: str) -> int:
    """How many tuples (a, b, c, d) of A^4 satisfy the biconditional
    `which` ("cgvsim", "undersim" or "commutator"), with both sides
    compared on every tuple, as the pointwise checkers in BICONDITIONALS do.

    Each side reads (a, b) and (c, d) only through a few values, so pairs
    are grouped by exactly those values and each distinct input is
    evaluated once.  cgvsim reads Cg(a,b) and then c and d: per distinct
    Cg, both sides are n x n masks over (c, d).  undersim and commutator
    read Cg_A(a,b) and Cg_Q([a],[b]) in the quotient Q = A/sim, and group
    by the pair of both, never by Cg_A alone, since the quotient side is
    what is under test: both sides are K x K masks over pairs of keys.
    Groups keep the order of first appearance, so the lexicographically
    least failing tuple pairs first members of groups; at a disagreement
    the pointwise checker runs on it and raises its FalsificationError.
    """
    if which not in BICONDITIONALS:
        raise AlgebraError(f"unknown biconditional {which!r}")
    sim, quot, cmap = _regular_context(alg)
    n = alg.size
    if which == "cgvsim":
        groups = _pair_groups(n, lambda a, b: principal_congruence(alg, a, b))
        wedge = alg.op(WEDGE).array.reshape(n, n)
        true = 0
        for cg, (first, count) in groups.items():
            ids = np.asarray(cg.class_ids, dtype=np.int64)
            joined = np.asarray(cg.join(sim).class_ids, dtype=np.int64)
            left = joined[:, None] == joined
            # (c, d^c) and (d, c^d) in Cg(a,b), at [c, d]
            right = (ids[:, None] == ids[wedge.T]) & (ids == ids[wedge])
            bad = np.argwhere(left != right)
            if len(bad):
                _disagreement(alg, which, first + tuple(bad[0].tolist()))
            true += count * int(left.sum())
        return true

    groups = _pair_groups(n, lambda a, b: (
        principal_congruence(alg, a, b),
        principal_congruence(quot, cmap[a], cmap[b])))
    keys = list(groups)
    firsts = [first for first, _ in groups.values()]
    weights = np.array([count for _, count in groups.values()], dtype=np.int64)
    m = quot.size
    in_q = _relation_rows([q for _, q in keys]) * ~np.eye(m, dtype=bool).ravel()
    right = in_q @ in_q.T == 0                 # Cg_Q meet Cg_Q is 0_Q
    if which == "undersim":
        in_a = _relation_rows([p for p, _ in keys])
        outside_sim = 1 - _relation_rows([sim])[0]
        left = (in_a * outside_sim) @ in_a.T == 0    # Cg meet Cg below sim
    else:
        # compared pair by pair in the order of their least tuples, so a
        # commutator that raises for a later pair cannot hide a disagreement
        left = np.empty_like(right)
        for i, (p, _) in enumerate(keys):
            for j, (q, _) in enumerate(keys):
                left[i, j] = commutator(alg, p, q).refines(sim)
                if left[i, j] != right[i, j]:
                    _disagreement(alg, which, firsts[i] + firsts[j])
    bad = np.argwhere(left != right)
    if len(bad):
        i, j = bad[0].tolist()
        _disagreement(alg, which, firsts[i] + firsts[j])
    return int(weights @ left.astype(np.int64) @ weights)


# ---------------------------------------------------------------------------
# The alternating-chain fold

@dataclass(frozen=True)
class FoldResult:
    element: int
    holds: bool
    failures: tuple


def alternating_chain_fold(alg: FiniteAlgebra, sim: Partition, theta: Partition,
                      chain: Sequence[int]) -> FoldResult:
    """Left-nested wedge fold e = (..(c0 ^ c1) ^ ..) ^ ck over an alternating
    (sim, theta) chain c0, d0, c1, d1, ..., ck, dk.

    Verifies that the theta-class systems over [c0]~ and [dk]~ both inject
    into the one over [e]~, and that [e]~ lies below [c0 ^ dk]~.
    """
    if len(chain) < 2 or len(chain) % 2 != 0:
        raise AlgebraError("chain must list c0, d0, ..., ck, dk")
    wedge, _ = designated_ops(alg)
    _check_smb(alg, sim)
    _check_congruences(alg, theta)
    cs = tuple(chain[0::2])
    ds = tuple(chain[1::2])
    for ci, di in zip(cs, ds):
        if not sim.related(ci, di):
            raise PreconditionError(f"chain entries {ci} and {di} are not sim-related")
    for di, cnext in zip(ds, cs[1:]):
        if not theta.related(di, cnext):
            raise PreconditionError(f"chain entries {di} and {cnext} are not theta-related")

    e = cs[0]
    for cl in cs[1:]:
        e = wedge.entries[wedge.index((e, cl))]

    def theta_classes_over(u):
        return {theta.class_ids[x] for x in sim.block_of(u)}

    over_e = theta_classes_over(e)
    failures = []
    if not theta_classes_over(cs[0]) <= over_e:
        failures.append("start-class-system")
    if not theta_classes_over(ds[-1]) <= over_e:
        failures.append("end-class-system")
    ids = sim.class_ids
    meet_cd = wedge.entries[wedge.index((cs[0], ds[-1]))]
    if ids[wedge.entries[wedge.index((e, meet_cd))]] != ids[e]:
        failures.append("class-bound")
    return FoldResult(e, not failures, tuple(failures))


# ---------------------------------------------------------------------------
# The quasi-identity axioms for the SMB class

def smb_axioms() -> Tuple[dict, dict]:
    """Identities and quasi-identities axiomatizing SMB algebras, with the
    relation x ~ y encoded as x^y = y and y^x = x."""
    x1, x2, y1, y2, z1, z2 = (Var(i) for i in range(6))

    def sim_prem(u, v):
        return (Identity(_w(u, v), v), Identity(_w(v, u), u))

    identities = {
        "sl-idem-1": Identity(_w(_w(x1, x1), x1), x1),
        "sl-idem-2": Identity(_w(x1, _w(x1, x1)), _w(x1, x1)),
        "sl-comm-1": Identity(_w(_w(x1, y1), _w(y1, x1)), _w(y1, x1)),
        "sl-comm-2": Identity(_w(_w(y1, x1), _w(x1, y1)), _w(x1, y1)),
        "sl-assoc-1": Identity(_w(_w(_w(x1, y1), z1), _w(x1, _w(y1, z1))),
                               _w(x1, _w(y1, z1))),
        "sl-assoc-2": Identity(_w(_w(x1, _w(y1, z1)), _w(_w(x1, y1), z1)),
                               _w(_w(x1, y1), z1)),
    }
    wxy = _w(_w(x1, y1), _w(x2, y2))
    wyx = _w(_w(x2, y2), _w(x1, y1))
    dxyz1 = _d(x1, y1, z1)
    dxyz2 = _d(x2, y2, z2)
    quasis = {
        "wedge-compat-1": Quasiidentity(
            sim_prem(x1, x2) + sim_prem(y1, y2),
            Identity(wxy, _w(x2, y2))),
        "wedge-compat-2": Quasiidentity(
            sim_prem(x1, x2) + sim_prem(y1, y2),
            Identity(wyx, _w(x1, y1))),
        "d-compat-1": Quasiidentity(
            sim_prem(x1, x2) + sim_prem(y1, y2) + sim_prem(z1, z2),
            Identity(_w(dxyz1, dxyz2), dxyz2)),
        "d-compat-2": Quasiidentity(
            sim_prem(x1, x2) + sim_prem(y1, y2) + sim_prem(z1, z2),
            Identity(_w(dxyz2, dxyz1), dxyz1)),
        "block-proj": Quasiidentity(
            sim_prem(x1, y1), Identity(_w(x1, y1), y1)),
        "block-malcev-left": Quasiidentity(
            sim_prem(x1, y1), Identity(_d(y1, x1, x1), y1)),
        "block-malcev-right": Quasiidentity(
            sim_prem(x1, y1), Identity(_d(x1, x1, y1), y1)),
        "block-closure-1": Quasiidentity(
            sim_prem(x1, y1) + sim_prem(x1, z1),
            Identity(_w(x1, _d(x1, y1, z1)), _d(x1, y1, z1))),
        "block-closure-2": Quasiidentity(
            sim_prem(x1, y1) + sim_prem(x1, z1),
            Identity(_w(_d(x1, y1, z1), x1), x1)),
    }
    return identities, quasis
