"""Recognition and verification for semilattices of Mal'cev blocks.

An SMB algebra is an idempotent algebra with designated operations
`wedge` (binary) and `d` (ternary) together with a congruence `sim` such
that the quotient is a wedge-semilattice while on each sim-class wedge is
the second projection and d is Mal'cev.  The wedge half of that condition
is checked in one place, `wedge_conditions`, over the m x m table of
sim-classes of wedge at class representatives; `check_smb_over` adds
idempotence, the congruence test and the Mal'cev condition, and the
pipeline, the gluing construction and the circ class order reuse it.
With wedge fixed, sim is unique: it is the relation
R = {(a, b) : a^b = b and b^a = a} read off the wedge table
(`_wedge_relation`), so recognition (`find_smb_congruences`) and the
regular base (`recovered_sim`) check R and never build the congruence
lattice.  The lattice scan over every congruence stays as an independent
oracle in `smbalg.oracles`, for the tests.

Besides recognition, the module checks regularity and its twelve-identity
equational base, verifies the principal-congruence decomposition
Cg(a,b) = D o D o D with six-step polynomial witnesses (for many generator
pairs in one pass: one lane closure, batched matrix products and one
term-kernel replay), and runs the congruence/commutator biconditionals
that hold in the regular case.

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

from . import core
from .core import (AlgebraError, App, Const, FalsificationError, FiniteAlgebra,
                   Identity, OperationTable, PreconditionError, Quasiidentity,
                   Term, Var, Verdict, _term_boxes, check_identity, first_failure,
                   idempotence_violation, term_table)
from .partitions import Partition
from .relations import (_check_congruences, _commutator, congruence_violation,
                        d_rels, polynomial_image_pairs, principal_congruence,
                        quotient_algebra)

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
    """A relation on sim-classes, the order of the quotient semilattice
    when it comes from an SMB check.  classes are tuples sorted by least
    element; leq is the m x m boolean matrix as a tuple of row tuples,
    leq[i][j] meaning classes[i] <= classes[j].  The queries read leq as
    given, so they also answer on relations that are not orders."""
    classes: tuple
    leq: tuple

    def le(self, i: int, j: int) -> bool:
        return self.leq[i][j]

    def least(self) -> Optional[int]:
        """The first class below every class, or None."""
        return next(iter(np.flatnonzero(np.array(self.leq).all(axis=1)).tolist()), None)

    def greatest(self) -> Optional[int]:
        """The first class above every class, or None."""
        return next(iter(np.flatnonzero(np.array(self.leq).all(axis=0)).tolist()), None)

    def glb_closed(self) -> bool:
        """Every pair i, j has a glb: a lower bound k with l <= k for every
        lower bound l of i and j."""
        m = len(self.classes)
        leq = np.array(self.leq, dtype=bool).reshape(m, m)
        lower = (leq[:, :, None] & leq[:, None, :]).reshape(m, m * m).T   # [(i, j), l]
        strays = lower.astype(np.int64) @ ~leq     # [(i, j), k]: lower bounds l, not l <= k
        return bool((lower & (strays == 0)).any(axis=1).all())


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
    order = ClassOrder(tuple(blocks), tuple(map(tuple, (q == c[:, None]).tolist())))
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


def _wedge_relation(wedge: OperationTable) -> Tuple[Verdict, Optional[Partition]]:
    """R = {(a, b) : a^b = b and b^a = a}, symmetric by definition and
    reflexive when wedge is idempotent.  Returns (transitive, R): when R
    is not transitive, the Verdict fails at the least (a, b, c) with a R b,
    b R c and not a R c, and R is None."""
    n = wedge.size
    table = wedge.array.reshape(n, n)
    related = (table == np.arange(n)) & (table.T == np.arange(n)[:, None])
    transitive = first_failure(related[:, :, None] & related[None] & ~related[:, None, :])
    if not transitive.holds:
        return transitive, None
    return transitive, Partition.from_pairs(n, np.argwhere(related).tolist())


def find_smb_congruences(alg: FiniteAlgebra) -> list:
    """The congruences over which the algebra is SMB: [] (not SMB) or [R].

    With wedge fixed there is at most one such congruence, and it is
    R = {(a, b) : a^b = b and b^a = a}.  If a ~ b, second projection on the
    block gives (a, b) in R.  If (a, b) is in R, then [a]^[b] = [b] and
    [b]^[a] = [a] in the semilattice A/~, so [a] = [b] by commutativity.
    Four exact checks therefore decide, in this order: every operation is
    idempotent, R is transitive, and then check_smb_over over R: R is a
    congruence, and the per-sim conditions hold.  The congruence lattice is
    never built; `oracles.smb_congruences_by_lattice` keeps the scan over
    every member as the independent reference.
    """
    report = _smb_congruence(alg)
    return [] if report is None else [report.sim]


def _smb_congruence(alg: FiniteAlgebra) -> Optional[SmbReport]:
    """find_smb_congruences' four checks: the report of check_smb_over
    over R when the algebra is SMB over R, else None.  Idempotence and the
    transitivity of R are checked first, so R exists when check_smb_over
    runs; it ends at the congruence test or the per-sim conditions."""
    wedge, _ = designated_ops(alg)
    if _idempotence_violations(alg):
        return None
    _, sim = _wedge_relation(wedge)
    if sim is None:
        return None
    report = check_smb_over(alg, sim)
    return report if report.verdict else None


# ---------------------------------------------------------------------------
# Regularity

def check_regular(alg: FiniteAlgebra, sim: Partition) -> RegularityReport:
    """The four regularity conditions for an SMB algebra over sim.

    (i)   the sim-class of d(a,b,c) is the class of (a wedge b) wedge c,
    (ii)  comparable classes absorb: [a] >= [b] forces a wedge b = b,
    (iii) d(x,y,z) = d((y^z)^x, (x^z)^y, (x^y)^z) as an identity,
    (iv)  (x^y)^y = x^y as an identity.

    Raises PreconditionError when the algebra is not SMB over sim.
    """
    return _regular_conditions(alg, sim, _check_smb(alg, sim).class_order)


def _regular_conditions(alg: FiniteAlgebra, sim: Partition,
                        order: ClassOrder) -> RegularityReport:
    """check_regular's four conditions over a sim already checked SMB,
    with the class order from its SmbReport; (iii) and (iv) are Regiii and
    Regiv of the base."""
    wedge = alg.op(WEDGE)
    ids = np.asarray(sim.class_ids, dtype=np.int64)
    n = alg.size

    cond_i = first_failure(ids[term_table(alg, _d(_x, _y, _z), 3)]
                           != ids[term_table(alg, _w(_w(_x, _y), _z), 3)])
    leq = np.array(order.leq)
    # [b] <= [a] forces a wedge b = b
    cond_ii = first_failure(leq[ids[None, :], ids[:, None]]
                            & (wedge.array.reshape(n, n) != np.arange(n)))

    cond_iii = check_identity(alg, _REGULAR_BASE["Regiii"][0])
    cond_iv = check_identity(alg, _REGULAR_BASE["Regiv"][0])

    conditions = {"i": cond_i, "ii": cond_ii, "iii": cond_iii, "iv": cond_iv}
    return RegularityReport(all(v.holds for v in conditions.values()), conditions)


_REGULAR_BASE = {
    "Idem1": (Identity(_w(_x, _x), _x),),
    "Idem2": (Identity(_d(_x, _x, _x), _x),),
    "Comm": (Identity(_w(_w(_x, _y), _w(_y, _x)), _w(_y, _x)),),
    "Assoc1": (Identity(_w(_w(_x, _w(_y, _z)), _w(_w(_x, _y), _z)), _w(_w(_x, _y), _z)),),
    "Assoc2": (Identity(_w(_w(_w(_x, _y), _z), _w(_x, _w(_y, _z))), _w(_x, _w(_y, _z))),),
    "Mal": (Identity(_d(_w(_x, _y), _w(_y, _x), _w(_y, _x)), _w(_x, _y)),
            Identity(_d(_w(_y, _x), _w(_y, _x), _w(_x, _y)), _w(_x, _y))),
    "Regi1": (Identity(_w(_w(_w(_x, _y), _z), _d(_x, _y, _z)), _d(_x, _y, _z)),),
    "Regi2": (Identity(_w(_d(_x, _y, _z), _w(_w(_x, _y), _z)), _w(_w(_x, _y), _z)),),
    "Regii1": (Identity(_w(_x, _w(_x, _y)), _w(_x, _y)),),
    "Regii2": (Identity(_w(_x, _w(_y, _x)), _w(_y, _x)),),
    "Regiii": (Identity(_d(_x, _y, _z),
                        _d(_w(_w(_y, _z), _x), _w(_w(_x, _z), _y), _w(_w(_x, _y), _z))),),
    "Regiv": (Identity(_w(_w(_x, _y), _y), _w(_x, _y)),),
}
BASE_IDENTITY_NAMES = tuple(_REGULAR_BASE)


def regular_base_identities() -> dict:
    """The twelve-identity equational base, by name, as a copy of the one
    built at import.  Each entry is a tuple of identities that must all
    hold (Mal bundles two)."""
    return dict(_REGULAR_BASE)


def recovered_sim(alg: FiniteAlgebra) -> Partition:
    """The relation x ~ y iff x^y = y and y^x = x (`_wedge_relation`).

    It is the only congruence over which the algebra can be SMB with this
    wedge (see find_smb_congruences), so check_regular_base reads sim off
    the table with it once the base identities hold, and then confirms SMB
    and regularity over it.  The base identities make it transitive, so
    an intransitive relation raises FalsificationError."""
    wedge, _ = designated_ops(alg)
    transitive, sim = _wedge_relation(wedge)
    if sim is None:
        raise FalsificationError(
            f"wedge-derived relation on '{alg.name}' is not transitive "
            f"at {transitive.witness}")
    return sim


@lru_cache(maxsize=None)
def check_regular_base(alg: FiniteAlgebra) -> BaseReport:
    """Verify the twelve base identities; when they all hold, recover sim
    from the tables and confirm the algebra really is regular SMB over it.

    The identities speak of wedge and d only.  When SMB fails over the
    recovered sim in another operation alone (one that is not idempotent
    or not compatible with sim), PreconditionError names the rule; a
    failure of the {wedge, d} reduct raises FalsificationError."""
    designated_ops(alg)
    verdicts = {}
    for name, idents in _REGULAR_BASE.items():
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
            reduct = FiniteAlgebra(alg.name, alg.size, {WEDGE: alg.op(WEDGE), D: alg.op(D)})
            if check_smb_over(reduct, sim).verdict:
                raise PreconditionError(
                    f"base identities hold on '{alg.name}' but an operation other than "
                    f"'{WEDGE}' and '{D}' breaks SMB over the recovered sim {sim}: "
                    f"{smb.violations[0]}")
            raise FalsificationError(
                f"base identities hold on '{alg.name}' but SMB fails over the "
                f"recovered sim: {smb.violations[0]}")
        reg = _regular_conditions(alg, sim, smb.class_order)
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


def _d_pair_steps(alg: FiniteAlgebra, lanes: list) -> list:
    """For each (dset, index, a, b, links) of `lanes`, the two chain steps
    of each D-pair (u, v) = (q(a, b), q(b, a)) = dset.rows[index[u, v]] in
    `links`: q(a, x) from u to mid = q(a, a) and q(x, a) from mid to v.

    The step polynomials come straight from two term builders of `dset`:
    one reads the generator (a, b) as a and (b, a) as x, the other (a, b)
    as x and (b, a) as a; when a = b the (a, b) entry, written last, wins.
    The step polynomials of all lanes are evaluated in one pass of the term
    kernel and replayed at their lane's a and b; links[(u, v)] is the first
    chain (c, d) through the pair, named when one of its steps fails to
    replay.  The first failing step in lane, link and step order raises."""
    polys, points, ends, named = [], [], [], []
    for dset, index, a, b, links in lanes:
        left = dset.terms({(b, a): Var(0), (a, b): Const(a)})
        right = dset.terms({(b, a): Const(a), (a, b): Var(0)})
        for pair, chain in links.items():
            i = int(index[pair])
            polys += [left(i), right(i)]
            points.append((a, b))
            ends.append(pair)
            named.append(chain)
    images = np.empty((len(polys), alg.size), dtype=np.int64)
    (_, values), = _term_boxes(alg, polys, 1)
    for i, val in enumerate(values):
        images[i] = val
    points = np.array(points, dtype=np.int64).reshape(-1, 2).repeat(2, axis=0)
    at = np.take_along_axis(images, points, axis=1)   # each poly at its a and b
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    mid = at[0::2, 0]
    lo = np.stack([u, mid], axis=1).ravel()           # the left step, then the right
    hi = np.stack([mid, v], axis=1).ravel()
    ok = ((at[:, 0] == lo) & (at[:, 1] == hi)) | ((at[:, 0] == hi) & (at[:, 1] == lo))
    if not ok.all():
        i = int(np.argmin(ok))
        c, d = named[i // 2]
        raise FalsificationError(
            f"witness chain for ({c},{d}) does not replay: step "
            f"{int(lo[i])}-{int(hi[i])} has polynomial images {sorted(set(at[i].tolist()))}")
    mids, steps = iter(mid.tolist()), iter(polys)
    return [{pair: (ChainStep(next(steps), pair[0], m), ChainStep(next(steps), m, pair[1]))
             for pair, m in zip(links, mids)} for *_, links in lanes]


def _midpoints(dm: np.ndarray, d2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(e2, e4) for a stack of D matrices `dm` and their squares `d2`:
    e4[l, c, d] is the least e with D^2[c, e] and D[e, d], and e2[l, c, d]
    the least e with D[c, e] and D[e, e4], in D = dm[l] (0 where there is
    none).  Taken by argmax over the (lane, c) rows, a chunk of rows at a
    time, so no chunk holds more than `core.BLOCK_SIZE` booleans unless
    one row alone does."""
    lanes, n, _ = dm.shape
    dm_rows, d2_rows = dm.reshape(-1, n), d2.reshape(-1, n)
    dm_t = dm.transpose(0, 2, 1)
    e2, e4 = np.empty((2, lanes * n, n), dtype=np.intp)
    step = max(1, core.BLOCK_SIZE // (n * n))
    for lo in range(0, lanes * n, step):
        hi = min(lo + step, lanes * n)
        lane = np.arange(lo, hi) // n
        e4[lo:hi] = np.argmax(d2_rows[lo:hi, :, None] & dm[lane], axis=1)
        e2[lo:hi] = np.argmax(dm_rows[lo:hi, None, :] & dm_t[lane[:, None], e4[lo:hi]],
                              axis=2)
    return e2.reshape(lanes, n, n), e4.reshape(lanes, n, n)


def verify_cg_d3_pairs(alg: FiniteAlgebra, pairs: Sequence[tuple]) -> list:
    """For each generator pair (a, b) of `pairs`, in order, confirm
    Cg(a,b) = D_{a,b} composed with itself three times, and build a
    six-step polynomial chain for every related pair; one `CgD3Result`
    per pair.

    The D-relations come from one lane closure (`d_rels`).  Each D is an
    n x n array of indices into its rows, -1 off D, read as a boolean
    matrix; D^2 and D^3 are batched boolean matrix products over the
    stack of all pairs, and every D^3 must equal the relation of Cg(a,b).
    The chain for (c, d) runs c D e2 D e4 D d, with one rule for every
    pair: e4 is the least element with D^2[c, e4] and D[e4, d], and e2 the
    least with D[c, e2] and D[e2, e4] (`_midpoints`, batched).  Each link
    (u, v) is a D-pair, with a term q over the generators (a, b) and
    (b, a), and gives two steps (see `_d_pair_steps`).  The steps of the
    distinct D-pairs the chains of each generator pair use are built and
    replayed for all pairs together, in one term-kernel pass, and every
    chain through a D-pair shares the same two ChainStep objects.

    Requires the regular base; inequality of the two sides, or a step that
    fails to replay, raises FalsificationError for the first failing
    generator pair, and within one pair the inequality first.
    """
    _regular_context(alg)
    pairs = list(pairs)
    if not pairs:
        return []
    n = alg.size
    cgs = [principal_congruence(alg, a, b) for a, b in pairs]
    dsets = d_rels(alg, pairs)
    index = np.full((len(pairs), n, n), -1, dtype=np.int64)
    for l, dset in enumerate(dsets):
        index[l, dset.rows[:, 0], dset.rows[:, 1]] = np.arange(len(dset))
    dm = index >= 0
    d2 = dm @ dm
    d3 = d2 @ dm
    in_cg = _relation_rows(cgs).reshape(len(pairs), n, n)
    differ = (in_cg != d3).any(axis=(1, 2))
    held = int(np.argmax(differ)) if differ.any() else len(pairs)   # pairs before a failure

    e2, e4 = _midpoints(dm[:held], d2[:held])
    lanes, walks = [], []
    for l in range(held):
        cs, ds = np.nonzero(in_cg[l])
        links: dict = {}       # D-pair -> first chain through it
        walk = {}
        for c, m2, m4, d in zip(cs.tolist(), e2[l, cs, ds].tolist(),
                                e4[l, cs, ds].tolist(), ds.tolist()):
            chain = walk[(c, d)] = ((c, m2), (m2, m4), (m4, d))
            for pair in chain:
                links.setdefault(pair, (c, d))
        a, b = pairs[l]
        lanes.append((dsets[l], index[l], a, b, links))
        walks.append(walk)
    steps = _d_pair_steps(alg, lanes)         # raises for an earlier pair first
    if held < len(pairs):
        a, b = pairs[held]
        diff = [tuple(p) for p in np.argwhere(in_cg[held] != d3[held])[:4].tolist()]
        raise FalsificationError(
            f"Cg({a},{b}) and the triple D-composition differ on '{alg.name}': "
            f"symmetric difference {diff}")
    out = []
    for (a, b), cg, relation, walk, step in zip(pairs, cgs, d3, walks, steps):
        chains = {cd: step[p1] + step[p2] + step[p3] for cd, (p1, p2, p3) in walk.items()}
        out.append(CgD3Result(a, b, cg, frozenset(map(tuple, np.argwhere(relation).tolist())),
                              chains))
    return out


def verify_cg_d3(alg: FiniteAlgebra, a: int, b: int) -> CgD3Result:
    """Confirm Cg(a,b) = D o D o D for one generator pair: the one-pair
    call of `verify_cg_d3_pairs`."""
    return verify_cg_d3_pairs(alg, [(a, b)])[0]


# ---------------------------------------------------------------------------
# Join membership chains

def _check_elements(alg: FiniteAlgebra, *elements: int):
    n = alg.size
    for x in elements:
        if not 0 <= x < n:
            raise AlgebraError(f"element {x} out of range 0..{n - 1}")


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
    _check_elements(alg, a, b, c, d)
    _check_congruences(alg, sim)
    cg = principal_congruence(alg, a, b)
    member = cg.join(sim).related(c, d)

    pg = polynomial_image_pairs(alg, a, b)
    n = alg.size
    index = np.full((n, n), -1, dtype=np.int64)     # of (u, v) in pg.rows, or -1
    index[pg.rows[:, 0], pg.rows[:, 1]] = np.arange(len(pg))
    poly_adj: dict = {u: [] for u in range(n)}
    for u, v in pg.rows.tolist():
        poly_adj[u].append((v, (u, v)))
        if index[v, u] < 0:
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

    term = pg.terms({(a, b): Var(0)})
    cs, ds, steps = [c], [], []
    current = c
    for u, v, kind, oriented in edges:
        if kind == "sim":
            current = v
        else:
            ds.append(current)
            steps.append((term(int(index[oriented])), (current, v)))
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
    _check_elements(alg, a, b, c, d)
    sim, _, _ = _regular_context(alg)
    chain = join_membership_chain(alg, sim, a, b, c, d)
    if not chain.member:
        raise PreconditionError(
            f"({c},{d}) is not in Cg({a},{b}) join sim on '{alg.name}'")
    wedge = alg.op(WEDGE)

    e = chain.cs[0]
    for cl in chain.cs[1:]:
        e = wedge.apply(cl, e)
    f = chain.ds[-1]
    for dl in reversed(chain.ds[:-1]):
        f = wedge.apply(dl, f)

    cg = principal_congruence(alg, a, b)
    ids = sim.class_ids
    wcd = wedge.apply(c, d)
    below = ids[wedge.apply(e, wcd)] == ids[e]
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
    _check_elements(alg, a, b, c, d)
    sim, _, _ = _regular_context(alg)
    wedge = alg.op(WEDGE)
    cg = principal_congruence(alg, a, b)
    left = cg.join(sim).related(c, d)
    right = (cg.related(c, wedge.apply(d, c))
             and cg.related(d, wedge.apply(c, d)))
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
    comm = _commutator(alg, principal_congruence(alg, a, b),
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
                left[i, j] = _commutator(alg, p, q).refines(sim)
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
    _check_elements(alg, *chain)
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
        e = wedge.apply(e, cl)

    def theta_classes_over(u):
        return {theta.class_ids[x] for x in sim.block_of(u)}

    over_e = theta_classes_over(e)
    failures = []
    if not theta_classes_over(cs[0]) <= over_e:
        failures.append("start-class-system")
    if not theta_classes_over(ds[-1]) <= over_e:
        failures.append("end-class-system")
    ids = sim.class_ids
    meet_cd = wedge.apply(cs[0], ds[-1])
    if ids[wedge.apply(e, meet_cd)] != ids[e]:
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
