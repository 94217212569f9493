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
pairs in one pass: one lane closure, one batched D^2 for the chain
midpoints and one check of every derivation step, which is all the CLI
runs; library callers also get the chains, built as terms and replayed in
one term-kernel pass, the library's one evaluator of derivations), and
runs the congruence/commutator biconditionals that hold in the regular
case, reading A/sim off the cached `check_regular_base`.

The biconditional checkers compute both sides independently and raise
FalsificationError when they disagree, so the test suite doubles as a
falsification harness rather than assuming the mathematics.  The sweeps
over all of A^4 (`count_biconditional`) group the tuples by the values
each law reads; every disagreement check still runs, once per distinct
input, and a disagreement is re-raised by the pointwise checker at the
lexicographically least failing tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import (AlgebraError, App, Const, FalsificationError, FiniteAlgebra,
                   Identity, OperationTable, PreconditionError, Quasiidentity,
                   Term, Var, Verdict, _compile, _identity_program, _least_failures,
                   _term_boxes, check_identities, first_failure, idempotence_violation)
from .partitions import Partition
from .relations import (_check_congruences, _classes, _commutator, _principal_table,
                        _quotient, congruence_violation, d_rels,
                        polynomial_image_pairs, principal_congruence, step_values)

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

    def is_partial_order(self) -> bool:
        """leq is reflexive and antisymmetric (leq & leq.T is the identity)
        and transitive."""
        m = len(self.classes)
        leq = np.array(self.leq, dtype=bool).reshape(m, m)
        return bool(((leq & leq.T) == np.eye(m, dtype=bool)).all()
                    and not _intransitive(leq).any())


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
    """The base verdicts; when all hold, sim too, and A/sim with its class
    map, built from `algebra` on first read (none of them in as_dict)."""
    verdicts: dict             # identity name -> Verdict
    holds: bool
    recovered_sim: Optional[Partition]
    algebra: Optional[FiniteAlgebra] = field(default=None, repr=False, compare=False)

    @cached_property
    def _sim_quotient(self) -> tuple:
        if self.recovered_sim is None:
            return None, None
        return _quotient(self.algebra, self.recovered_sim)   # smb found sim a congruence

    @property
    def quotient(self) -> Optional[FiniteAlgebra]:
        return self._sim_quotient[0]

    @property
    def class_map(self) -> Optional[tuple]:
        """a -> the index of [a] in quotient."""
        return self._sim_quotient[1]

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


def _intransitive(related: np.ndarray) -> np.ndarray:
    """The n x n x n cube, True at (a, b, c) when a R b, b R c and not a R c,
    of the relation R given as an n x n boolean matrix."""
    return related[:, :, None] & related[None] & ~related[:, None, :]


def _wedge_relation(wedge: OperationTable) -> Tuple[Verdict, Optional[Partition]]:
    """R = {(a, b) : a^b = b and b^a = a}, symmetric by definition and
    reflexive when wedge is idempotent.  Returns (transitive, R): when R
    is not transitive, the Verdict fails at the least (a, b, c) with a R b,
    b R c and not a R c, and R is None."""
    n = wedge.size
    table = wedge.array.reshape(n, n)
    related = (table == np.arange(n)) & (table.T == np.arange(n)[:, None])
    transitive = first_failure(_intransitive(related))
    if not transitive.holds:
        return transitive, None
    return transitive, Partition(n, tuple((related | np.eye(n, dtype=bool)).argmax(1).tolist()))


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


def _regular_conditions(alg: FiniteAlgebra, sim: Partition, order: ClassOrder,
                        base: Optional[dict] = None) -> RegularityReport:
    """check_regular's four conditions over a sim already checked SMB,
    with the class order from its SmbReport; (iii) and (iv) are Regiii and
    Regiv of the base, read from the verdicts `base` when given and else
    found in the one kernel pass that checks (i)."""
    ids = np.asarray(sim.class_ids, dtype=np.int64)
    n = alg.size
    program = _CONDITIONS if base is None else _CONDITION_I
    masks = ((box, [ids[d] != ids[w], *map(np.not_equal, sides[::2], sides[1::2])])
             for box, (d, w, *sides) in _term_boxes(alg, program))
    cond_i, *rest = _least_failures(masks, program.side_spans)
    leq = np.array(order.leq)
    # [b] <= [a] forces a wedge b = b
    cond_ii = first_failure(leq[ids[None, :], ids[:, None]]
                            & (alg.op(WEDGE).array.reshape(n, n) != np.arange(n)))
    cond_iii, cond_iv = rest or (base["Regiii"], base["Regiv"])
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
# The fixed identity sets, compiled once at import over wedge/2 and d/3
# with no literal, so binding them to an algebra that passed designated_ops
# cannot fail: the flattened base, and condition (i)'s two terms (both
# subterms of Regi1 and Regi2) alone and with Regiii and Regiv.
_BASE_PROGRAM = _identity_program([i for idents in _REGULAR_BASE.values() for i in idents])
_COND_I_TERMS = (_d(_x, _y, _z), _w(_w(_x, _y), _z))
_CONDITION_I = _compile(_COND_I_TERMS, 3)
_CONDITIONS = _compile(_COND_I_TERMS + tuple(t for name in ("Regiii", "Regiv")
                                             for ident in _REGULAR_BASE[name]
                                             for t in (ident.lhs, ident.rhs)), 3)


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
    """Check the thirteen identities of the twelve-name base in one kernel
    pass; when all hold, recover sim from the tables and confirm regular
    SMB over it ((iii) and (iv) are Regiii and Regiv).  A/sim is built on
    the report's first read of it.  The identities speak of wedge and d
    only: when SMB fails over the recovered sim in another operation alone
    (one not idempotent or not compatible with sim), PreconditionError
    names the rule; a failure of the {wedge, d} reduct raises FalsificationError."""
    designated_ops(alg)
    found = iter(check_identities(alg, _BASE_PROGRAM))
    verdicts = {}
    for name, idents in _REGULAR_BASE.items():
        # Mal's verdict is its first failing identity, else its last
        for verdict in [next(found) for _ in idents]:
            verdicts[name] = verdict
            if not verdict.holds:
                break
    if not all(v.holds for v in verdicts.values()):
        return BaseReport(verdicts, False, None)
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
    reg = _regular_conditions(alg, sim, smb.class_order, verdicts)
    if not reg.holds:
        bad = [k for k, v in reg.conditions.items() if not v.holds]
        raise FalsificationError(
            f"base identities hold on '{alg.name}' but regularity condition(s) "
            f"{bad} fail over the recovered sim")
    return BaseReport(verdicts, True, sim, alg)


def _regular_context(alg: FiniteAlgebra):
    """(sim, quotient algebra, class map) for a regular SMB algebra, read
    off its cached BaseReport; PreconditionError when the base fails."""
    base = check_regular_base(alg)
    if not base.holds:
        failing = [name for name, v in base.verdicts.items() if not v.holds]
        raise PreconditionError(
            f"'{alg.name}' does not satisfy the regular base; failing: {failing}")
    return base.recovered_sim, base.quotient, base.class_map


# ---------------------------------------------------------------------------
# The Taylor term

@dataclass(frozen=True)
class TaylorReport:
    holds: bool
    checks: tuple              # (label, Verdict)

    def as_dict(self) -> dict:
        return {"verdict": self.holds,
                "checks": {label: v.as_dict() for label, v in self.checks}}


# the three instances, compiled once like the base
_TAYLOR_LABELS = ("t(x,y,x,y,x,y)", "t(y,x,y,x,x,y)", "t(x,y,y,x,y,x)")
_TAYLOR_PROGRAM = _identity_program([
    Identity(_d(_w(_x, _y), _w(_x, _y), _w(_x, _y)), _w(_x, _y)),
    Identity(_d(_w(_y, _x), _w(_y, _x), _w(_x, _y)), _w(_x, _y)),
    Identity(_d(_w(_x, _y), _w(_y, _x), _w(_y, _x)), _w(_x, _y))])


def taylor_check(alg: FiniteAlgebra) -> TaylorReport:
    """Check the six-variable term t = d(x1^x2, x3^x4, x5^x6) against the
    three two-variable instances that must all equal x^y."""
    designated_ops(alg)
    checks = tuple(zip(_TAYLOR_LABELS, check_identities(alg, _TAYLOR_PROGRAM)))
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
    """For each (dset, a, b, links) of `lanes`, the two chain steps of each
    D-pair (u, v) = (q(a, b), q(b, a)) in `links`, a row of `dset` found
    through an n x n index of its rows: q(a, x) from u to m and q(x, a)
    from m to v, where m = q(a, a) is the left step's value at a.

    The step polynomials come straight from two term builders of `dset`:
    one reads the generator (a, b) as a and (b, a) as x, the other (a, b)
    as x and (b, a) as a; when a = b the (a, b) entry, written last, wins.
    The step polynomials of all lanes are evaluated in one pass of the term
    kernel, and each must take its two ends at its lane's a and b, in
    either order; that alone puts u, m and v in one class of Cg(a, b).
    links[(u, v)] is the first chain (c, d) through the pair, named when one
    of its steps fails to.  The first failing step in lane, link and step
    order raises."""
    polys, points, ends, named = [], [], [], []
    for dset, a, b, links in lanes:
        left = dset.terms({(b, a): Var(0), (a, b): Const(a)})
        right = dset.terms({(b, a): Const(a), (a, b): Var(0)})
        index = np.zeros((alg.size, alg.size), dtype=np.int64)
        index[dset.rows[:, 0], dset.rows[:, 1]] = np.arange(len(dset))
        for pair, chain in links.items():
            i = int(index[pair])
            polys += [left(i), right(i)]
            points.append((a, b))
            ends.append(pair)
            named.append(chain)
    images = np.empty((len(polys), alg.size), dtype=np.int64)
    (_, values), = _term_boxes(alg, _compile(polys, 1))
    for i, val in enumerate(values):
        images[i] = val
    points = np.array(points, dtype=np.int64).reshape(-1, 2).repeat(2, axis=0)
    at = np.take_along_axis(images, points, axis=1)   # each poly at its a and b
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    mid = at[::2, 0]                                  # the left step at a
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


def _related_pairs(ids: np.ndarray) -> tuple:
    """(ls, cs, ds): every (l, c, d) with ids[l, c] == ids[l, d], in the
    order of `np.nonzero`, with l in the type `core.int_dtype` picks for the
    rows of `ids` and c, d in the one it picks for its n columns.
    `np.nonzero` runs on at most `core.BLOCK_SIZE // n**2` rows at a time
    (at least one), so its intp columns never hold more than one chunk."""
    m, n = ids.shape
    related = ids[:, :, None] == ids[:, None, :]
    ls = np.empty(np.count_nonzero(related), dtype=core.int_dtype(m))
    cs, ds = np.empty((2, len(ls)), dtype=core.int_dtype(n))
    at, step = 0, max(1, core.BLOCK_SIZE // (n * n))
    for lo in range(0, m, step):
        l, c, d = np.nonzero(related[lo:lo + step])
        ls[at:at + len(l)], cs[at:at + len(l)], ds[at:at + len(l)] = l + lo, c, d
        at += len(l)
    return ls, cs, ds


def _midpoints(dm: np.ndarray, d2: np.ndarray, ls: np.ndarray, cs: np.ndarray,
               ds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(e2, e4) at the pairs (c, d) = (cs[i], ds[i]) of D = dm[ls[i]], for a
    stack of D matrices `dm` and their squares `d2`: e4[i] is the least e
    with D^2[c, e] and D[e, d], and e2[i] the least e with D[c, e] and
    D[e, e4[i]] (0 where there is none).  Taken by argmax over chunks of
    `core.BLOCK_SIZE // n` pairs (at least one), so no chunk holds more
    than `core.BLOCK_SIZE` booleans unless one pair's n alone do."""
    e2, e4 = np.empty((2, len(ls)), dtype=core.int_dtype(dm.shape[1]))
    step = max(1, core.BLOCK_SIZE // dm.shape[1])
    for lo in range(0, len(ls), step):
        hi = lo + step
        l, c, d = ls[lo:hi], cs[lo:hi], ds[lo:hi]
        e4[lo:hi] = np.argmax(d2[l, c] & dm[l, :, d], axis=1)
        e2[lo:hi] = np.argmax(dm[l, c] & dm[l, :, e4[lo:hi]], axis=1)
    return e2, e4


def _check_cg_d3(alg: FiniteAlgebra, pairs: list) -> tuple:
    """The array check of `verify_cg_d3_pairs`, which builds no term and no
    `Partition`: (dsets, chains) for the generator pairs (in range), in order.

    The D-relations come from one lane closure (`d_rels`).  Each D is an
    n x n boolean matrix set at its rows, one layer of a (pairs, n, n)
    stack.  Every element (u, v) of D must lie in Cg(a, b), the row
    labels[index[a, b]] of `_principal_table`, and
    every related pair (c, d) of Cg(a, b) gets a chain c D e2 D e4 D d
    whose three links must be D-pairs, with one rule for every pair: e4 is
    the least element with D^2[c, e4] and D[e4, d], and e2 the least with
    D[c, e2] and D[e2, e4] (`_midpoints`, by argmax at the related pairs
    over the stack and its batched D^2).  `chains` is five columns (pair,
    c, e2, e4, d), one entry per related pair (c, d) of each Cg(a, b), in
    pair order and then lexicographic; the pair column takes the type
    `core.int_dtype` picks for the pair count and the others the one for n
    (`_related_pairs`), int16 up to 32,767 pairs and elements.

    That decides Cg = D o D o D without a D^3: Cg is transitive, so D
    within Cg gives D^3 within Cg, and a chain through D for every pair of
    Cg gives Cg within D^3, whatever the argmax picked.  A pair of Cg with
    no witness shows up as a link off D.  D^2 is computed only for
    `_midpoints`; the tests compare with a D^3 of `oracles.compose_relations`.

    Each element (u, v) of D is (q(a, b), q(b, a)) for the term q its steps
    spell over the generators (a, b) and (b, a) and constants (c, c).  Each
    step of all D-relations is applied once to its parents' rows
    (`relations.step_values`) and must give its element's row.  The
    messages are a replay's: a late element and those derived from it share
    its lane, whose late check comes first, and in a lane without one the
    first element whose step does not give its row is the first a replay
    gets wrong, with the same value.  FalsificationError is raised for the
    first failing pair, and within one pair in this order: a step reads a
    parent not evaluated before it, a generator is not (a, b), (b, a) or
    diagonal, a step does not replay, an element of D is not in Cg(a, b),
    or a link (c, e2), (e2, e4) or (e4, d) of a chain is not a D-pair.
    Requires the regular base.
    """
    _regular_context(alg)
    n = alg.size
    labels, _, index = _principal_table(alg)
    ids = labels[index[tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)]]
    dsets = d_rels(alg, pairs)
    dm = np.zeros((len(pairs), n, n), dtype=bool)
    for l, dset in enumerate(dsets):
        dm[l, dset.rows[:, 0], dset.rows[:, 1]] = True
    ls, cs, ds = _related_pairs(ids)
    e2, e4 = _midpoints(dm, dm @ dm, ls, cs, ds)
    if pairs:
        lane = np.repeat(np.arange(len(pairs)), [len(dset) for dset in dsets])
        u, v = np.concatenate([dset.rows for dset in dsets]).T
        a, b = np.array(pairs, dtype=np.int64)[lane].T
        ends = ((u == a) & (v == b)) | ((u == b) & (v == a))
        gives, late = step_values(alg, dsets)
        stray = np.concatenate([dset.steps[:, 0] < 0 for dset in dsets]) & ~ends & (u != v)
        wrong = (gives[:, 0] != u) | (gives[:, 1] != v)
        outside = ids[lane, u] != ids[lane, v]
        off = ~(dm[ls, cs, e2] & dm[ls, e2, e4] & dm[ls, e4, ds])
        failing = np.concatenate([lane[late | stray | wrong | outside], ls[off]])
        if len(failing):
            l = int(failing.min())
            a, b = pairs[l]
            for flags, what in ((late, "reads a parent not evaluated before it"),
                                (stray, f"is a generator but not ({a},{b}), ({b},{a}) "
                                        f"or diagonal"),
                                (wrong, "does not replay: its step gives ({},{})"),
                                (outside, f"is not in Cg({a},{b})")):
                hit = np.flatnonzero(flags & (lane == l))
                if len(hit):
                    i = int(hit[0])
                    raise FalsificationError(
                        f"element ({u[i]},{v[i]}) of D_({a},{b}) on '{alg.name}' "
                        + what.format(*gives[i]))
            c, m2, m4, d = (int(col[off & (ls == l)][0]) for col in (cs, e2, e4, ds))
            raise FalsificationError(
                f"witness chain for ({c},{d}) leaves D_({a},{b}) on '{alg.name}': "
                f"its links are ({c},{m2}), ({m2},{m4}) and ({m4},{d})")
    return dsets, (ls, cs, e2, e4, ds)


def verify_cg_d3_pairs(alg: FiniteAlgebra, pairs: Sequence[tuple]) -> list:
    """For each generator pair (a, b) of `pairs`, in order, confirm
    Cg(a,b) = D_{a,b} composed with itself three times, and build a
    six-step polynomial chain for every related pair; one `CgD3Result`
    per pair.

    This is the array check `_check_cg_d3` plus the chains: the check
    puts D within Cg, checks every D-relation's steps and finds each chain
    c D e2 D e4 D d through D.  Each link (u, v) of a chain then gives two
    steps, built as terms over the generators (a, b) and (b, a), which
    meet at the midpoint q(a, a) (see `_d_pair_steps`).  The steps of the
    distinct D-pairs the chains of each generator pair use are built and
    replayed for all pairs together, in one term-kernel pass, and every
    chain through a D-pair shares the same two ChainStep objects.  Each
    result's chains are read straight from the check's columns.

    Requires the regular base, and then pairs in range (`principal_congruence`
    gives each result's Cg).  FalsificationError is raised for the first
    generator pair that fails the array check; when every pair passes it,
    for the first pair with a step polynomial that fails to replay.
    """
    pairs = list(pairs)
    _regular_context(alg)
    cgs = [principal_congruence(alg, a, b) for a, b in pairs]
    dsets, chains = _check_cg_d3(alg, pairs)
    links = [{} for _ in pairs]         # per pair: D-pair -> first chain through it
    for l, c, m2, m4, d in zip(*(col.tolist() for col in chains)):
        for pair in ((c, m2), (m2, m4), (m4, d)):
            links[l].setdefault(pair, (c, d))
    steps = _d_pair_steps(alg, [(dset, a, b, link)
                                for dset, (a, b), link in zip(dsets, pairs, links)])
    linked = [{} for _ in pairs]        # per pair: (c, d) -> its six steps
    for l, c, m2, m4, d in zip(*(col.tolist() for col in chains)):
        linked[l][c, d] = steps[l][c, m2] + steps[l][m2, m4] + steps[l][m4, d]
    return [CgD3Result(a, b, cg, frozenset(ch), ch) for (a, b), cg, ch in zip(pairs, cgs, linked)]


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


def join_membership_chain(alg: FiniteAlgebra, sim: Partition, a: int, b: int,
                          pairs: Sequence[tuple]) -> list:
    """For each (c, d) of `pairs`, in order, one JoinChain: is (c, d) in
    Cg(a,b) join sim, with an explicit alternating chain
    c = c0 ~ d0, c1 ~ d1, ..., ck ~ dk = d whose links {d_{i-1}, c_i} are
    unary polynomial images of {a, b}.

    The polynomial image pairs of {a, b} are closed, and sim checked,
    once for all pairs.  One breadth-first search over the sim-classes
    per class of c: each polynomial image pair (u, v) links the class of
    u to the class of v and back, so every chain has the fewest links.
    Reachability must agree with the join Cg(a,b) v sim computed apart,
    else FalsificationError."""
    pairs = list(pairs)
    _check_elements(alg, a, b, *(x for pair in pairs for x in pair))
    _check_congruences(alg, sim)
    join = principal_congruence(alg, a, b).join(sim)

    pg = polynomial_image_pairs(alg, a, b)
    ids = sim.class_ids
    links: dict = {}                # class id -> [(u, v, row of (u, v) or (v, u))]
    for i, (u, v) in enumerate(pg.rows.tolist()):
        links.setdefault(ids[u], []).append((u, v, i))
        links.setdefault(ids[v], []).append((v, u, i))
    searches: dict = {}             # class id of c -> {class id: the link reaching it first}
    term = pg.terms({(a, b): Var(0)})
    out = []
    for c, d in pairs:
        prev = searches.get(ids[c])
        if prev is None:
            prev = searches[ids[c]] = {ids[c]: None}
            queue = [ids[c]]
            for k in queue:
                for u, v, i in links.get(k, ()):
                    if ids[v] not in prev:
                        prev[ids[v]] = (u, v, i)
                        queue.append(ids[v])

        member = join.related(c, d)
        if (ids[d] in prev) != member:
            raise FalsificationError(
                f"join membership and chain reachability disagree for "
                f"Cg({a},{b}) v sim at ({c},{d}) on '{alg.name}'")
        if not member:
            out.append(JoinChain(False))
            continue

        path = []
        link = prev[ids[d]]
        while link is not None:
            path.append(link)
            link = prev[ids[link[0]]]
        path.reverse()
        out.append(JoinChain(True, (c,) + tuple(v for _, v, _ in path),
                             tuple(u for u, _, _ in path) + (d,),
                             tuple((term(i), (u, v)) for u, v, i in path)))
    return out


def cgvsim_below(alg: FiniteAlgebra, a: int, b: int, pairs: Sequence[tuple]) -> list:
    """For each (c, d) of `pairs`, in order, from a chain witnessing (c,d)
    in Cg(a,b) join sim, produce (e, f) with (c,e), (d,f) in Cg(a,b), e ~ f,
    and the class of e below both [c] and [d].  The chains come from one
    `join_membership_chain` call for all pairs.

    Built by wedge folds that take each next element of the chain on the
    left, e = c_k^(..^(c_1^c_0)) and f = d_0^(d_1^(..^d_k)); left-nested
    folds break the properties on some regular algebras.  All three
    properties are verified and a violation raises FalsificationError.
    A pair outside the join raises PreconditionError.
    """
    pairs = list(pairs)
    _check_elements(alg, a, b, *(x for pair in pairs for x in pair))
    sim, _, _ = _regular_context(alg)
    chains = join_membership_chain(alg, sim, a, b, pairs)
    wedge = alg.op(WEDGE)
    cg = principal_congruence(alg, a, b)
    ids = sim.class_ids
    out = []
    for (c, d), chain in zip(pairs, chains):
        if not chain.member:
            raise PreconditionError(
                f"({c},{d}) is not in Cg({a},{b}) join sim on '{alg.name}'")
        e = chain.cs[0]
        for cl in chain.cs[1:]:
            e = wedge.apply(cl, e)
        f = chain.ds[-1]
        for dl in reversed(chain.ds[:-1]):
            f = wedge.apply(dl, f)

        wcd = wedge.apply(c, d)
        below = ids[wedge.apply(e, wcd)] == ids[e]
        if not (cg.related(c, e) and cg.related(d, f) and sim.related(e, f) and below):
            raise FalsificationError(
                f"fold witnesses (e,f)=({e},{f}) violate the lowering properties "
                f"for ({a},{b},{c},{d}) on '{alg.name}'")
        out.append((e, f))
    return out


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


def _quotient_meet_is_zero(quot: FiniteAlgebra, cmap: tuple, a, b, c, d) -> bool:
    """The quotient side of check_undersim and commutator_below_sim."""
    return principal_congruence(quot, cmap[a], cmap[b]).meet(
        principal_congruence(quot, cmap[c], cmap[d])).is_zero


def check_undersim(alg: FiniteAlgebra, a: int, b: int, c: int, d: int) -> bool:
    """Cg(a,b) meet Cg(c,d) below sim iff the corresponding quotient
    principal congruences meet trivially."""
    sim, quot, cmap = _regular_context(alg)
    left = principal_congruence(alg, a, b).meet(
        principal_congruence(alg, c, d)).refines(sim)
    right = _quotient_meet_is_zero(quot, cmap, a, b, c, d)
    if left != right:
        raise FalsificationError(
            f"meet-below-sim biconditional fails at ({a},{b},{c},{d}) on "
            f"'{alg.name}': algebra side {left}, quotient side {right}")
    return left


def commutator_below_sim(alg: FiniteAlgebra, a: int, b: int, c: int, d: int) -> bool:
    """[Cg(a,b), Cg(c,d)] below sim iff the quotient commutator vanishes;
    the quotient side uses that commutator equals meet there."""
    core.check_power(alg.size, 4, "A^4")
    sim, quot, cmap = _regular_context(alg)
    comm = _commutator(alg, principal_congruence(alg, a, b),
                       principal_congruence(alg, c, d))
    left = comm.refines(sim)
    right = _quotient_meet_is_zero(quot, cmap, a, b, c, d)
    if left != right:
        raise FalsificationError(
            f"commutator biconditional fails at ({a},{b},{c},{d}) on "
            f"'{alg.name}': commutator side {left}, quotient side {right}")
    return left


# ---------------------------------------------------------------------------
# The biconditionals over all of A^4, one evaluation per distinct input

BICONDITIONALS = {"cgvsim": check_cgvsim, "undersim": check_undersim,
                  "commutator": commutator_below_sim}


def _relation_rows(labels: np.ndarray) -> np.ndarray:
    """Each label row's relation matrix, flattened, as float64 for BLAS (exact: counts <= n^2)."""
    return (labels[:, :, None] == labels[:, None, :]).reshape(len(labels), -1).astype(np.float64)


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
    are grouped by exactly those values (one `np.unique` over
    `_principal_table` indices) and each distinct input is evaluated once,
    on the table's rows.  cgvsim reads Cg(a,b), then c and d: both sides
    are n x n masks over (c, d), Cg v sim by `_classes` over chunks of at
    most `core.BLOCK_SIZE // n^2` rows.  undersim and commutator read
    Cg_A(a,b) and Cg_Q([a],[b]) in Q = A/sim and group by both indices, as
    the quotient side is under test: both sides are K x K masks over pairs
    of keys.  Groups are ordered by first pair, so the lexicographically
    least failing tuple pairs first members of groups; the pointwise
    checker runs on it and raises its FalsificationError.
    """
    if which not in BICONDITIONALS:
        raise AlgebraError(f"unknown biconditional {which!r}")
    if which == "commutator":
        core.check_power(alg.size, 4, "A^4")
    sim, quot, cmap = _regular_context(alg)
    n = alg.size
    labels, _, key = _principal_table(alg)
    if which != "cgvsim":
        qlabels, _, qindex = _principal_table(quot)
        key = key * len(qlabels) + qindex[np.ix_(cmap, cmap)]
    keys, at, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(at)
    keys, weights = keys[order], counts[order]
    firsts = [divmod(f, n) for f in at[order].tolist()]
    in_sim = np.equal.outer(sim.class_ids, sim.class_ids)
    if which == "cgvsim":
        wedge = alg.op(WEDGE).array.reshape(n, n)
        true, step = 0, max(1, core.BLOCK_SIZE // n ** 2)
        for lo in range(0, len(keys), step):
            ids = labels[keys[lo:lo + step]]
            cg = ids[:, :, None] == ids[:, None, :]
            joined = _classes(cg | in_sim)
            left = joined[:, :, None] == joined[:, None, :]
            # (c, d^c) and (d, c^d) in Cg(a,b), at [group, c, d]
            right = cg[:, np.arange(n)[:, None], wedge.T] & cg[:, np.arange(n), wedge]
            bad = np.argwhere(left != right)
            if len(bad):
                _disagreement(alg, which, firsts[lo + bad[0, 0]] + tuple(bad[0, 1:].tolist()))
            true += int(weights[lo:lo + step] @ left.sum(axis=(1, 2)))
        return true

    rows, qrows = np.divmod(keys, len(qlabels))
    in_q = _relation_rows(qlabels[qrows]) * ~np.eye(quot.size, dtype=bool).ravel()
    right = in_q @ in_q.T == 0                 # Cg_Q meet Cg_Q is 0_Q
    if which == "undersim":
        in_a = _relation_rows(labels[rows])
        left = (in_a * ~in_sim.ravel()) @ in_a.T == 0    # Cg meet Cg below sim
    else:
        # compared pair by pair in the order of their least tuples, so a
        # commutator that raises for a later pair cannot hide a disagreement
        cgs = [Partition(n, tuple(row)) for row in labels.tolist()]    # every row is a key's
        left = np.empty_like(right)
        for i, p in enumerate(rows.tolist()):
            for j, q in enumerate(rows.tolist()):
                left[i, j] = _commutator(alg, cgs[p], cgs[q]).refines(sim)
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
