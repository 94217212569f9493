"""Term-iteration pipeline for weak near-unanimity operations.

Stages: the binary operation x o y = w(x,...,x,y) derived from a wnu w,
the n-fold iteration of w that makes covering class pairs behave like
meets, the absorption-closed (special) version of o obtained through
unique idempotent powers of the maps y -> x o y, the derived binary
candidate (y o x) o y which is a semilattice modulo sim and the second
projection on classes, and the regularization transform that upgrades an
SMB algebra to a regular one on the same universe.

The semilattice-term conclusion and the circ class order are checked by
the analyzer's single SMB routine, `wedge_conditions`, after a
compatibility test of the binary table with sim by `congruence_violation`
on the one-operation algebra of that table.

Factorial-fold compositions are never performed literally: for a self-map
f of a finite set, f composed with itself |A|! times is the unique
idempotent element of the monogenic semigroup generated by f, and that
idempotent is computed by fast exponentiation (checked in the tests
against `oracles.literal_power`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import core
from .core import (AlgebraError, App, FalsificationError,
                   FiniteAlgebra, OperationTable, PreconditionError,
                   Term, Var, first_failure,
                   idempotence_violation, materialize_term, table_flags)
from .partitions import Partition
from .analyzer import (ClassOrder, SmbReport, WEDGE, D, _check_smb,
                       check_regular_base, find_smb_congruences,
                       regular_base_identities, wedge_conditions)
from .relations import (_check_congruences, _commutator, congruence_generated,
                        congruence_violation)

_x, _y = Var(0), Var(1)


class RepresentativeInconsistency(AlgebraError):
    """The class order is ill defined: the defining comparison gives
    different answers for different representatives of the same classes."""


# ---------------------------------------------------------------------------
# Idempotent powers of self-maps

def idempotent_power(f: Sequence[int]) -> tuple:
    """The unique idempotent in {f, f^2, f^3, ...}.

    Equals the |A|!-fold composition of f with itself, computed by fast
    exponentiation instead of literal iteration.  f must map {0..len(f)-1}
    into itself; the first entry that does not is refused.
    """
    n = len(f)
    base = tuple(f)
    bad = next((x for x, v in enumerate(base) if not 0 <= v < n), None)
    if bad is not None:
        raise AlgebraError(f"not a self-map of 0..{n - 1}: f({bad}) = {base[bad]}")
    exponent = math.factorial(n)
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else tuple(base[x] for x in result)
        exponent >>= 1
        if exponent:
            base = tuple(base[x] for x in base)
    assert result is not None
    if tuple(result[x] for x in result) != result:
        raise FalsificationError("factorial power of a self-map is not idempotent")
    return result


# ---------------------------------------------------------------------------
# Pipeline stages

def _require_wnu(alg: FiniteAlgebra, w_symbol: str) -> OperationTable:
    table = alg.op(w_symbol)
    flags = table_flags(table)
    if not flags.wnu:
        raise PreconditionError(
            f"operation '{w_symbol}' of '{alg.name}' is not a weak "
            f"near-unanimity operation")
    return table


def _term_op(ops: dict, term: Term, arity: int) -> OperationTable:
    """The table of `term` over the operations `ops` (symbol -> table)."""
    n = next(iter(ops.values())).size
    return materialize_term(FiniteAlgebra("terms", n, ops), term, arity)


def _circ_of(table: OperationTable) -> OperationTable:
    """x o y = w(x, ..., x, y) for a wnu table w."""
    return OperationTable(2, table.size, core._circ(table).ravel())


def circ_table(alg: FiniteAlgebra, w_symbol: str) -> OperationTable:
    """The binary table x o y = w(x, ..., x, y); requires w to be wnu."""
    return _circ_of(_require_wnu(alg, w_symbol))


def iterate_wnu(alg: FiniteAlgebra, w_symbol: str) -> OperationTable:
    """The |A|-th iterate of w under
    w_{i+1}(xs) = w_i(w_i(xs) o x_1, ..., w_i(xs) o x_n).

    Each iterate is verified to stay wnu; losing the property would be an
    internal falsification.  Stops early at a table fixpoint.  The first
    iterate's `term_table` raises CapExceeded before it fills a table over
    the cap; only the wnu check and the binary circ, n^2 each, come first.
    """
    table = _require_wnu(alg, w_symbol)
    n = alg.size
    k = table.arity
    xs = tuple(Var(i) for i in range(k))
    m = App("w", xs)
    step = App("w", tuple(App("o", (m, x)) for x in xs))
    current = table
    for _ in range(1, n):
        new_table = _term_op({"w": current, "o": _circ_of(current)}, step, k)
        if new_table == current:     # already checked
            break
        if not table_flags(new_table).wnu:
            raise FalsificationError(
                f"iterating the wnu '{w_symbol}' on '{alg.name}' lost the "
                f"wnu property")
        current = new_table
    return current


def special_circ(alg: FiniteAlgebra, w_symbol: str) -> OperationTable:
    """The binary operation of the absorption-closed (special) wnu derived
    from w, built directly from idempotent powers of the maps y -> x o y.

    The special wnu itself has arity k^(|A|!) and is never materialized;
    everything downstream only needs its binary operation.
    """
    return _special_of_circ(circ_table(alg, w_symbol))


def _special_of_circ(circ: OperationTable) -> OperationTable:
    n = circ.size
    rows = circ.array.reshape(n, n).tolist()
    out = OperationTable(2, n, [v for row in rows for v in idempotent_power(row)])
    t = out.array.reshape(n, n)
    absorbing = first_failure(t[np.arange(n)[:, None], t] != t)    # x o (x o y) != x o y
    if not absorbing.holds:
        raise FalsificationError(f"special circ is not absorbing at {absorbing.witness}")
    return out


# ---------------------------------------------------------------------------
# Class order

def class_order_from_circ(alg: FiniteAlgebra, circ: OperationTable,
                          sim: Partition) -> ClassOrder:
    """Order the sim-classes by [x] <= [y] iff (y o x) ~ x, as a ClassOrder.

    circ must be a binary table on the algebra's universe (else
    AlgebraError), sim a congruence of the algebra, and circ compatible
    with sim; otherwise the comparison would depend on the representatives
    chosen, which is surfaced as RepresentativeInconsistency.
    """
    _check_congruences(alg, sim)
    return _class_order_from_circ(alg, circ, sim)


def _class_order_from_circ(alg: FiniteAlgebra, circ: OperationTable,
                           sim: Partition) -> ClassOrder:
    """`class_order_from_circ` for a sim known to be a congruence."""
    if circ.size != alg.size:
        raise AlgebraError("circ table size does not match the algebra")
    if circ.arity != 2:
        raise AlgebraError(f"circ must be binary, got arity {circ.arity}")
    bad = congruence_violation(FiniteAlgebra("circ", alg.size, {"circ": circ}), sim)
    if bad is not None:
        raise RepresentativeInconsistency(
            f"circ is not compatible with sim: it separates {bad[1]} and {bad[2]}")
    # [x] <= [y] iff (y o x) ~ x: the order read off the transposed circ
    n = alg.size
    transposed = OperationTable(2, n, circ.array.reshape(n, n).T.ravel())
    return wedge_conditions(transposed, sim)[2]


# ---------------------------------------------------------------------------
# Full pipeline and the derived semilattice term

@dataclass(frozen=True)
class PipelineResult:
    circ: OperationTable            # o of the input wnu
    iterated_wnu: OperationTable    # the |A|-th iterate of w
    circ_iterated: OperationTable   # o of the iterate
    circ_special: OperationTable    # o of the derived special wnu
    wedge_candidate: OperationTable  # (y o x) o y over the special circ
    diagnostics: dict


def run_pipeline(alg: FiniteAlgebra, w_symbol: str) -> PipelineResult:
    """All term-construction stages for one wnu operation."""
    iterated = iterate_wnu(alg, w_symbol)        # checks that w is wnu
    circ = _circ_of(alg.op(w_symbol))
    circ_iter = _circ_of(iterated)
    special = _special_of_circ(circ_iter)
    wedge_candidate = _term_op({"o": special}, App("o", (App("o", (_y, _x)), _y)), 2)

    diagnostics = {
        "circ": {"idempotent": idempotence_violation(circ) is None},
        "iterated_wnu": {"idempotent": idempotence_violation(iterated) is None,
                         "wnu": True,           # iterate_wnu verified it
                         "fixpoint": iterated == alg.op(w_symbol)},
        "circ_special": {"idempotent": idempotence_violation(special) is None,
                         "absorbing": True},   # construction verified it
        "wedge_candidate": {"idempotent": idempotence_violation(wedge_candidate) is None},
    }
    return PipelineResult(circ, iterated, circ_iter, special, wedge_candidate,
                          diagnostics)


@dataclass(frozen=True)
class SemilatticeTermResult:
    table: OperationTable
    report: SmbReport
    hypotheses: dict
    hypotheses_established: bool
    conclusion_holds: bool
    pipeline: PipelineResult           # the run the table was taken from


def semilattice_term(alg: FiniteAlgebra, w_symbol: str,
                     sim: Partition) -> SemilatticeTermResult:
    """The derived binary term (y o x) o y over the special circ of the
    iterated wnu, with the checkable surrogate hypotheses and the
    semilattice-plus-projection conclusion both verified.

    A failing conclusion under established hypotheses raises
    FalsificationError; with hypotheses not established the failure is
    only reported.  Checks the A^4 cap first, then that sim is a congruence.
    """
    core.check_power(alg.size, 4, "A^4")
    _check_congruences(alg, sim)
    result = run_pipeline(alg, w_symbol)

    # a congruence above sim relates two classes, so it contains their
    # representatives' Cg joined with sim: sim is maximal iff each such
    # join is 1_A
    reps = [blk[0] for blk in sim.blocks()]
    maximal = (not sim.is_one) and all(
        sim.join(congruence_generated(alg, [(a, b)])).is_one
        for a, b in itertools.combinations(reps, 2))
    order = _class_order_from_circ(alg, result.circ_iterated, sim)
    hypotheses = {
        "sim_abelian": _commutator(alg, sim, sim).is_zero,
        "sim_maximal": maximal,
        "greatest_class_exists": order.greatest() is not None,
    }
    established = all(hypotheses.values())

    table = result.wedge_candidate
    bad = congruence_violation(FiniteAlgebra(f"{alg.name}_wedge", alg.size, {WEDGE: table}), sim)
    mod_sim, second_proj, order = wedge_conditions(table, sim)
    violations = ([("Congruence", bad)] if bad is not None else mod_sim) + second_proj
    report = SmbReport(not violations, sim, tuple(violations),
                       None if violations else order)
    if established and not report.verdict:
        raise FalsificationError(
            f"semilattice-term conclusion fails on '{alg.name}' although the "
            f"surrogate hypotheses hold: {report.violations[0]}")
    return SemilatticeTermResult(result.wedge_candidate, report, hypotheses,
                                 established, report.verdict, result)


# ---------------------------------------------------------------------------
# Regularization

def regularize(alg: FiniteAlgebra, sim: Optional[Partition] = None) -> FiniteAlgebra:
    """Replace wedge and d by term operations making the algebra regular,
    over the same universe and the same sim; any other operations are kept
    as they are, after wedge and d.

    wedge'(x, y) applies the unique idempotent power of t -> t wedge y to
    x, and d' is d composed with the three wedge'-folds
    ((y'z)'x, (x'z)'y, (x'y)'z).  The output is verified to satisfy the
    regular base with sim unchanged and d' = d on every sim-class.
    """
    if sim is None:
        sims = find_smb_congruences(alg)
        if not sims:
            raise PreconditionError(f"'{alg.name}' is not an SMB algebra")
        sim = sims[0]
    else:
        _check_smb(alg, sim)

    d = alg.op(D)
    n = alg.size
    columns = [idempotent_power(col) for col in alg.op(WEDGE).array.reshape(n, n).T.tolist()]
    new_wedge = OperationTable(2, n, np.array(columns).T.ravel())
    regiii = regular_base_identities()["Regiii"][0].rhs
    out = FiniteAlgebra(f"{alg.name}_reg", n, {
        WEDGE: new_wedge,
        D: _term_op({WEDGE: new_wedge, D: d}, regiii, 3),
        **{sym: table for sym, table in alg.operations.items() if sym not in (WEDGE, D)},
    })

    base = check_regular_base(out)
    if not base.holds:
        failing = [k for k, v in base.verdicts.items() if not v.holds]
        raise FalsificationError(
            f"regularization of '{alg.name}' does not satisfy the regular "
            f"base; failing: {failing}")
    if base.recovered_sim != sim:
        raise FalsificationError(
            f"regularization of '{alg.name}' changed sim: {sim} became "
            f"{base.recovered_sim}")
    ids = np.asarray(sim.class_ids, dtype=np.int64)
    x, y, z = np.ix_(ids, ids, ids)
    changed = first_failure((x == y) & (y == z)
                            & (d.array != out.op(D).array).reshape(n, n, n))
    if not changed.holds:
        raise FalsificationError(
            f"regularization of '{alg.name}' changed d on the block triple "
            f"{changed.witness}")
    return out
