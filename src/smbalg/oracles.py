"""Independent oracles for the falsification harness; not part of the API.

Each function here but the last two computes, by a slower and more
literal route, a result that the library computes by a fast one.  The
tests compare the two, so these stay free of the shortcuts they check,
and nothing in the library calls them.  The last two are enumerations
that only the tests and the acceptance criteria use.  `smbalg` does not
re-export any of them; import them from `smbalg.oracles`.

  smb_congruences_by_lattice      every congruence of the lattice over which
                                  the algebra is SMB, against
                                  `analyzer.find_smb_congruences`
  congruence_by_alternating_closure   subpower closure in A^2 alternated with
                                  equivalence closure, against
                                  `relations.congruence_generated`
  commutator_oracle               the least congruence passing the term
                                  condition on the full M(alpha, beta), by a
                                  lattice scan, against `relations.commutator`
  literal_power                   literal composition, against
                                  `pipeline.idempotent_power`
  compose_relations               set-based composition of binary relations,
                                  against the boolean matrix products in
                                  `analyzer.verify_cg_d3_pairs`
  eval_term                       pointwise evaluation of a term, node by
                                  node, against the numpy kernel
                                  `core.term_table` and the chain replay of
                                  `analyzer.verify_cg_d3_pairs`
  unary_polynomials               every unary polynomial with a witnessing
                                  term, as the subuniverse of A^A generated
                                  by the identity and the constant maps
  all_subuniverses                every nonempty subuniverse, by closing
                                  each of the 2^n - 1 nonempty subsets

The lattice-based oracles are bounded by `relations.LATTICE_SIZE_CAP`, the
two enumerations by POL1_SIZE_CAP and SUBUNIVERSE_SIZE_CAP, which bound n
only: a size-5 algebra can have 629 unary polynomials.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .core import (AlgebraError, App, CapExceeded, Const, FalsificationError,
                   FiniteAlgebra, Term, Var)
from .partitions import Partition
from .analyzer import _idempotence_violations, _sim_conditions, designated_ops
from .relations import (_check_congruences, congruence_lattice,
                        generate_subpower, generate_subuniverse, matrix_set)

POL1_SIZE_CAP = 8
SUBUNIVERSE_SIZE_CAP = 12


def smb_congruences_by_lattice(alg: FiniteAlgebra) -> list:
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


def congruence_by_alternating_closure(alg: FiniteAlgebra, pairs: Iterable[tuple]) -> Partition:
    """Alternate subpower closure of the relation in A^2 with
    reflexive-symmetric-transitive closure until stable."""
    n = alg.size
    relation = set((c, c) for c in range(n))
    for a, b in pairs:
        relation.add((a, b))
        relation.add((b, a))
    while True:
        closed = generate_subpower(alg, 2, sorted(relation)).as_set()
        part = Partition.from_pairs(n, closed)
        new_rel = set(part.pairs())
        if new_rel == relation:
            return part
        relation = new_rel


def commutator_oracle(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Partition:
    """Independent commutator: the least congruence delta for which every
    matrix in M(alpha, beta) with a delta-related top row has a
    delta-related bottom row, found by scanning the whole lattice."""
    _check_congruences(alg, alpha, beta)
    matrices = matrix_set(alg, alpha, beta)
    lattice = congruence_lattice(alg)

    def satisfies(delta: Partition) -> bool:
        ids = np.asarray(delta.class_ids, dtype=np.int64)
        top = ids[matrices[:, 0]] == ids[matrices[:, 1]]
        bottom = ids[matrices[:, 2]] == ids[matrices[:, 3]]
        return not bool(np.any(top & ~bottom))

    candidates = [delta for delta in lattice if satisfies(delta)]
    if not candidates:
        raise FalsificationError(
            f"no congruence of {alg.name} satisfies the term condition for "
            f"({alpha}, {beta}); 1_A should always work")
    least = candidates[0]
    for delta in candidates[1:]:
        least = least.meet(delta)
    if not satisfies(least):
        raise FalsificationError(
            "congruences satisfying the term condition are not meet closed "
            f"on {alg.name} for ({alpha}, {beta})")
    return least


def compose_relations(r: Iterable[tuple], s: Iterable[tuple]) -> frozenset:
    """{(x, z) : exists y with (x,y) in r and (y,z) in s}."""
    by_mid: dict = {}
    for y, z in s:
        by_mid.setdefault(y, []).append(z)
    out = set()
    for x, y in r:
        for z in by_mid.get(y, ()):
            out.add((x, z))
    return frozenset(out)


def literal_power(f: Sequence[int], times: int) -> tuple:
    """f composed with itself `times` times, one composition at a time."""
    if times < 1:
        raise AlgebraError("need at least one composition")
    f = tuple(f)
    g = f
    for _ in range(times - 1):
        g = tuple(f[x] for x in g)
    return g


def eval_term(alg: FiniteAlgebra, term: Term, assignment: Sequence[int]) -> int:
    """Evaluate `term` in `alg` under an assignment of elements to variables.

    Pointwise and pure Python, validating each node as it is met; shared
    subterms (DAG nodes) are evaluated once per call.
    """
    memo: dict = {}
    n = alg.size

    def ev(t):
        hit = memo.get(id(t))
        if hit is not None:
            return hit
        if isinstance(t, App):
            table = alg.op(t.symbol)
            if len(t.args) != table.arity:
                raise AlgebraError(
                    f"operation '{t.symbol}' of arity {table.arity} applied to "
                    f"{len(t.args)} arguments")
            idx = 0
            for sub in t.args:
                idx = idx * n + ev(sub)
            val = table.entries[idx]
        elif isinstance(t, Var):
            if not 0 <= t.index < len(assignment):
                raise AlgebraError(f"assignment of length {len(assignment)} "
                                   f"does not cover variable {t.index}")
            val = assignment[t.index]
            if not 0 <= val < n:
                raise AlgebraError(f"assigned element {val} out of range 0..{n - 1}")
        elif isinstance(t, Const):
            if not 0 <= t.value < n:
                raise AlgebraError(f"element literal {t.value} out of range 0..{n - 1}")
            val = t.value
        else:
            raise AlgebraError(f"not a term node: {t!r}")
        memo[id(t)] = val
        return val

    return ev(term)


def unary_polynomials(alg: FiniteAlgebra) -> tuple:
    """All unary polynomial operations, each with one witnessing term.

    Computed as the subuniverse of the function power A^A generated by the
    identity map and the constant maps.  Returns ((values, term), ...) in
    the element order of `generate_subpower`; `values` is the map as a
    tuple.
    """
    n = alg.size
    if n > POL1_SIZE_CAP:
        raise CapExceeded(
            f"unary polynomial enumeration capped at universe size {POL1_SIZE_CAP}, "
            f"algebra has {n}")
    identity = tuple(range(n))
    gens = [identity] + [(c,) * n for c in range(n)]
    gen_set = generate_subpower(alg, n, gens)
    term = gen_set.terms({identity: Var(0)})
    return tuple((elem, term(i)) for i, elem in enumerate(gen_set.elements))


def all_subuniverses(alg: FiniteAlgebra) -> list:
    """Every nonempty subuniverse, each as a sorted tuple of elements.

    Closes each of the 2^n - 1 nonempty subsets, so the universe size is
    capped at SUBUNIVERSE_SIZE_CAP.
    """
    n = alg.size
    if n > SUBUNIVERSE_SIZE_CAP:
        raise CapExceeded(
            f"subuniverse enumeration capped at universe size {SUBUNIVERSE_SIZE_CAP}, "
            f"algebra has {n}")
    out = set()
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            out.add(generate_subuniverse(alg, subset))
    return sorted(out, key=lambda s: (len(s), s))
