"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are exact (zero disagreements / zero failures); nothing is
sampled below the stated sizes.  Run with `pytest tests/test_acceptance.py -v`.
"""

import itertools
import math
import random

import pytest

from smbalg import (FalsificationError, Partition, check_regular,
                    check_regular_base, check_smb_over, check_cgvsim,
                    check_undersim, commutator,
                    commutator_below_sim, congruence_lattice,
                    exhaustive_enumerate, find_smb_congruences,
                    idempotent_power, product_algebra,
                    push_partition, quotient_algebra, random_algebra,
                    regularize, subalgebra, semilattice_term,
                    special_circ, table_flags, verify_cg_d3_pairs)
from smbalg import relations
from smbalg.constructions import build_corpus, example_e3
from smbalg.oracles import (all_subuniverses, commutator_oracle,
                            literal_power, smb_congruences_by_lattice,
                            unary_polynomials)

CORPUS = build_corpus()
SIGNATURE = {"wedge": 2, "d": 3}


def _report(label, failures, extra=""):
    if failures:
        print(f"[acceptance] {label}: FAIL ({len(failures)} failures; "
              f"first: {failures[0]})")
    else:
        print(f"[acceptance] {label}: PASS{extra}")
    assert not failures, f"{label}: {failures[:5]}"


def _regular_by_definition(alg):
    sims = smb_congruences_by_lattice(alg)
    return any(check_regular(alg, sim).holds for sim in sims)


def _smb_detected(alg, label, failures):
    """SMB by the lattice scan; a disagreeing find_smb_congruences is a
    failure of its own."""
    sims = smb_congruences_by_lattice(alg)
    if find_smb_congruences(alg) != sims:
        failures.append(label + ("find_smb_congruences differs from the scan",))
    return bool(sims)


def test_criterion_1_equational_base_correctness():
    """Base identities hold iff the algebra is a regular SMB algebra."""
    failures = []
    count = 0
    for alg in exhaustive_enumerate(2, SIGNATURE):
        count += 1
        try:
            via_base = check_regular_base(alg).holds
        except FalsificationError as exc:
            failures.append((alg.name, "falsified", str(exc)))
            continue
        if via_base != _regular_by_definition(alg):
            failures.append((alg.name, via_base))
    assert count == 4096
    rng = random.Random(60601)
    for i in range(1000):
        alg = random_algebra(3, SIGNATURE, rng.randrange(1 << 30))
        try:
            via_base = check_regular_base(alg).holds
        except FalsificationError as exc:
            failures.append((alg.name, "falsified", str(exc)))
            continue
        if via_base != _regular_by_definition(alg):
            failures.append((alg.name, via_base))
    _report("1 equational base (4096 exhaustive at n=2 + 1000 random at n=3)",
            failures)


def test_criterion_2_cg_equals_d3_with_six_chains():
    """Cg(a,b) is the triple D-composition, with replaying 6-step chains."""
    regular = [e for e in CORPUS if e.has("regular")]
    assert len(regular) >= 20
    assert {e.algebra.size for e in regular} <= set(range(1, 9))
    assert {e.algebra.size for e in regular} == set(range(1, 9))
    failures = []
    chains = 0
    for entry in regular:
        alg = entry.algebra
        for a in range(alg.size):
            for b in range(a, alg.size):
                try:
                    result = verify_cg_d3_pairs(alg, [(a, b)])[0]
                except FalsificationError as exc:
                    failures.append((entry.name, a, b, str(exc)))
                    continue
                for steps in result.chains.values():
                    if len(steps) != 6:
                        failures.append((entry.name, a, b, "chain length"))
                chains += len(result.chains)
    _report("2 Cg = D^3 with 6-step witnesses",
            failures, f" ({len(regular)} algebras, {chains} chains)")


def test_criterion_3_hsp_closure():
    """Quotients, subalgebras and capped products of SMB algebras stay SMB,
    by the lattice scan, and find_smb_congruences agrees with the scan on
    each of them."""
    smb = [e for e in CORPUS if e.has("smb")]
    failures = []
    for entry in smb:
        alg, sim = entry.algebra, entry.sim
        for theta in congruence_lattice(alg):
            quot, cmap = quotient_algebra(alg, theta)
            witness = push_partition(theta, cmap, quot.size, sim.join(theta))
            if not check_smb_over(quot, witness).verdict:
                failures.append((entry.name, "quotient-witness", str(theta)))
            label = (entry.name, "quotient-detect", str(theta))
            if not _smb_detected(quot, label, failures):
                failures.append(label)
        for sub in all_subuniverses(alg):
            label = (entry.name, "subalgebra", sub)
            if not _smb_detected(subalgebra(alg, sub), label, failures):
                failures.append(label)
    for i, left in enumerate(smb):
        for right in smb[i:]:
            if left.algebra.size * right.algebra.size > 10:
                continue
            prod = product_algebra(left.algebra, right.algebra)
            label = (left.name, right.name, "product")
            if not _smb_detected(prod, label, failures):
                failures.append(label)
    _report("3 HSP closure (quotients, subalgebras, capped products)", failures)


def test_criterion_4_regularization():
    """Regularizing glued non-regular SMB algebras yields the regular base,
    keeps sim, and keeps d on every block triple."""
    glued = [e for e in CORPUS if e.has("glued")]
    assert len(glued) >= 11  # n4 plus at least ten seeded gluings
    failures = []
    for entry in glued:
        alg, sim = entry.algebra, entry.sim
        if check_regular(alg, sim).holds:
            failures.append((entry.name, "unexpectedly regular"))
            continue
        try:
            reg = regularize(alg, sim)
        except FalsificationError as exc:
            failures.append((entry.name, str(exc)))
            continue
        base = check_regular_base(reg)
        if not base.holds:
            failures.append((entry.name, "base fails"))
        if base.recovered_sim != sim:
            failures.append((entry.name, "sim changed"))
        d_old, d_new = alg.op("d"), reg.op("d")
        for blk in sim.blocks():
            for a, b, c in itertools.product(blk, repeat=3):
                if d_old.apply(a, b, c) != d_new.apply(a, b, c):
                    failures.append((entry.name, "d changed on block", (a, b, c)))
    _report("4 regularization of glued SMB algebras",
            failures, f" ({len(glued)} gluings)")


def test_criterion_5_section7_biconditionals():
    """Join, meet-below-sim and commutator biconditionals agree on every
    4-tuple of every regular corpus algebra of size at most 5."""
    small = [e for e in CORPUS if e.has("regular") and e.algebra.size <= 5]
    assert small
    failures = []
    tuples = 0
    for entry in small:
        alg = entry.algebra
        for a, b, c, d in itertools.product(range(alg.size), repeat=4):
            tuples += 1
            for checker in (check_cgvsim, check_undersim, commutator_below_sim):
                try:
                    checker(alg, a, b, c, d)
                except FalsificationError as exc:
                    failures.append((entry.name, checker.__name__,
                                     (a, b, c, d), str(exc)))
    _report("5 biconditionals over A^4 at size <= 5",
            failures, f" ({len(small)} algebras, {tuples} tuples x 3 checks)")


def test_criterion_6_final_example():
    """The 3-element example: regular SMB, chain congruence lattice,
    Abelian sim, and 2 in the image of every nonconstant unary polynomial."""
    e3 = example_e3()
    sim = Partition(3, (0, 0, 1))
    failures = []
    if not check_regular_base(e3).holds:
        failures.append("regular base")
    if check_regular_base(e3).recovered_sim != sim:
        failures.append("recovered sim")
    lat = congruence_lattice(e3)
    if [str(p) for p in lat.congruences] != ["0 | 1 | 2", "0 1 | 2", "0 1 2"]:
        failures.append("congruence lattice")
    if not commutator(e3, sim, sim).is_zero:
        failures.append("sim not Abelian")
    for vals, _ in unary_polynomials(e3):
        if len(set(vals)) > 1 and 2 not in vals:
            failures.append(("polynomial misses 2", vals))
    _report("6 final three-element example", failures)


def test_criterion_7_pipeline():
    """Absorption of the special circ, the semilattice term conclusion on
    every SMB corpus algebra with wnu d, and the idempotent-power shortcut
    against literal factorial composition."""
    failures = []
    used = 0
    for entry in CORPUS:
        if not entry.has("smb"):
            continue
        alg = entry.algebra
        if not table_flags(alg.op("d")).wnu:
            continue
        used += 1
        sp = special_circ(alg, "d")
        for x in range(alg.size):
            for y in range(alg.size):
                xy = sp.apply(x, y)
                if sp.apply(x, xy) != xy:
                    failures.append((entry.name, "absorption", (x, y)))
        try:
            res = semilattice_term(alg, "d", entry.sim)
        except FalsificationError as exc:
            failures.append((entry.name, "semilattice term", str(exc)))
            continue
        if not res.conclusion_holds:
            failures.append((entry.name, "conclusion",
                             res.report.violations[:1]))
    assert used >= 5
    rng = random.Random(777)
    for i in range(1000):
        n = rng.randrange(1, 8)
        f = [rng.randrange(n) for _ in range(n)]
        if idempotent_power(f) != literal_power(f, math.factorial(n)):
            failures.append(("idempotent power", tuple(f)))
    _report("7 pipeline (special circ, semilattice term, idempotent powers)",
            failures, f" ({used} wnu algebras, 1000 self-maps)")


def test_criterion_8_simple_extension(monkeypatch):
    """Extensions are simple and carry a wnu operation."""
    extensions = [e for e in CORPUS if e.has("extension")]
    assert len(extensions) >= 5
    monkeypatch.setattr(relations, "LATTICE_SIZE_CAP",
                        max(e.algebra.size for e in extensions))
    failures = []
    for entry in extensions:
        alg = entry.algebra
        lat = congruence_lattice(alg)
        if len(lat) != 2 or not lat.congruences[0].is_zero \
                or not lat.congruences[-1].is_one:
            failures.append((entry.name, "not simple"))
        if not table_flags(alg.op("v")).wnu:
            failures.append((entry.name, "not wnu"))
    _report("8 simple type-5 extensions", failures,
            f" ({len(extensions)} extensions)")


def test_criterion_9_commutator_engine():
    """Matrix commutator equals the least congruence passing the term
    condition, over all congruence pairs of corpus algebras with n <= 4."""
    small = [e for e in CORPUS if e.algebra.size <= 4]
    failures = []
    pairs = 0
    for entry in small:
        alg = entry.algebra
        lat = congruence_lattice(alg)
        for p in lat:
            for q in lat:
                pairs += 1
                via_matrix = commutator(alg, p, q)
                via_oracle = commutator_oracle(alg, p, q)
                if via_matrix != via_oracle:
                    failures.append((entry.name, str(p), str(q),
                                     str(via_matrix), str(via_oracle)))
    _report("9 commutator engine vs least-term-condition oracle",
            failures, f" ({len(small)} algebras, {pairs} pairs)")
