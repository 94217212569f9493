"""Corpus-wide invariants that tie the modules together."""

import itertools
import random

from smbalg import (App, Partition, Var, all_partitions, check_identities,
                    congruence_generated,
                    find_smb_congruences, materialize_term, random_algebra,
                    smb_axioms, term_variables)
from smbalg.oracles import eval_term
from smbalg.partitions import _canonical
from conftest import random_term_all_vars


def test_wedge_equals_d_folds_on_regular(corpus):
    # x^y, d(x,x,y) and d(y,x,x) coincide as full tables in the regular case
    for entry in corpus:
        if not entry.has("regular"):
            continue
        alg = entry.algebra
        x, y = Var(0), Var(1)
        wedge = alg.op("wedge")
        assert materialize_term(alg, App("d", (x, x, y)), 2) == wedge, entry.name
        assert materialize_term(alg, App("d", (y, x, x)), 2) == wedge, entry.name


def test_term_class_is_meet_of_argument_classes(corpus):
    # with every variable occurring, the sim-class of a term value is the
    # semilattice meet of the argument classes
    rng = random.Random(2027)
    for entry in corpus:
        if not entry.has("regular"):
            continue
        alg, sim = entry.algebra, entry.sim
        wedge = alg.op("wedge")
        ids = sim.class_ids
        sig = {s: t.arity for s, t in alg.operations.items()}
        reps = [blk[0] for blk in sim.blocks()]

        def meet_class(classes):
            acc = classes[0]
            for c in classes[1:]:
                acc = ids[wedge.apply(reps[acc], reps[c])]
            return acc

        per_algebra = 100 if alg.size <= 5 else 30
        for _ in range(per_algebra):
            nvars = rng.choice((2, 3))
            term = random_term_all_vars(rng, sig, nvars, 3)
            assert term_variables(term) == frozenset(range(nvars))
            for args in itertools.product(range(alg.size), repeat=nvars):
                value = eval_term(alg, term, args)
                assert ids[value] == meet_class([ids[a] for a in args]), \
                    (entry.name, term, args)


def test_axioms_characterize_smb_on_random_algebras():
    # nonempty SMB witness set is equivalent to the identity/quasi-identity
    # axiom block, spot-checked over seeded random algebras
    identities, quasis = smb_axioms()

    def satisfies_axioms(alg):
        return (all(check_identities(alg, [i])[0].holds for i in identities.values())
                and all(check_identities(alg, [q])[0].holds for q in quasis.values()))

    rng = random.Random(91)
    checked_smb = 0
    for _ in range(250):
        n = rng.choice((2, 2, 3))
        alg = random_algebra(n, {"wedge": 2, "d": 3}, rng.randrange(1 << 30))
        axioms = satisfies_axioms(alg)
        detected = bool(find_smb_congruences(alg))
        assert axioms == detected, alg.name
        checked_smb += detected
    # the sample must actually contain a few positives to mean anything
    assert checked_smb >= 3


def test_axioms_hold_exactly_on_detected_n2_slice():
    from smbalg import exhaustive_enumerate
    identities, quasis = smb_axioms()
    count = 0
    for alg in itertools.islice(exhaustive_enumerate(2, {"wedge": 2, "d": 3}),
                                0, 4096, 7):
        axioms = (all(check_identities(alg, [i])[0].holds for i in identities.values())
                  and all(check_identities(alg, [q])[0].holds for q in quasis.values()))
        assert axioms == bool(find_smb_congruences(alg))
        count += 1
    assert count == 586


def test_trusted_partitions_are_canonical():
    # join, from_pairs and congruence_generated relabel by quick-find, and
    # zero and one go through the public constructor like them; the class
    # ids of all of them must come out in canonical form, as plain ints
    rng = random.Random(11)
    parts = list(all_partitions(4))
    made = [p.join(q) for p, q in itertools.product(parts, repeat=2)]
    made += [Partition.zero(4), Partition.one(4)]
    alg = random_algebra(5, {"f": 2}, 7)
    for _ in range(50):
        pairs = [(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(4))]
        made += [Partition.from_pairs(5, pairs), congruence_generated(alg, pairs)]
    for p in made:
        assert p.class_ids == _canonical(p.class_ids)
        assert all(type(c) is int for c in p.class_ids)
