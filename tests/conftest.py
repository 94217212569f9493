import itertools
import math
import random

import numpy as np
import pytest

from smbalg import (App, Const, FiniteAlgebra, OperationTable, Var, affine_block,
                    build_corpus, example_b2, example_e3, example_n4, example_s2,
                    glue_layout, glue_smb, Partition, random_semilattice,
                    regularize, term_variables)
from smbalg.oracles import literal_power


@pytest.fixture(scope="session")
def e3():
    return example_e3()


@pytest.fixture(scope="session")
def b2():
    return example_b2()


@pytest.fixture(scope="session")
def s2():
    return example_s2()


@pytest.fixture(scope="session")
def n4():
    return example_n4()


@pytest.fixture(scope="session")
def e3_sim():
    return Partition(3, (0, 0, 1))


@pytest.fixture(scope="session")
def n4_sim():
    return Partition(4, (0, 0, 1, 1))


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def module_caches() -> dict:
    """Every module-level cache in smbalg, by `module.name`."""
    import importlib
    import pkgutil
    import smbalg
    modules = [importlib.import_module(f"smbalg.{info.name}")
               for info in pkgutil.iter_modules(smbalg.__path__)]
    return {f"{mod.__name__}.{name}": val for mod in modules
            for name, val in vars(mod).items()
            if hasattr(val, "cache_info") and val.__module__ == mod.__name__}


def random_term(rng: random.Random, signature: dict, nvars: int, depth: int,
                allow_const: int = 0):
    """A random term over the signature; element literals below allow_const."""
    if depth == 0 or rng.random() < 0.25:
        if allow_const and rng.random() < 0.3:
            return Const(rng.randrange(allow_const))
        return Var(rng.randrange(nvars))
    sym = rng.choice(sorted(signature))
    return App(sym, tuple(random_term(rng, signature, nvars, depth - 1, allow_const)
                          for _ in range(signature[sym])))


def random_term_all_vars(rng, signature, nvars, depth):
    """A random term in which every variable 0..nvars-1 actually appears."""
    for _ in range(200):
        t = random_term(rng, signature, nvars, depth)
        if len(term_variables(t)) == nvars:
            return t
    # fall back to wedging the missing variables in
    t = random_term(rng, signature, nvars, depth)
    for v in range(nvars):
        if v not in term_variables(t):
            t = App("wedge", (t, Var(v)))
    return t


def glued(seed, block_sizes):
    """A glued SMB algebra over a random tree with one affine block of each
    given size, and its sim."""
    rng = random.Random(seed)
    sl = random_semilattice(len(block_sizes), rng)
    blocks = {c: affine_block(s) for c, s in enumerate(block_sizes)}
    offsets = [sum(block_sizes[:c]) for c in range(len(block_sizes))]
    reps = {c: offsets[c] + rng.randrange(s) for c, s in enumerate(block_sizes)}
    return glue_smb(sl, blocks, reps), glue_layout(sl, blocks)


def parity_algebra(arity):
    """The 2-element algebra of w = x_1 + .. + x_arity mod 2, a wnu for odd
    arity."""
    entries = [sum(args) % 2 for args in itertools.product(range(2), repeat=arity)]
    return FiniteAlgebra(f"par{arity}", 2, {"w": OperationTable(arity, 2, entries)})


def planted_wnu(rng, n, k, special):
    """A random wnu of arity k >= 3 on n elements: one random binary g with
    g(x, x) = x on every one-dissident pattern, so w is idempotent with
    circ g, and random values elsewhere.  With `special`, each row of g is
    its own idempotent power, so that x o (x o y) = x o y."""
    g = [[x if x == y else rng.randrange(n) for y in range(n)] for x in range(n)]
    if special:
        g = [literal_power(row, math.factorial(n)) for row in g]
    values = np.array([rng.randrange(n) for _ in range(n ** k)]).reshape((n,) * k)
    for x, y in itertools.product(range(n), repeat=2):
        for i in range(k):
            values[(x,) * i + (y,) + (x,) * (k - 1 - i)] = g[x][y]
    return OperationTable(k, n, values.ravel())


def regularized_glued(seed, block_sizes):
    """The regularized `glued` algebra, and its sim."""
    alg, sim = glued(seed, block_sizes)
    return regularize(alg, sim), sim


def decoded(gset):
    """The rows and steps of a GeneratedSet as the (elements, trace) tuples
    of the reference closure: trace[i] is None for a generator, else the
    operation symbol and the tuple of parent element indices."""
    elements = tuple(map(tuple, gset.rows.tolist()))
    trace = tuple(None if o < 0 else (gset.symbols[o], tuple(p for p in parents if p >= 0))
                  for o, *parents in gset.steps.tolist())
    return elements, trace


def reference_term(gset, i, leaf_terms):
    """Reference witness term of element i of a GeneratedSet, read along its
    steps from `leaf_terms`, a map from generator index to term, with a
    fresh memo per call."""
    steps = gset.steps.tolist()
    memo = {}

    def build(j):
        if j not in memo:
            o, *parents = steps[j]
            memo[j] = (leaf_terms[j] if o < 0 else
                       App(gset.symbols[o], tuple(build(p) for p in parents if p >= 0)))
        return memo[j]

    return build(i)
