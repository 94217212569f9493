"""Equivalence relations on {0..n-1} in canonical class-id-vector form.

Canonical form: class ids appear in increasing order of first occurrence,
so class_ids[0] == 0 and each new id is the previous maximum plus one.
With that convention the blocks come out ordered by least element, which
matches the text form `0 1 | 2`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import AlgebraError, fits_int


def parse_element(token: str, where: str) -> int:
    """An element written in decimal digits, as `.alg` files write it; any
    other spelling `int` takes (a sign, `_`, spaces) is a bad element, and
    one of more digits than `int` converts is out of range."""
    if not token.isdecimal():
        raise AlgebraError(f"bad element {token!r} in {where}")
    if not fits_int(token):
        raise AlgebraError(f"element of {len(token)} digits in {where} is out of range")
    return int(token)


def _canonical(ids: Sequence[int]) -> tuple:
    remap: dict = {}
    out = []
    for v in ids:
        if v not in remap:
            remap[v] = len(remap)
        out.append(remap[v])
    return tuple(out)


def _merged(label: Sequence[int], pairs: Iterable[tuple]) -> list:
    """Quick-find: `label[x]` names the class of x, and merging the classes
    of a pair relabels the one with the larger label to the smaller, in a
    single pass over the list; so labels that name each class by its least
    element still do after the merge.  Returns the labels after every pair
    is merged; AlgebraError names the first pair out of range."""
    n = len(label)
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise AlgebraError(f"pair ({a}, {b}) out of range 0..{n - 1}")
        keep, drop = label[a], label[b]
        if keep != drop:
            if drop < keep:
                keep, drop = drop, keep
            label = [keep if c == drop else c for c in label]
    return label


def star_pairs(p: "Partition") -> tuple:
    """The non-trivial pairs (first member of x's class, x) of p, one per
    element that is not first in its class: `_merged` over them from the
    zero partition gives p back.  Reads the canonical ids, in which a class
    id equal to the number of classes seen so far starts a new class."""
    first, pairs = [], []
    for x, c in enumerate(p.class_ids):
        if c == len(first):
            first.append(x)
        else:
            pairs.append((first[c], x))
    return tuple(pairs)


def blocks_text(blocks: Iterable[Iterable[int]]) -> str:
    """The text form `0 1 | 2` of a partition's blocks."""
    return " | ".join(" ".join(str(x) for x in block) for block in blocks)


@dataclass(frozen=True)
class Partition:
    size: int
    class_ids: tuple

    def __post_init__(self):
        if self.size < 1:
            raise AlgebraError(f"partition size must be >= 1, got {self.size}")
        if len(self.class_ids) != self.size:
            raise AlgebraError(
                f"partition over size {self.size} needs {self.size} class ids, "
                f"got {len(self.class_ids)}")
        object.__setattr__(self, "class_ids", _canonical(self.class_ids))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Partition":
        """The identity partition: all classes singletons."""
        return Partition(n, tuple(range(n)))

    @staticmethod
    def one(n: int) -> "Partition":
        """The single-class partition."""
        return Partition(n, (0,) * n)

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        """The partition of {0..n-1} into `blocks`, which must list every
        element once; the one place block lists are checked."""
        ids = [-1] * n
        for i, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < n:
                    raise AlgebraError(f"element {x} out of range 0..{n - 1}")
                if ids[x] != -1:
                    raise AlgebraError(f"element {x} listed twice in the blocks")
                ids[x] = i
        if -1 in ids:
            raise AlgebraError(f"element {ids.index(-1)} missing from the blocks")
        return Partition(n, tuple(ids))

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple]) -> "Partition":
        """Least equivalence relation containing the given pairs: the
        quick-find `_merged` from the zero partition."""
        return Partition(n, tuple(_merged(list(range(n)), pairs)))

    @staticmethod
    def parse(text: str, n: int) -> "Partition":
        """Parse the `0 1 | 2` text form; `from_blocks` checks that every
        element is listed once."""
        blocks = []
        for part in text.split("|"):
            members = part.split()
            if not members:
                raise AlgebraError(f"empty class in partition text {text!r}")
            blocks.append([parse_element(tok, "partition text") for tok in members])
        return Partition.from_blocks(n, blocks)

    # -- queries -----------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return max(self.class_ids) + 1

    @property
    def is_zero(self) -> bool:
        return self.num_classes == self.size

    @property
    def is_one(self) -> bool:
        return self.num_classes == 1

    def related(self, a: int, b: int) -> bool:
        return self.class_ids[a] == self.class_ids[b]

    def blocks(self) -> list:
        out = [[] for _ in range(self.num_classes)]
        for x, c in enumerate(self.class_ids):
            out[c].append(x)
        return [tuple(b) for b in out]

    def block_of(self, x: int) -> tuple:
        c = self.class_ids[x]
        return tuple(i for i, ci in enumerate(self.class_ids) if ci == c)

    def pairs(self):
        """All related ordered pairs, including the diagonal."""
        for block in self.blocks():
            for a in block:
                for b in block:
                    yield (a, b)

    def refines(self, other: "Partition") -> bool:
        """True when every class of self lies inside a class of other."""
        self._check_size(other)
        seen: dict = {}
        for c_self, c_other in zip(self.class_ids, other.class_ids):
            if seen.setdefault(c_self, c_other) != c_other:
                return False
        return True

    def __le__(self, other):
        return self.refines(other)

    def __lt__(self, other):
        return self != other and self.refines(other)

    # -- lattice operations --------------------------------------------------

    def _check_size(self, other: "Partition"):
        if self.size != other.size:
            raise AlgebraError(
                f"partition size mismatch: {self.size} vs {other.size}")

    def join(self, other: "Partition") -> "Partition":
        """Transitive closure of the union: the quick-find `_merged` from
        the classes of self over the star pairs of other."""
        self._check_size(other)
        return Partition(self.size, tuple(_merged(list(self.class_ids), star_pairs(other))))

    def meet(self, other: "Partition") -> "Partition":
        """Common refinement."""
        self._check_size(other)
        return Partition(self.size, tuple(
            zip(self.class_ids, other.class_ids)))  # type: ignore[arg-type]

    def __str__(self):
        return blocks_text(self.blocks())

    def json_classes(self) -> list:
        """Blocks as lists of ints, sorted by least element."""
        return [list(b) for b in self.blocks()]


def all_partitions(n: int):
    """Every partition of {0..n-1}, in a deterministic order; n >= 1."""
    one = Partition.one(n)      # refuses n < 1 before anything is yielded
    if n == 1:
        yield one
        return
    # grow by assigning each element to an existing class or a new one
    def rec(prefix, nclasses):
        if len(prefix) == n:
            yield Partition(n, tuple(prefix))
            return
        for c in range(nclasses + 1):
            yield from rec(prefix + [c], max(nclasses, c + 1))
    yield from rec([0], 1)
