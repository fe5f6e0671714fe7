"""Equivalence relations on finite sets and the partition lattice.

A partition doubles as the dual picture of a commutative subalgebra of the
functions on its ground set: finer partition, larger subalgebra.  The
lattice constructor therefore exposes two orientations and forces callers
to pick one.  Its order is built from covers, without comparing pairs: a
partition's upper covers in the refinement order are the merges of two of
its blocks (Davey & Priestley, Introduction to Lattices and Order, 2002).
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter

from .errors import BadParameters, GroundMismatch, OutOfRange, SizeLimit
from .order import FinPoset

#: guard for partition-lattice construction (Bell(8) = 4140 nodes)
LATTICE_MAX = 8

ORIENT_REFINEMENT = "refinement"
ORIENT_SUBALGEBRA = "subalgebra"


def bell_number(n):
    """Number of partitions of an n-set (Bell number)."""
    if n < 0:
        raise BadParameters("bell_number needs n >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


class EqRel:
    """Equivalence relation on a finite, totally orderable ground set.

    Canonical form: each class sorted, classes sorted by least member.
    Instances are immutable and hash by their canonical class tuple, so
    structural equality is relation equality.
    """

    def __init__(self, ground, classes):
        self.ground = tuple(sorted(ground))
        if len(set(self.ground)) != len(self.ground):
            raise BadParameters("ground set has duplicate members")
        seen = set()
        canon = []
        for cls in classes:
            cls = tuple(sorted(cls))
            if not cls:
                raise BadParameters("empty class")
            canon.append(cls)
            for x in cls:
                if x in seen:
                    raise BadParameters(f"element {x!r} occurs in two classes")
                seen.add(x)
        if seen != set(self.ground):
            raise BadParameters("classes do not cover the ground set")
        self.classes = tuple(sorted(canon, key=lambda cls: cls[0]))
        self._class_of = {x: i for i, cls in enumerate(self.classes) for x in cls}
        # class index of each ground position, and a gather that reads a
        # labelling at the least member of each position's class: self
        # refines other when gathering other's labels leaves them unchanged
        position = {x: i for i, x in enumerate(self.ground)}
        self._labels = tuple(self._class_of[x] for x in self.ground)
        leads = tuple(position[self.classes[k][0]] for k in self._labels)
        # itemgetter returns a bare item for one index; a ground of one
        # point or none has a single relation, so nothing is gathered there
        self._gather = itemgetter(*leads) if len(leads) > 1 else tuple

    # -- constructors ---------------------------------------------------

    @classmethod
    def diagonal(cls, ground):
        return cls(ground, [[x] for x in ground])

    @classmethod
    def full(cls, ground):
        return cls(ground, [list(ground)])

    @classmethod
    def from_pairs(cls, ground, pairs):
        """Smallest equivalence relation containing the given pairs."""
        parent = {x: x for x in ground}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            if a not in parent or b not in parent:
                raise OutOfRange(f"pair ({a!r}, {b!r}) leaves the ground set")
            parent[find(a)] = find(b)
        buckets = {}
        for x in ground:
            buckets.setdefault(find(x), []).append(x)
        return cls(ground, buckets.values())

    # -- queries ----------------------------------------------------------

    def relates(self, a, b):
        return self._class_of[a] == self._class_of[b]

    def class_of(self, a):
        return self.classes[self._class_of[a]]

    def refines(self, other):
        """True when every class of self sits inside a class of other."""
        if self.ground != other.ground:
            raise GroundMismatch("relations live on different ground sets")
        return self._gather(other._labels) == other._labels

    def __eq__(self, other):
        return isinstance(other, EqRel) and self.ground == other.ground and self.classes == other.classes

    def __hash__(self):
        return hash((self.ground, self.classes))

    def __or__(self, other):
        return join(self, other)

    def __and__(self, other):
        return meet(self, other)

    def __repr__(self):
        return f"EqRel({label_of(self)})"

    def to_json_dict(self):
        return {"n": len(self.ground), "classes": [list(cls) for cls in self.classes]}


def label_of(rel):
    """Canonical human-readable label, e.g. ``{1,2}|{3}``."""
    return "|".join("{" + ",".join(str(x) for x in cls) + "}" for cls in rel.classes)


def join(r, s):
    """Smallest equivalence relation containing both (transitive closure)."""
    if r.ground != s.ground:
        raise GroundMismatch("join needs a common ground set")
    pairs = []
    for rel in (r, s):
        for cls in rel.classes:
            pairs.extend(zip(cls, cls[1:]))
    return EqRel.from_pairs(r.ground, pairs)


def meet(r, s):
    """Classwise intersection."""
    if r.ground != s.ground:
        raise GroundMismatch("meet needs a common ground set")
    buckets = {}
    for x in r.ground:
        buckets.setdefault((r._class_of[x], s._class_of[x]), []).append(x)
    return EqRel(r.ground, buckets.values())


def all_partitions(ground):
    """Every partition of the ground set, deterministically ordered."""
    ground = tuple(sorted(ground))

    def rec(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in rec(rest):
            yield [[first]] + [list(c) for c in sub]
            for i in range(len(sub)):
                yield [list(c) for c in sub[:i]] + [[first] + list(sub[i])] + [
                    list(c) for c in sub[i + 1 :]
                ]

    rels = {EqRel(ground, classes) for classes in rec(list(ground))}
    return sorted(rels, key=lambda rel: (len(rel.classes), rel.classes))


def partition_lattice(n, orientation):
    """Poset of all partitions of {1..n}.

    ``orientation`` must be chosen explicitly: in the refinement order a
    finer partition is smaller (bottom = all singletons); in the subalgebra
    order a finer partition is larger (bottom = the single block, matching
    the scalars at the bottom of a subalgebra lattice).
    """
    if orientation not in (ORIENT_REFINEMENT, ORIENT_SUBALGEBRA):
        raise BadParameters(
            f"orientation must be {ORIENT_REFINEMENT!r} or {ORIENT_SUBALGEBRA!r}"
        )
    if not 1 <= n <= LATTICE_MAX:
        raise SizeLimit("partition lattice ground size", n, LATTICE_MAX)
    rels = all_partitions(range(1, n + 1))
    index = {rel.classes: i for i, rel in enumerate(rels)}
    # rels come in block-count order, so every merge of two blocks (one
    # block fewer) has its mask of coarser partitions before the partition
    coarser = []
    for i, rel in enumerate(rels):
        classes, mask = rel.classes, 1 << i
        for a, b in combinations(range(len(classes)), 2):
            # the merged block keeps block a's least member, hence its place
            block = tuple(sorted(classes[a] + classes[b]))
            merged = classes[:a] + (block,) + classes[a + 1 : b] + classes[b + 1 :]
            mask |= coarser[index[merged]]
        coarser.append(mask)
    labels = [label_of(rel) for rel in rels]
    poset = FinPoset(labels, coarser, orientation=ORIENT_REFINEMENT, payloads=rels)
    if orientation == ORIENT_SUBALGEBRA:
        poset = FinPoset(labels, poset.dn, orientation=ORIENT_SUBALGEBRA, payloads=rels)
    return poset


def collapse(n, subset):
    """Relation with the given subset as one class and singletons elsewhere."""
    ground = range(1, n + 1)
    subset = set(subset)
    if not subset <= set(ground):
        raise OutOfRange(f"subset {sorted(subset)} leaves 1..{n}")
    if len(subset) <= 1:
        return EqRel.diagonal(ground)
    classes = [sorted(subset)] + [[x] for x in ground if x not in subset]
    return EqRel(ground, classes)


def quotient(n, rel):
    """Quotient set of a relation on {1..n} plus the projection map."""
    if rel.ground != tuple(range(1, n + 1)):
        raise GroundMismatch(f"relation is not on the ground set 1..{n}")
    points = tuple(rel.classes)
    projection = {x: rel.class_of(x) for x in rel.ground}
    return points, projection
