"""Equivalence relations on finite sets and the partition lattice.

A relation is stored as its sorted ground and a label vector, the class
index of each ground position with classes numbered by first occurrence.
The ``EqRel`` constructor and ``EqRel.from_pairs`` check outside input;
after its checks ``from_pairs`` builds from labels through the unchecked
``EqRel._from_labels``, as join, meet (pairs of labels) and the grid
restriction in ``cantor`` do without hashing a ground member; from_pairs,
join and ``staralg.pullback_adjoint`` share one union-find.

A partition doubles as the dual picture of a commutative subalgebra of the
functions on its ground set: finer partition, larger subalgebra.  The
lattice constructor therefore exposes two orientations and forces callers
to pick one.  Its order is built from covers, without comparing pairs: a
partition's upper covers in the refinement order are the merges of two of
its blocks (Davey & Priestley, Introduction to Lattices and Order, 2002).
The subalgebra orientation is the dual of the refinement one, with the
same masks swapped.
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

    Stored as the sorted ``ground`` tuple and a label vector: ``_labels[i]``
    is the class index of ground position ``i``, classes numbered in order
    of first occurrence.  The constructor checks outside input;
    :meth:`_from_labels` is the unchecked path for labels built inside the
    package.  Read off the labels on first use: ``classes`` (each sorted,
    classes sorted by least member), the member-to-class map behind
    :meth:`relates` and the label gather behind :meth:`refines`.
    Instances are immutable and compare and hash by ground and labels, the
    hash computed once, so structural equality is relation equality.
    """

    def __init__(self, ground, classes):
        ground = tuple(sorted(ground))
        if len(set(ground)) != len(ground):
            raise BadParameters("ground set has duplicate members")
        seen = set()
        canon = []
        for cls in classes:
            cls = tuple(cls)
            if not cls:
                raise BadParameters("empty class")
            canon.append(cls)
            for x in cls:
                if x in seen:
                    raise BadParameters(f"element {x!r} occurs in two classes")
                seen.add(x)
        if seen != set(ground):
            raise BadParameters("classes do not cover the ground set")
        position = {x: i for i, x in enumerate(ground)}
        labels = [0] * len(ground)
        for k, cls in enumerate(canon):
            for x in cls:
                labels[position[x]] = k
        self._set(ground, _first_occurrence(labels))

    @classmethod
    def _from_labels(cls, ground, labels):
        """Unchecked constructor: ``ground`` a sorted tuple of distinct
        members, ``labels`` one class index per position, numbered in order
        of first occurrence."""
        rel = cls.__new__(cls)
        rel._set(ground, labels)
        return rel

    def _set(self, ground, labels):
        self.ground = ground
        self._labels = tuple(labels)
        self._classes = self._class_of = self._gather = self._hash = None

    @property
    def classes(self):
        if self._classes is None:
            members = {}  # labels number classes by first occurrence
            for x, k in zip(self.ground, self._labels):
                members.setdefault(k, []).append(x)
            self._classes = tuple(map(tuple, members.values()))
        return self._classes

    # -- constructors ---------------------------------------------------

    @classmethod
    def diagonal(cls, ground):
        return cls(ground, [[x] for x in ground])

    @classmethod
    def full(cls, ground):
        return cls(ground, [list(ground)])

    @classmethod
    def from_pairs(cls, ground, pairs):
        """Smallest equivalence relation containing the given pairs: checked
        input, linked at ground positions by :func:`_linked_labels`, whose
        labels are canonical, so the build is unchecked."""
        ground = tuple(sorted(ground))
        position = {x: i for i, x in enumerate(ground)}
        links = []
        for a, b in pairs:
            i, j = position.get(a), position.get(b)
            if i is None or j is None:
                raise OutOfRange(f"pair ({a!r}, {b!r}) leaves the ground set")
            if i != j:
                links.append((i, j))
        if len(position) != len(ground):
            raise BadParameters("ground set has duplicate members")
        return cls._from_labels(ground, _linked_labels(len(ground), links))

    # -- queries ----------------------------------------------------------

    def _class_map(self):
        if self._class_of is None:
            self._class_of = dict(zip(self.ground, self._labels))
        return self._class_of

    def relates(self, a, b):
        return self._class_map()[a] == self._class_map()[b]

    def refines(self, other):
        """True when every class of self sits inside a class of other."""
        if self.ground != other.ground:
            raise GroundMismatch("relations live on different ground sets")
        if self._gather is None:
            # read a labelling at the first position of each position's
            # class: self refines other when gathering other's labels leaves
            # them unchanged.  itemgetter returns a bare item for one index;
            # a ground of one point or none has a single relation, so
            # nothing is gathered there
            first = {}
            leads = [first.setdefault(k, i) for i, k in enumerate(self._labels)]
            self._gather = itemgetter(*leads) if len(leads) > 1 else tuple
        return self._gather(other._labels) == other._labels

    def __eq__(self, other):
        # on one ground, equal canonical labels are equal classes
        return (
            isinstance(other, EqRel)
            and self.ground == other.ground
            and self._labels == other._labels
        )

    def __hash__(self):
        # what __eq__ compares, hashed once: hashing a grid ground of
        # Fractions costs more than building the relation
        if self._hash is None:
            self._hash = hash((self.ground, self._labels))
        return self._hash

    def __repr__(self):
        return f"EqRel({label_of(self)})"

    def to_json_dict(self):
        return {"n": len(self.ground), "classes": [list(cls) for cls in self.classes]}


def _first_occurrence(keys):
    """Number hashable keys 0, 1, ... in order of first occurrence."""
    number = {}
    return [number.setdefault(key, len(number)) for key in keys]


def _linked_labels(size, links):
    """First-occurrence labels of 0..size-1 under the equivalence generated
    by the index pairs ``links``: union-find with each root kept at the
    least index of its component."""
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        i, j = find(i), find(j)
        parent[max(i, j)] = min(i, j)
    return _first_occurrence(map(find, range(size)))


def label_of(rel):
    """Canonical human-readable label, e.g. ``{1,2}|{3}``."""
    return "|".join("{" + ",".join(str(x) for x in cls) + "}" for cls in rel.classes)


def join(r, s):
    """Smallest equivalence relation containing both (transitive closure).

    :func:`_linked_labels` over the classes of ``r``: each position links
    its r-class with the r-class where its s-class first occurs; r-class
    labels are first-occurrence, so reading them per position keeps that.
    """
    if r.ground != s.ground:
        raise GroundMismatch("join needs a common ground set")
    anchor = [None] * len(s.classes)
    links = []
    for a, b in zip(r._labels, s._labels):
        c = anchor[b]
        if c is None:
            anchor[b] = a
        elif c != a:
            links.append((a, c))
    merged = _linked_labels(len(r.classes), links)
    return EqRel._from_labels(r.ground, [merged[a] for a in r._labels])


def meet(r, s):
    """Classwise intersection: positions grouped by their pair of labels."""
    if r.ground != s.ground:
        raise GroundMismatch("meet needs a common ground set")
    return EqRel._from_labels(r.ground, _first_occurrence(zip(r._labels, s._labels)))


def all_partitions(ground):
    """Every partition of the ground set, deterministically ordered.

    The label vectors numbered by first occurrence are exactly the
    sequences that start at 0 and exceed their running maximum by at most
    one, so each partition is built once, from its labels.
    """
    ground = tuple(sorted(ground))
    if len(set(ground)) != len(ground):
        raise BadParameters("ground set has duplicate members")
    vectors = [()]
    for _ in ground:
        vectors = [v + (k,) for v in vectors for k in range(max(v, default=-1) + 2)]
    rels = [EqRel._from_labels(ground, v) for v in vectors]
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
        raise SizeLimit("partition lattice ground size", n, LATTICE_MAX, minimum=1)
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
        poset = poset.dual(ORIENT_SUBALGEBRA)
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
