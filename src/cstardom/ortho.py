"""Finite orthomodular posets and their Boolean subalgebras.

An orthomodular poset bundles a bounded ``FinPoset`` with an
order-reversing involution subject to five axioms, all machine-checked on
construction by walking the poset's ``up``/``dn`` masks; a boolean ``leq``
table from outside becomes a ``FinPoset`` through ``order.validate_poset``
before it gets here.
Boolean subalgebras are subsets closed under the involution whose pairwise
meets and joins exist in the ambient poset, land back in the subset, and
obey distributivity; they are enumerated by closing generator sets rather
than scanning the power set, from the base {0, 1}: ``validate_omp``
makes 0 = 1' the bottom, since the complement is antitone and onto, so
the base is closed and Boolean.  A closure is evaluated semi-naively, as a
worklist in which each new member is combined only with the members
processed before it (Bancilhon & Ramakrishnan, An amateur's introduction
to recursive query processing strategies, SIGMOD 1986), and it grows an
already closed subalgebra without combining its pairs again.  Since every
closure holds the complement of each member, p and its complement give one
closure and only one of them is tried.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import AxiomViolated, BadParameters, IsoFailure, SizeLimit
from .order import FinPoset, iter_bits
from .staralg import c_lattice, projection_table

#: enumeration guard for Boolean subalgebras
OMP_MAX = 32
#: spectrum guard for the subalgebra/Boolean-subalgebra comparison: the
#: projections of a k-point spectrum form a 2^k-element power set, which
#: must pass the enumeration guard
CAF_MAX = OMP_MAX.bit_length() - 1


class OMP:
    """Finite orthomodular poset.

    Wraps a validated poset with the orthocomplement permutation and the
    designated bounds.  Meets and joins are partial; ``meet``/``join``
    return None when the bound does not exist, never a default.
    """

    def __init__(self, poset, ortho, one):
        self.poset = poset
        self.n = poset.n
        self.elements = poset.elements
        self.ortho = tuple(ortho)
        self.one = one
        self.zero = self.ortho[one]

    def leq(self, i, j):
        return self.poset.leq(i, j)

    def meet(self, i, j):
        return self.poset.meets()[i][j]

    def join(self, i, j):
        return self.poset.joins()[i][j]

    def __repr__(self):
        return f"OMP({self.n} elements)"


def validate_omp(poset, ortho):
    """Checked constructor: the five involution axioms over a ``FinPoset``.

    Raises AxiomViolated carrying the axiom id and the witnessing
    elements.  The axioms are read off the ``up``/``dn`` masks; once the
    complement is an antitone involution, p <= q' exactly when q <= p', so
    the orthogonal-join and orthomodular walks visit the pairs of the
    definitions in the same order.
    """
    n = poset.n
    ints = isinstance(ortho, (list, tuple)) and all(type(p) is int for p in ortho)
    if not ints or sorted(ortho) != list(range(n)):
        raise BadParameters("ortho table must be a permutation of the elements")
    one = poset.top()
    if one is None:
        raise AxiomViolated("greatest-element", ())
    for p in range(n):
        if ortho[ortho[p]] != p:
            raise AxiomViolated("double-complement", (p,))
    up, dn = poset.up, poset.dn
    for p in range(n):
        for q in iter_bits(up[p] & ~(1 << p)):
            if not up[ortho[q]] >> ortho[p] & 1:
                raise AxiomViolated("antitone", (p, q))
    omp = OMP(poset, ortho, one)
    joins = poset.joins()
    for p in range(n):
        if joins[p][ortho[p]] != one:
            raise AxiomViolated("excluded-middle", (p,))
    for p in range(n):
        # q <= p' iff p <= q'
        for q in iter_bits(dn[ortho[p]]):
            if joins[p][q] is None:
                raise AxiomViolated("orthogonal-join", (p, q))
    meets = poset.meets()
    for p in range(n):
        # q' <= p iff p' <= q, and q' != p iff q != p'
        for q in iter_bits(up[ortho[p]] & ~(1 << ortho[p])):
            if meets[p][q] == omp.zero:
                raise AxiomViolated("orthomodular", (p, q))
    return omp


# ---------------------------------------------------------------------------
# fixtures


def power_set_omp(k):
    """The Boolean orthomodular poset of subsets of a k-element set."""
    if k < 0:
        raise BadParameters("need k >= 0")
    size = 1 << k
    elements = [_subset_label(mask, k) for mask in range(size)]
    up = [sum(1 << b for b in range(size) if a & b == a) for a in range(size)]
    ortho = [(size - 1) ^ a for a in range(size)]
    return validate_omp(FinPoset(elements, up), ortho)


def _subset_label(mask, k):
    members = [str(i + 1) for i in range(k) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


def mo_omp(n):
    """The horizontal-sum fixture: 0, 1 and n incomparable complement pairs."""
    if n < 1:
        raise BadParameters("need at least one pair")
    elements = ["0"] + [f"a{i}{suffix}" for i in range(1, n + 1) for suffix in ("", "'")] + ["1"]
    size = len(elements)
    one = size - 1
    up = [(1 << size) - 1] + [(1 << i) | (1 << one) for i in range(1, size)]
    ortho = list(range(size))
    ortho[0], ortho[one] = one, 0
    for i in range(1, size - 1, 2):
        ortho[i], ortho[i + 1] = i + 1, i
    return validate_omp(FinPoset(elements, up), ortho)


# ---------------------------------------------------------------------------
# Boolean subalgebras


@dataclass(frozen=True)
class BoolSub:
    """A Boolean subalgebra, stored as a member bitmask over its OMP."""

    omp: OMP
    mask: int

    def members(self):
        return tuple(iter_bits(self.mask))

    def labels(self):
        return tuple(self.omp.elements[i] for i in self.members())


def _close_boolean(omp, seed_mask, closed=0):
    """Close a subset under complement, meet and join.

    ``closed`` is a mask this function returned before, or 0; the result is
    the closure of ``seed_mask`` together with it.  The closure is a
    worklist (semi-naive) evaluation: each member is combined once with
    every member processed before it, so each pair is combined once, and
    the pairs inside ``closed`` are not combined again.  Returns the closed
    mask, or None when some pair of members has no meet or join in the
    ambient poset (no Boolean subalgebra can contain the seed in that case).
    """
    meets, joins, ortho = omp.poset.meets(), omp.poset.joins(), omp.ortho
    pending = (seed_mask | (1 << omp.zero) | (1 << omp.one)) & ~closed
    for p in iter_bits(pending):
        pending |= 1 << ortho[p]
    # ``closed`` is closed under complement and ``known`` stays so: a bound
    # outside it is added together with its complement
    known = closed | pending
    done = list(iter_bits(closed))
    while pending:
        low = pending & -pending
        pending ^= low
        a = low.bit_length() - 1
        meet_row, join_row = meets[a], joins[a]
        for b in done:
            for bound in (meet_row[b], join_row[b]):
                if bound is None:
                    return None
                if not known >> bound & 1:
                    fresh = (1 << bound) | (1 << ortho[bound])
                    known |= fresh
                    pending |= fresh
        done.append(a)
    return known


def _is_boolean_mask(omp, mask):
    """Distributivity and complement laws on a closed subset."""
    meets, joins = omp.poset.meets(), omp.poset.joins()
    members = list(iter_bits(mask))
    for p in members:
        if meets[p][omp.ortho[p]] != omp.zero:
            return False
    for p, q, r in itertools.product(members, repeat=3):
        lhs = meets[p][joins[q][r]]
        rhs = joins[meets[p][q]][meets[p][r]]
        if lhs != rhs:
            return False
    return True


def boolean_subalgebras(omp):
    """All Boolean subalgebras, as a poset ordered by inclusion.

    Enumeration grows closures of generator sets: starting from the
    smallest subalgebra, repeatedly adjoin one outside element and close.
    Every Boolean subalgebra is reached this way, because closing a subset
    of a Boolean subalgebra stays inside it.  Each closure starts from the
    already closed current subalgebra, and an element p is tried only when
    ortho[p] >= p: the closure adds the complement of every member, so p
    and ortho[p] give one closure.
    """
    if omp.n > OMP_MAX:
        raise SizeLimit("orthomodular poset size", omp.n, OMP_MAX)
    # validate_omp makes zero the bottom, so the base closes to {zero, one}
    base = _close_boolean(omp, 0)
    found = {base}
    frontier = [base]
    rejected = set()
    while frontier:
        current = frontier.pop()
        for p in range(omp.n):
            if current >> p & 1 or omp.ortho[p] < p:
                continue
            closed = _close_boolean(omp, 1 << p, current)
            if closed is None or closed in found or closed in rejected:
                continue
            if _is_boolean_mask(omp, closed):
                found.add(closed)
                frontier.append(closed)
            else:
                rejected.add(closed)
    masks = sorted(found, key=lambda m: (m.bit_count(), m))
    subs = [BoolSub(omp, m) for m in masks]
    up = [sum(1 << j for j, b in enumerate(masks) if a & ~b == 0) for a in masks]
    labels = ["{" + ",".join(str(lbl) for lbl in sub.labels()) + "}" for sub in subs]
    return FinPoset(labels, up, payloads=subs)


# ---------------------------------------------------------------------------
# the subalgebra lattice versus the projection Boolean subalgebras


@dataclass
class CafIsoReport:
    """Explicit order isomorphism between the two independently built posets."""

    subalgebra_poset: FinPoset
    boolean_poset: FinPoset
    correspondence: list

    @property
    def size(self):
        return self.subalgebra_poset.n

    def to_json_dict(self):
        return {
            "size": self.size,
            "correspondence": [
                {"subalgebra": a, "projections": b} for a, b in self.correspondence
            ],
        }


def verify_caf_iso(algebra):
    """Match the subalgebra lattice with the Boolean subalgebras of projections.

    Both sides are enumerated independently: the subalgebra lattice from
    partitions of the spectrum, the Boolean subalgebras by closure search
    inside the projection orthomodular poset.  The map sends a subalgebra
    to the set of its projections, found among the 2^k sums of minimal
    projections in the algebra's ``staralg.projection_table`` (all of
    Proj(A), at most ``CAF_MAX`` minimal projections), from which the
    subalgebra lattice is built too; the check requires the map to be a
    bijection that preserves and reflects order, and raises IsoFailure
    otherwise.
    """
    sums = projection_table(algebra, CAF_MAX)  # also rejects noncommutative input
    sub_poset = c_lattice(algebra)
    proj_omp = power_set_omp(len(sums).bit_length() - 1)
    bool_poset = boolean_subalgebras(proj_omp)
    bool_index = {sub.mask: i for i, sub in enumerate(bool_poset.payloads)}
    assignment = []
    for i in range(sub_poset.n):
        node = sub_poset.payloads[i]
        proj_mask = 0
        for mask, candidate in enumerate(sums):
            if node.contains(candidate):
                proj_mask |= 1 << mask
        j = bool_index.get(proj_mask)
        if j is None:
            raise IsoFailure(
                {"subalgebra": sub_poset.elements[i], "projections": "not a Boolean subalgebra"}
            )
        assignment.append(j)
    if len(set(assignment)) != bool_poset.n or sub_poset.n != bool_poset.n:
        raise IsoFailure({"reason": "not a bijection"})
    for i, j in itertools.product(range(sub_poset.n), repeat=2):
        if sub_poset.leq(i, j) != bool_poset.leq(assignment[i], assignment[j]):
            raise IsoFailure(
                {
                    "pair": [sub_poset.elements[i], sub_poset.elements[j]],
                    "reason": "order not preserved and reflected",
                }
            )
    correspondence = [
        (sub_poset.elements[i], bool_poset.elements[assignment[i]])
        for i in range(sub_poset.n)
    ]
    return CafIsoReport(
        subalgebra_poset=sub_poset,
        boolean_poset=bool_poset,
        correspondence=correspondence,
    )
