"""Finite partially ordered sets and domain-style property checks.

The order relation is kept only as per-element up-set bitmasks; a boolean
``leq`` table is read by :func:`validate_poset` alone and written by
:meth:`FinPoset.to_json_dict` alone, for outside input and output.  Bounds
are lookups: a least upper bound c has ``up[c]`` equal to the upper bounds,
and ``up`` masks are distinct by antisymmetry, so the lub is the element
with that mask, if any; greatest lower bounds read ``dn`` alike.

Each property flag is computed by one route, and reports record which.  On
a finite poset every directed set contains its supremum, so way-below is
the order, every element is compact and the Scott opens are the up-sets;
the flags built on these follow from finiteness (Gierz et al., Continuous
Lattices and Domains, 2003).  Only :func:`directed_way_below` enumerates
directed subsets outright; acceptance criterion 3 compares it with ``up``.
Its enumeration, :meth:`FinPoset.directed_masks`, is the one test of all
2^n subsets in the package, one down-set table lookup per member.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    BadParameters,
    ElementNotInPoset,
    NotAntisymmetric,
    NotReflexive,
    NotTransitive,
    SizeLimit,
)

# Cap for directed-subset enumeration: one pass over all 2^n subsets, at most
# n table lookups each, and a table of 2^n machine words (128 KB at 15).
ORACLE_MAX = 15

PROPERTY_KEYS = (
    "algebraic",
    "continuous",
    "meet_continuous",
    "atomistic",
    "quasi_continuous",
    "quasi_algebraic",
    "order_scattered",
)


def iter_bits(mask):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinPoset:
    """Finite poset over opaque labels.

    ``up[i]`` / ``dn[i]`` are bitmasks of the principal filter / ideal of
    element ``i``.  The constructor takes ``up`` unchecked and derives
    ``dn``, and :meth:`dual` swaps the two; a boolean ``leq`` table from
    outside goes through :func:`validate_poset`.  Instances are immutable
    by convention; all derived data is cached on first use.
    """

    def __init__(self, elements, up, orientation=None, payloads=None):
        elements = tuple(elements)
        if not elements:
            raise BadParameters("empty poset is not allowed")
        up = tuple(up)
        dn = [0] * len(elements)
        for i, mask in enumerate(up):
            for j in iter_bits(mask):
                dn[j] |= 1 << i
        self._set(elements, up, tuple(dn), orientation, payloads)

    def _set(self, elements, up, dn, orientation, payloads):
        self.elements = elements
        self.n = len(elements)
        self.up = up
        self.dn = dn
        self.full_mask = (1 << self.n) - 1
        self.orientation = orientation
        self.payloads = tuple(payloads) if payloads is not None else None
        self._index = {e: i for i, e in enumerate(elements)}
        self._directed = None
        self._covers = None
        self._meets = None
        self._joins = None

    # -- basic queries ------------------------------------------------

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ElementNotInPoset(label) from None

    def check_element(self, i):
        if not isinstance(i, int) or not 0 <= i < self.n:
            raise ElementNotInPoset(i)
        return i

    def leq(self, i, j):
        self.check_element(i)
        self.check_element(j)
        return bool(self.up[i] >> j & 1)

    def bottom(self):
        """Index of the least element, or None."""
        return self.lub_mask(0)

    def top(self):
        return self.glb_mask(0)

    # -- bounds ---------------------------------------------------------

    def upper_bounds_mask(self, mask):
        ubs = self.full_mask
        for i in iter_bits(mask):
            ubs &= self.up[i]
        return ubs

    def lower_bounds_mask(self, mask):
        lbs = self.full_mask
        for i in iter_bits(mask):
            lbs &= self.dn[i]
        return lbs

    @cached_property
    def _by_up(self):
        return {m: c for c, m in enumerate(self.up)}

    @cached_property
    def _by_dn(self):
        return {m: c for c, m in enumerate(self.dn)}

    def lub_mask(self, mask):
        """Least upper bound of the subset given as a bitmask, or None.

        The least upper bound of the empty set is the bottom element when
        one exists.
        """
        return self._by_up.get(self.upper_bounds_mask(mask))

    def glb_mask(self, mask):
        return self._by_dn.get(self.lower_bounds_mask(mask))

    def meets(self):
        """Binary meet table: ``meets()[i][j]`` is the meet of i and j, or None."""
        if self._meets is None:
            self._meets = _pair_table(self.dn, self._by_dn)
        return self._meets

    def joins(self):
        """Binary join table: ``joins()[i][j]`` is the join of i and j, or None."""
        if self._joins is None:
            self._joins = _pair_table(self.up, self._by_up)
        return self._joins

    # -- directed subsets ------------------------------------------------

    def directed_masks(self):
        """All nonempty directed subsets, with their least upper bounds.

        A nonempty mask is directed when every pair of members has an upper
        bound inside it: for each member a, every member lies below some
        member above a.  One pass over the masks in increasing order keeps
        ``below[m]``, the union of the down-sets of the members of m; a
        submask is smaller than its mask, so its entry is filled before it
        is read.  Cached; SizeLimit above ``ORACLE_MAX`` elements.
        """
        if self._directed is None:
            if self.n > ORACLE_MAX:
                raise SizeLimit("poset size for directed enumeration", self.n, ORACLE_MAX)
            up, dn = self.up, self.dn
            below = array("I", [0]) * (1 << self.n)
            out = []
            for mask in range(1, self.full_mask + 1):
                low = mask & -mask
                below[mask] = below[mask ^ low] | dn[low.bit_length() - 1]
                rest = mask
                while rest:
                    bit = rest & -rest
                    if mask & ~below[mask & up[bit.bit_length() - 1]]:
                        break
                    rest ^= bit
                else:
                    out.append((mask, self.lub_mask(mask)))
            self._directed = tuple(out)
        return self._directed

    # -- covers -----------------------------------------------------------

    def covers(self):
        """Cover pairs (i, j): i < j with nothing strictly between."""
        if self._covers is None:
            out = []
            for i in range(self.n):
                strict_up = self.up[i] & ~(1 << i)
                for j in iter_bits(strict_up):
                    between = strict_up & self.dn[j] & ~(1 << j)
                    if between == 0:
                        out.append((i, j))
            self._covers = tuple(out)
        return self._covers

    def dual(self, orientation=None):
        """The opposite order on the same elements and payloads: ``up`` and
        ``dn`` swap, and no mask is derived again."""
        poset = FinPoset.__new__(FinPoset)
        poset._set(self.elements, self.dn, self.up, orientation, self.payloads)
        return poset

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        leq = [[bool(self.up[i] >> j & 1) for j in range(self.n)] for i in range(self.n)]
        data = {"elements": list(self.elements), "leq": leq}
        if self.orientation is not None:
            data["orientation"] = self.orientation
        return data

    def __eq__(self, other):
        return (
            isinstance(other, FinPoset)
            and self.elements == other.elements
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.elements, self.up))

    def __repr__(self):
        return f"FinPoset({self.n} elements)"


def _pair_table(masks, index):
    """``index.get(masks[i] & masks[j])`` for every pair, as a tuple of rows."""
    return tuple(tuple(map(index.get, map(a.__and__, masks))) for a in masks)


def validate_poset(elements, leq, orientation=None, payloads=None):
    """Checked poset constructor.

    ``leq`` is a square boolean table over ``elements``, whose labels must
    be distinct.  Raises BadParameters for a malformed table or labels, then
    packs the rows into masks and raises the first violation found:
    NotReflexive(i), NotAntisymmetric(i, j) or NotTransitive(i, j, k).
    """
    if not isinstance(elements, (list, tuple)):
        raise BadParameters("elements must be a list of labels")
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise BadParameters("empty poset is not allowed")
    try:
        distinct = len(set(elements))
    except TypeError:
        raise BadParameters("element labels must be hashable") from None
    if distinct != n:
        raise BadParameters("element labels must be distinct")
    if not isinstance(leq, (list, tuple)) or len(leq) != n or any(
        not isinstance(row, (list, tuple)) or len(row) != n for row in leq
    ):
        raise BadParameters("leq must be a square table over the elements")
    if not all(type(cell) is bool for row in leq for cell in row):
        raise BadParameters("leq cells must be booleans")
    up = [int("".join("1" if cell else "0" for cell in reversed(row)), 2) for row in leq]
    poset = FinPoset(elements, up, orientation=orientation, payloads=payloads)
    dn = poset.dn
    for i in range(n):
        if not up[i] >> i & 1:
            raise NotReflexive(i)
    for i in range(n):
        both = up[i] & dn[i] & ~((2 << i) - 1)
        if both:
            raise NotAntisymmetric(i, next(iter_bits(both)))
    for i in range(n):
        for j in iter_bits(up[i]):
            missing = up[j] & ~up[i]
            if missing:
                raise NotTransitive(i, j, next(iter_bits(missing)))
    return poset


# ---------------------------------------------------------------------------
# way-below


def directed_way_below(poset):
    """Way-below rows by the definition, over every directed subset.

    ``b`` is way below ``c`` unless some directed set whose supremum lies
    above ``c`` misses the up-set of ``b``; on a finite poset the rows are
    the principal filters ``up``.  SizeLimit above ``ORACLE_MAX`` elements.
    """
    not_wb = [0] * poset.n
    for mask, sup in poset.directed_masks():
        if sup is None:
            continue
        served = poset.dn[sup]
        for b in range(poset.n):
            if poset.up[b] & mask == 0:
                not_wb[b] |= served
    return [poset.full_mask & ~row for row in not_wb]


# ---------------------------------------------------------------------------
# up-sets and the Hasse diagram


def upsets(up, limit=None):
    """Every union of the masks in ``up``, as a set of bitmasks.

    When ``up[x]`` is the up-set of x in a preorder these are its up-sets,
    that is the opens of the finite topology it specializes.  The search
    closes {0} under ``m | up[x]``, so its cost grows with the output; it
    stops as soon as it has found more than ``limit`` sets.
    """
    found = {0}
    stack = [0]
    while stack:
        mask = stack.pop()
        for row in up:
            bigger = mask | row
            if bigger not in found:
                found.add(bigger)
                if limit is not None and len(found) > limit:
                    return found
                stack.append(bigger)
    return found


def hasse_dot(poset, name="poset"):
    """Render the cover relation as a DOT digraph, edges pointing upward."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, label in enumerate(poset.elements):
        lines.append(f'  n{i} [label="{_dot_escape(str(label))}"];')
    for i, j in poset.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text, limit=40):
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return text[:limit]


# ---------------------------------------------------------------------------
# the property report


@dataclass
class DomainReport:
    """Outcome of the seven order-theoretic property checks.

    ``None`` flags mean the property is not applicable: meet-continuity on
    a poset that is not a meet-semilattice, atomisticity on a poset with no
    least element.  Every False flag carries a witness under the property's
    key in ``witnesses``.  ``paths`` records which route computed each flag.
    """

    algebraic: bool = True
    continuous: bool = True
    meet_continuous: bool | None = True
    atomistic: bool | None = True
    quasi_continuous: bool = True
    quasi_algebraic: bool = True
    order_scattered: bool = True
    witnesses: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)

    def flags(self):
        return {key: getattr(self, key) for key in PROPERTY_KEYS}

    def all_true(self):
        return all(getattr(self, key) is True for key in PROPERTY_KEYS)

    def to_json_dict(self):
        data = dict(self.flags())
        data["witnesses"] = self.witnesses
        data["paths"] = self.paths
        return data


def domain_report(poset):
    """Run all seven property checks and collect witnesses for failures."""
    report = DomainReport()
    report.paths["way_below"] = "theorem"

    # algebraic and continuous: every element is compact (way-below is the
    # order), so the approximants of c are dn[c], whose lub is c itself
    report.algebraic = True
    report.paths["algebraic"] = "theorem"
    report.continuous = True
    report.paths["continuous"] = "theorem"

    _meet_continuity(poset, report)
    _atomistic(poset, report)

    # quasi-continuous and quasi-algebraic: for a compact c, {c} is the least
    # member of fin(c), so the family is directed and the intersection of
    # its upsets is up(c) (Gierz et al., Continuous Lattices and Domains,
    # III-3); every element is compact.
    report.quasi_continuous = True
    report.paths["quasi_continuous"] = "compact-singletons"
    report.quasi_algebraic = True
    report.paths["quasi_algebraic"] = "compact-singletons"

    # order-scattered: a finite chain of two or more elements always has a
    # covering pair, so no order-dense chain can exist.
    report.order_scattered = True
    report.paths["order_scattered"] = "covering-pair-shortcut"
    return report


def _meet_continuity(poset, report):
    # a pair has a meet exactly when its common lower bounds are some dn[c]
    dn, meets = poset.dn, poset._by_dn
    for i, a in enumerate(dn):
        for j in range(i, poset.n):
            if a & dn[j] not in meets:
                report.meet_continuous = None
                report.witnesses["meet_continuous"] = {
                    "not_applicable": "missing binary meet",
                    "pair": [i, j],
                }
                report.paths["meet_continuous"] = "not-a-meet-semilattice"
                return
    # finite directed sets attain their suprema, and meeting with a fixed
    # element is monotone, so the distributivity law holds
    report.paths["meet_continuous"] = "theorem"


def _atomistic(poset, report):
    bottom = poset.bottom()
    if bottom is None:
        report.atomistic = None
        report.witnesses["atomistic"] = {"not_applicable": "no least element"}
        report.paths["atomistic"] = "no-least-element"
        return
    atoms_mask = sum(1 << j for i, j in poset.covers() if i == bottom)
    report.paths["atomistic"] = "definitional"
    for c in range(poset.n):
        approx = atoms_mask & poset.dn[c]
        if poset.lub_mask(approx) != c:
            report.atomistic = False
            report.witnesses["atomistic"] = {
                "element": c,
                "atoms_below": sorted(iter_bits(approx)),
                "sup": poset.lub_mask(approx),
            }
            return


# ---------------------------------------------------------------------------
# random posets (used by the property suites)


def random_poset(rng, n, edge_prob=0.35):
    """A random poset on n elements: random DAG edges, transitively closed."""
    if n < 1:
        raise BadParameters("need at least one element")
    up = [1 << i for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                up[order[a]] |= 1 << order[b]
    # transitive closure over the random topological order
    for a in reversed(range(n)):
        i = order[a]
        for j in iter_bits(up[i] & ~(1 << i)):
            up[i] |= up[j]
    return FinPoset([f"e{i}" for i in range(n)], up)
