"""Finite topologies, iterated isolated-point removal, and ordinal spaces.

A finite topology is the family of up-sets of its specialization preorder
(Alexandrov, 1937), so it is stored as one bitmask per point: the smallest
open containing that point.  Scatteredness is decided by iterating the
derivative that removes isolated points, in one walk over these masks: a
mask of live points shrinks stage by stage, and no subspace is built.
Total disconnectedness is the Hausdorff test: each minimal open is
connected, so the components are singletons exactly when every minimal
open is.  Ordinal intervals [0, a] are handled symbolically through their
normal forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, ParseError, check_size
from .order import iter_bits, transpose, upsets
from .partitions import collapse


class FinTop:
    """Finite topological space: points plus each point's minimal open.

    ``up[x]`` is the bitmask of the smallest open set containing point x;
    the opens are exactly the unions of these masks.  The constructor takes
    the open family, as sets of point labels, and checks that it contains
    the empty set and the full set and is closed under union and
    intersection.
    """

    def __init__(self, points, opens):
        self.points = tuple(points)
        n = len(self.points)
        try:
            index = {p: i for i, p in enumerate(self.points)}
        except TypeError:
            raise BadParameters("points must be hashable") from None
        if len(index) != n:
            raise BadParameters("duplicate points")
        family = set()
        for o in opens:
            mask = 0
            try:
                for p in o:
                    mask |= 1 << index[p]
            except (KeyError, TypeError):
                raise BadParameters(f"open set {o!r} uses unknown points") from None
            family.add(mask)
        full = (1 << n) - 1
        if 0 not in family or full not in family:
            raise BadParameters("opens must include the empty set and the full set")
        up = [full] * n
        for mask in family:
            for x in iter_bits(mask):
                up[x] &= mask
        self.up = tuple(up)
        # every given open is the union of the up[x] inside it, so the family
        # is closed under union and intersection iff nothing else is a union
        generated = upsets(self.up, limit=len(family))
        if generated != family:
            missing = [self.points[x] for x in iter_bits(min(generated ^ family))]
            raise BadParameters(
                f"opens not closed under union and intersection: {missing} is missing"
            )

    @classmethod
    def _from_masks(cls, points, up):
        """Unchecked constructor from minimal-open masks.

        Only for masks known to be a preorder's neighbourhoods: x lies in
        up[x], and y in up[x] implies up[y] within up[x].
        """
        space = cls.__new__(cls)
        space.points = tuple(points)
        space.up = tuple(up)
        return space

    # -- basic notions --------------------------------------------------

    @property
    def n(self):
        return len(self.points)

    @property
    def opens(self):
        """Every open set, as a frozenset of point indices."""
        return frozenset(frozenset(iter_bits(m)) for m in upsets(self.up))

    def is_open(self, subset):
        mask = self._mask(subset)
        return all(self.up[x] & ~mask == 0 for x in iter_bits(mask))

    def closure(self, subset):
        """Smallest closed superset: the points whose every open meets it."""
        mask = self._mask(subset)
        return frozenset(x for x in range(self.n) if self.up[x] & mask)

    def subspace(self, subset):
        kept = sorted(set(subset))
        position = {x: i for i, x in enumerate(kept)}
        up = [sum(1 << position[y] for y in iter_bits(self.up[x]) if y in position) for x in kept]
        return FinTop._from_masks([self.points[x] for x in kept], up)

    def _mask(self, subset):
        mask = 0
        for i in subset:
            if not (isinstance(i, int) and 0 <= i < self.n):
                raise BadParameters(f"no point at index {i!r}")
            mask |= 1 << i
        return mask

    def __repr__(self):
        return f"FinTop({self.n} points, {len(upsets(self.up))} opens)"


# ---------------------------------------------------------------------------
# derivatives and scatteredness


def _cb_walk(topology):
    """Iterate the derivative on the space's own masks: ``(stages, residue)``.

    Each derivative is the subspace on the mask ``live`` of points not yet
    removed.  A live x is isolated there when ``up[x] & live == 1 << x``,
    and its singleton is then also closed when ``dn[x] & live == 1 << x``.
    ``stages[k]`` maps each point removed at step k to that clopen flag;
    ``residue`` masks the points never removed, empty exactly for scattered
    spaces.
    """
    up, dn = topology.up, transpose(topology.up)
    live, stages = (1 << len(up)) - 1, []
    while live:
        stage = {x: dn[x] & live == 1 << x for x in iter_bits(live) if up[x] & live == 1 << x}
        if not stage:
            break
        stages.append(stage)
        live &= ~sum(1 << x for x in stage)
    return stages, live


def cb_rank_fin(topology):
    """Iterate the derivative: (steps to empty, residue points).

    The residue is empty exactly for scattered spaces; otherwise it is the
    nonempty stable subspace without isolated points, reported with the
    number of steps taken to reach it.
    """
    stages, residue = _cb_walk(topology)
    return len(stages), frozenset(topology.points[x] for x in iter_bits(residue))


# ---------------------------------------------------------------------------
# separation-style checks


def is_hausdorff_fin(topology):
    """The minimal opens are pairwise disjoint.

    Each up[x] holds x and they cover the space, so they are pairwise
    disjoint exactly when their sizes add up to the number of points.  This
    is also total disconnectedness: every open holding x contains up[x], so
    up[x] is connected, and the components are all singletons exactly when
    every up[x] is {x}, which is when the minimal opens are disjoint.
    """
    return sum(mask.bit_count() for mask in topology.up) == topology.n


def is_stonean_fin(topology):
    """Closures of open sets are open.

    Every open is a union of minimal opens and closure commutes with finite
    unions, so checking the minimal opens suffices.
    """
    return all(topology.is_open(topology.closure(iter_bits(mask))) for mask in topology.up)


@dataclass
class StoneScatteredReport:
    """Stonean+scattered verdict with per-point isolation stages, and the
    ``rank`` and ``residue`` of :func:`cb_rank_fin` from the same walk."""

    stonean: bool
    scattered: bool
    stages: dict
    rank: int
    residue: frozenset

    @property
    def ok(self):
        return self.stonean and self.scattered

    def to_json_dict(self):
        return {
            "stonean": self.stonean,
            "scattered": self.scattered,
            "pass": self.ok,
            "stages": {
                str(point): {"stage": stage, "clopen": clopen}
                for point, (stage, clopen) in self.stages.items()
            },
        }


def stone_scattered_check(topology):
    """Verify Stonean plus scattered, recording each point's isolation stage.

    For every point the report lists the derivative stage at which its
    singleton becomes open, and whether the singleton is clopen there.
    """
    stages, residue = _cb_walk(topology)
    points = topology.points
    return StoneScatteredReport(
        stonean=is_stonean_fin(topology),
        scattered=not residue,
        stages={points[x]: (k, flag) for k, step in enumerate(stages) for x, flag in step.items()},
        rank=len(stages),
        residue=frozenset(points[x] for x in iter_bits(residue)),
    )


# ---------------------------------------------------------------------------
# ordinal spaces in normal form


_TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


@dataclass(frozen=True)
class OrdinalCNF:
    """An ordinal below w^(e+1) in normal form, e the ``exponent`` limit of
    ``errors.LIMITS``.

    ``terms`` are (exponent, coefficient) pairs with strictly decreasing
    exponents and positive coefficients; the empty tuple is the ordinal 0.
    As a topological space, the value denotes the closed interval [0, a] in
    the order topology.
    """

    terms: tuple = ()

    def __post_init__(self):
        last = None
        for exponent, coefficient in self.terms:
            check_size("exponent", exponent)
            if coefficient < 1:
                raise BadParameters("coefficients must be positive")
            if last is not None and exponent >= last:
                raise BadParameters("exponents must strictly decrease")
            last = exponent

    @property
    def is_zero(self):
        return not self.terms

    def leading_exponent(self):
        if self.is_zero:
            raise BadParameters("the zero ordinal has no leading exponent")
        return self.terms[0][0]

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("w" if c == 1 else f"w*{c}")
            else:
                parts.append(f"w^{e}" if c == 1 else f"w^{e}*{c}")
        return "+".join(parts)

    @classmethod
    def parse(cls, text):
        """Parse the ``w^E*C`` term grammar, terms joined by ``+``."""
        text = text.strip().replace(" ", "")
        if not text:
            raise ParseError("empty ordinal")
        if text == "0":
            return cls(())
        terms = []
        for chunk in text.split("+"):
            match = _TERM_RE.match(chunk)
            if not match:
                raise ParseError(f"bad ordinal term {chunk!r}")
            exponent, coefficient, constant = match.groups()
            try:
                terms.append((0, int(constant)) if constant is not None
                             else (int(exponent or 1), int(coefficient or 1)))
            except ValueError as exc:  # a number past Python's digit limit
                raise ParseError(f"bad ordinal term: {exc}") from exc
        return cls(tuple(terms))

    @classmethod
    def from_int(cls, value):
        if value < 0:
            raise BadParameters("ordinals are not negative")
        return cls(((0, value),) if value else ())


def cb_derivative_ord(alpha):
    """Derivative of the ordinal interval [0, a]: its limit ordinals.

    Symbolic rule: drop the finite term and lower every exponent by one;
    the resulting count q of limit ordinals presents the space [1, q],
    which is [0, q-1] when q is finite and [0, q] otherwise.  Returns None
    for the empty space (no limit ordinals at all).
    """
    quotient = tuple((e - 1, c) for e, c in alpha.terms if e >= 1)
    if not quotient:
        return None
    if len(quotient) == 1 and quotient[0][0] == 0:
        count = quotient[0][1]
        return OrdinalCNF.from_int(count - 1)
    return OrdinalCNF(quotient)


def cb_rank_ord(alpha):
    """Number of derivative steps until the space [0, a] vanishes."""
    current = alpha
    rank = 0
    while current is not None:
        current = cb_derivative_ord(current)
        rank += 1
    return rank


def ordinal_interval_topology(value):
    """Explicit order topology on the finite interval [0, value].

    The open order intervals form a basis closed under intersection, so a
    point's minimal open is the intersection of the intervals containing
    it.  On a finite chain every singleton is itself a basis interval,
    making the space discrete.
    """
    if value < 0 or value > 10:
        raise BadParameters("explicit interval needs 0 <= value <= 10")
    full = (1 << (value + 1)) - 1
    up = [full] * (value + 1)
    for lo in range(-1, value + 1):
        for hi in range(lo + 1, value + 2):
            # the points p with lo < p < hi
            interval = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
            for p in iter_bits(interval):
                up[p] &= interval
    return FinTop._from_masks(range(value + 1), up)


# ---------------------------------------------------------------------------
# the chain of closed sets in a convergent-sequence space


@dataclass
class KqChainReport:
    """Strictly increasing chain of closed sets and its order-reversing dual."""

    points: tuple
    sets: list
    chosen: list
    strictly_increasing: bool
    dual_reverses: bool
    eqrels: list

    @property
    def ok(self):
        return self.strictly_increasing and self.dual_reverses


def kq_chain_witness(m, n, rationals=None):
    """Chain of closed sets in the m-point truncation of a convergent sequence.

    The space has m isolated points labeled by ascending rationals plus one
    limit point whose only neighbourhood is everything.  For each chosen
    rational q the witness set collects the limit point and the isolated
    points labeled at most q.  Every witness set holds the limit point, and
    in this space every set that holds it is closed, since its complement
    is a set of isolated points; so the sets are closed by construction.
    They must be strictly increasing, and collapsing each to a single class
    must reverse the order on the dual side.
    """
    if not (isinstance(m, int) and isinstance(n, int) and m >= n >= 2):
        raise BadParameters("need integers m >= n >= 2")
    labels = [Fraction(i, m + 1) for i in range(1, m + 1)]
    points = tuple(str(q) for q in labels) + ("limit",)
    limit = m  # index of the limit point

    if rationals is None:
        rationals = [Fraction(j, n + 1) for j in range(1, n + 1)]
    rationals = [Fraction(q) for q in rationals]
    if len(rationals) != n or any(b <= a for a, b in zip(rationals, rationals[1:])):
        raise BadParameters("need n strictly increasing rationals")

    sets = []
    for q in rationals:
        members = frozenset(
            [i for i, label in enumerate(labels) if label <= q] + [limit]
        )
        sets.append(members)
    strictly_increasing = all(a < b for a, b in zip(sets, sets[1:]))

    # a bigger closed set collapses more, i.e. gives a coarser relation and
    # hence a smaller subalgebra: the earlier relation refines the later one
    eqrels = [collapse(m + 1, {i + 1 for i in s}) for s in sets]
    dual_reverses = all(
        a.refines(b) and a != b for a, b in zip(eqrels, eqrels[1:])
    )
    return KqChainReport(
        points=points,
        sets=sets,
        chosen=rationals,
        strictly_increasing=strictly_increasing,
        dual_reverses=dual_reverses,
        eqrels=eqrels,
    )
