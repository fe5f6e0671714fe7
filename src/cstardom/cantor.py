"""Closed interval-block equivalence relations on [0,1] with exact rationals.

A relation here is the diagonal plus the squares of finitely many disjoint
closed blocks.  Joins hinge on exact endpoint equality (blocks that merely
touch must merge), so nothing runs on floats.  A relation stores its
endpoints as integer numerators over one denominator ``den``, reduced so
that ``den`` and the numerators have no common factor: ``den`` is then the
lcm of the endpoint denominators in lowest terms, and equal relations store
equal integers.  The triadic relations have a power of three for ``den``;
the dense-chain witnesses keep their i/(n+1) endpoints, and their midpoints
halve those again, which is why ``den`` belongs to each relation rather
than being one power of three.  Two relations are compared over the lcm of
their denominators and a point p/q against a block by cross-multiplying,
so every comparison is between integers and stays exact.  Every relation
is built from numerators by the one constructor ``TriRel(den, pairs)``;
a ``Fraction`` is made only from numerators, for output: the ``blocks``
property, widths, grid points and check witnesses.

A relation keeps the sorted lower numerators of its blocks; since blocks
are disjoint and do not touch, the only block that can hold a point is the
one with the largest lower endpoint at or below it, found by bisection.
The stages of one level are made by a single walk down from the root on
integer numerators (``_stage_level``), not string by string.

The module builds the middle-thirds relation and the shrinking
first-and-last-thirds family, and verifies at a chosen truncation depth
that joining against the shrinking family stays full while joining against
its intersection (the diagonal) does not: the failure of the distributive
law that meet-continuity would demand.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm

from .errors import AssertionFailed, BadParameters, GridTooCoarse, check_size
from .partitions import EqRel


class TriRel:
    """Diagonal plus squares of disjoint closed blocks [l/den, u/den].

    ``TriRel(den, pairs)`` is the one constructor: it takes a positive
    denominator and integer numerator pairs (l, u), sorts the pairs, checks
    that each block is a proper subinterval (0 <= l < u <= den) and that
    no two blocks share even an endpoint (touching blocks must have been
    merged, since transitivity through the shared point would glue them),
    then reduces ``den`` and the numerators by their common factor.
    ``blocks`` is the same list as ``Fraction`` pairs, built for output.
    """

    __slots__ = ("den", "_pairs", "_lows", "_blocks")

    def __init__(self, den, pairs):
        pairs = tuple(sorted(pairs))
        for l, u in pairs:
            if not 0 <= l < u <= den:
                raise BadParameters(
                    f"block [{Fraction(l, den)}, {Fraction(u, den)}] "
                    "is not a proper subinterval of [0,1]"
                )
        for (_, u1), (l2, _) in zip(pairs, pairs[1:]):
            if l2 <= u1:
                raise BadParameters(f"blocks touching at {Fraction(l2, den)} must be merged")
        common = gcd(den, *chain.from_iterable(pairs))
        if common > 1:
            den //= common
            pairs = tuple((l // common, u // common) for l, u in pairs)
        self.den, self._pairs, self._blocks = den, pairs, None
        self._lows = [l for l, _ in pairs]

    @property
    def blocks(self):
        """The blocks as sorted ``Fraction`` pairs."""
        if self._blocks is None:
            den = self.den
            self._blocks = tuple((Fraction(l, den), Fraction(u, den)) for l, u in self._pairs)
        return self._blocks

    def _over(self, den):
        """The numerator pairs over ``den``, a multiple of ``self.den``."""
        k = den // self.den
        return self._pairs if k == 1 else [(l * k, u * k) for l, u in self._pairs]

    def _find(self, num, den):
        """Index of the block holding the point num/den (den > 0), or -1."""
        scaled = num * self.den
        i = bisect_right(self._lows, scaled // den) - 1
        if i >= 0 and scaled <= self._pairs[i][1] * den:
            return i
        return -1

    def _relates(self, x, y, den):
        """Whether the points x/den and y/den are related."""
        if x == y:
            return True
        i = self._find(x, den)
        return i >= 0 and self._find(y, den) == i

    def contains(self, other):
        """Relation containment: every block of other inside a block of self."""
        pairs, den, other_den = self._pairs, self.den, other.den
        for l, u in other._pairs:
            i = self._find(l, other_den)
            if i < 0 or u * den > pairs[i][1] * other_den:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, TriRel) and self.den == other.den and self._pairs == other._pairs

    def __hash__(self):
        return hash((self.den, self._pairs))

    def __repr__(self):
        inner = ", ".join(f"[{l}, {u}]" for l, u in self.blocks)
        return f"TriRel({inner})"

    def to_json_list(self):
        return [[str(l), str(u)] for l, u in self.blocks]


DIAGONAL = TriRel(1, ())
FULL = TriRel(1, ((0, 1),))


def _stages(length):
    if length == 0:
        yield ""
        return
    for sigma in _stages(length - 1):
        yield sigma + "0"
        yield sigma + "1"


def _stage_level(length):
    """The stages (a, b, c, d) of every binary string of a length, in
    ``_stages`` order, as numerators over 3^(length+1): the outer thirds
    [a, b] and [c, d] of [a, d] survive as suffixes 0 and 1, and [b, c] is
    the middle block.

    One walk down from the root on integer numerators: at level k a stage
    [a, d] has numerators over 3^k, and its children are (3a, 2a+d) and
    (a+2d, 3d) over 3^(k+1).  Child j of entry i is entry 2i+j of the next
    level.
    """
    ends = [(0, 1)]
    for _ in range(length):
        ends = [
            child for a, d in ends for child in ((3 * a, 2 * a + d), (a + 2 * d, 3 * d))
        ]
    return [(3 * a, 2 * a + d, a + 2 * d, 3 * d) for a, d in ends]


def relation_R(depth):
    """Middle-thirds relation truncated at the given depth.

    One block [b, c] per binary string of length <= depth; the blocks are
    pairwise disjoint (a point in two middle thirds would pin down the same
    string twice), which the constructor re-checks.
    """
    check_size("depth", depth)
    pairs = []
    for length in range(depth + 1):
        k = 3 ** (depth - length)
        pairs.extend((b * k, c * k) for _, b, c, _ in _stage_level(length))
    return TriRel(3 ** (depth + 1), pairs)


def relation_S(n):
    """First-and-last-thirds relation: one block [a, d] per string of length n."""
    check_size("depth", n)
    return TriRel(3 ** (n + 1), ((a, d) for a, _, _, d in _stage_level(n)))


def tri_join(x, y):
    """Smallest block relation containing both.

    Blocks that overlap or touch merge into their convex hull; a single
    sweep in order of lower ends realizes the transitive closure because
    blocks are intervals.  Both block lists are sorted, so sorting their
    concatenation is one linear merge of two runs.
    """
    den = lcm(x.den, y.den)
    merged = []
    top = -1  # upper end of the last merged block
    for l, u in sorted(chain(x._over(den), y._over(den))):
        if l > top:
            merged.append([l, u])
            top = u
        elif u > top:
            top = merged[-1][1] = u
    return TriRel(den, map(tuple, merged))


def max_offdiag_width(x):
    """Largest block length; zero for the diagonal."""
    return Fraction(max((u - l for l, u in x._pairs), default=0), x.den)


def is_full(x):
    return x._pairs == ((0, x.den),)


# ---------------------------------------------------------------------------
# the meet-continuity counterexample at a finite stage


@dataclass
class Check:
    """A check that passed: a failing one raises instead of being kept."""

    name: str
    witness: str

    def to_json_dict(self):
        # "pass" stays in the report, which perfbench/checks.py reads
        return {"name": self.name, "pass": True, "witness": self.witness}


@dataclass
class CounterexampleReport:
    depth: int
    r_blocks: int
    checks: list

    def to_json_dict(self):
        return {
            "depth": self.depth,
            "r_blocks": self.r_blocks,
            "checks": [check.to_json_dict() for check in self.checks],
        }


def verify_counterexample(depth):
    """Check the distributivity failure at truncation depth ``depth``.

    With R the truncated middle-thirds relation and S_n the shrinking
    family: R joined with every S_n (n <= depth) is already full, yet R
    joined with the intersection of all S_n (the diagonal) is just R, which
    is not full; the S_n widths 3^-n witness the shrink to the diagonal.
    Each join is also re-derived through the explicit transitivity chain
    across stage endpoints.  Raises AssertionFailed naming the offending
    stage as soon as any assertion breaks, so a returned report is one
    whose every check passed.  ``relation_R`` guards the depth.
    """
    r = relation_R(depth)
    family = {n: relation_S(n) for n in range(1, depth + 1)}
    checks = []

    def record(name, passed, witness):
        if not passed:
            raise AssertionFailed(f"{name}: {witness}")
        checks.append(Check(name, witness))

    joins = {}
    for n in range(1, depth + 1):
        joined = joins[n] = tri_join(r, family[n])
        first = "empty" if not joined.blocks else "[{}, {}]".format(*joined.blocks[0])
        record(
            f"join_full:n={n}",
            is_full(joined),
            f"{len(joined.blocks)} block(s), first {first}",
        )

    with_diag = tri_join(r, DIAGONAL)
    record(
        "join_diagonal_is_r",
        with_diag == r and not is_full(r),
        f"{len(r._pairs)} block(s)",
    )

    for n in range(1, depth + 1):
        width = max_offdiag_width(family[n])
        record(
            f"width_exact:n={n}",
            width == Fraction(1, 3**n),
            f"max width {width}",
        )

    for length in range(depth):
        ok, sigma = _chain_level(r, length, family[length + 1], joins[length + 1])
        record(
            f"chain_level:{length}",
            ok,
            "all stage chains connect" if ok else f"chain broken at stage {sigma!r}",
        )

    return CounterexampleReport(depth=depth, r_blocks=len(r._pairs), checks=checks)


def _chain_level(r, length, s_next, joined):
    """Transitivity chain from a to d across every stage of a given length.

    The chain steps a -> b (first-third block of the next stage), b -> c
    (middle block), c -> d (last-third block), once per child stage, and
    lands on (a, d) related inside ``joined``, the join of R with
    ``s_next``, the next family member.
    """
    den = 3 ** (length + 1)
    children = _stage_level(length + 1)
    for i, (sigma, (a, b, c, d)) in enumerate(zip(_stages(length), _stage_level(length))):
        steps = []
        for ca, cb, cc, cd in children[2 * i : 2 * i + 2]:
            steps.append((ca, cb, s_next))
            steps.append((cb, cc, r))
            steps.append((cc, cd, s_next))
        for x, y, rel in steps:
            if not rel._relates(x, y, 3 * den):
                return False, sigma
        # the middle block of the parent stage links the two child spans
        if not r._relates(b, c, den):
            return False, sigma
        if not joined._relates(a, d, den):
            return False, sigma
    return True, None


# ---------------------------------------------------------------------------
# grid restriction (bridge to finite equivalence relations)


def sample_to_grid(x, m):
    """Restrict a block relation to the grid k/3^m, 0 <= k <= 3^m.

    All block endpoints must lie on the grid, else the restriction could
    misrepresent connectivity (GridTooCoarse).  Block [l, u] becomes the
    run of grid indices l*3^m .. u*3^m and every other grid point a
    singleton.  The blocks are sorted and strictly separated, so the runs
    are written straight into the relation's label vector, without the
    checked constructor.  At sufficient resolution the restriction turns
    joins of block relations into joins of finite relations.
    """
    check_size("grid", m)
    scale = 3**m
    factor, off_grid = divmod(scale, x.den)
    if off_grid:
        # x.den is reduced, so it divides scale unless an endpoint is off the grid
        den = x.den
        endpoint = next(e for e in chain.from_iterable(x._pairs) if e * scale % den)
        raise GridTooCoarse(Fraction(endpoint, den), m)
    spans = [(l * factor, u * factor) for l, u in x._pairs]
    # grid index k is labelled k - merged, where merged counts the points
    # folded into earlier runs
    labels, merged, start = [], 0, 0
    for lo, hi in spans:
        labels.extend(range(start - merged, lo - merged))
        labels.extend([lo - merged] * (hi - lo + 1))
        merged += hi - lo
        start = hi + 1
    labels.extend(range(start - merged, scale + 1 - merged))
    return EqRel._from_labels(_grid_points(scale), labels)


@cache
def _grid_points(scale):
    """The grid k/scale, one tuple shared by every relation sampled on it."""
    return tuple(Fraction(k, scale) for k in range(scale + 1))


# ---------------------------------------------------------------------------
# order-dense chain witnesses


def dense_chain_witness(n):
    """Strictly shrinking tail-block relations [i/(n+1), 1], i = 1..n.

    As relations the witnesses strictly decrease, so the dual subalgebras
    strictly increase; between any two consecutive witnesses the midpoint
    constructor builds a further one, which is the finite stage of an
    order-dense chain.
    """
    check_size("chain", n)
    return [TriRel(n + 1, ((i, n + 1),)) for i in range(1, n + 1)]


def midpoint_witness(x, y):
    """A tail-block relation strictly between two nested tail-block ones.

    The two starts are compared and averaged over the product of the
    denominators, on numerators alone.
    """
    lx, ly = _tail_start(x) * y.den, _tail_start(y) * x.den
    if lx == ly:
        raise BadParameters("witnesses coincide")
    den = 2 * x.den * y.den
    return TriRel(den, ((lx + ly, den),))


def _tail_start(x):
    """The numerator l of a tail-block relation [l/den, 1]."""
    if len(x._pairs) != 1 or x._pairs[0][1] != x.den:
        raise BadParameters("not a tail-block relation [x, 1]")
    return x._pairs[0][0]
