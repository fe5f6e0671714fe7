"""Closed interval-block equivalence relations on [0,1] with exact rationals.

A relation here is the diagonal plus the squares of finitely many disjoint
closed blocks.  Endpoints are triadic rationals, and joins hinge on exact
endpoint equality (blocks that merely touch must merge), so everything runs
on ``fractions.Fraction`` - never floats.  Blocks keep ``Fraction``
endpoints, not integers over one power of three, because the dense-chain
witnesses have endpoints i/(n+1) and their midpoints halve them again.

A relation keeps the sorted lower endpoints of its blocks; since blocks are
disjoint and do not touch, the only block that can hold a point is the one
with the largest lower endpoint at or below it, found by bisection.  The
stages of one level are made by a single walk down from the root on integer
numerators (``_stage_level``), not string by string.

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

from .errors import AssertionFailed, BadParameters, DepthLimit, GridTooCoarse
from .partitions import EqRel

#: cap on truncation depths (block counts grow as 2^depth)
MAX_DEPTH = 10
#: cap on grid resolutions m (the grid k/3^m has 3^m + 1 points)
GRID_MAX = 8

ZERO = Fraction(0)
ONE = Fraction(1)


class TriRel:
    """Diagonal plus squares of disjoint closed blocks with rational endpoints.

    Invariants enforced on construction: blocks sorted, each l < u, and no
    two blocks share even an endpoint (touching blocks must have been
    merged, since transitivity through the shared point would glue them).
    Blocks that already satisfy all three in the given order are kept as
    given; any others are sorted first and then checked.
    """

    __slots__ = ("blocks", "_lows")

    def __init__(self, blocks):
        blocks = tuple(
            (l if type(l) is Fraction else Fraction(l), u if type(u) is Fraction else Fraction(u))
            for l, u in blocks
        )
        # proper, strictly separated blocks in the given order are sorted
        if not (
            all(ZERO <= l < u <= ONE for l, u in blocks)
            and all(u1 < l2 for (_, u1), (l2, _) in zip(blocks, blocks[1:]))
        ):
            blocks = tuple(sorted(blocks))
            for l, u in blocks:
                if not (ZERO <= l < u <= ONE):
                    raise BadParameters(f"block [{l}, {u}] is not a proper subinterval of [0,1]")
            for (_, u1), (l2, _) in zip(blocks, blocks[1:]):
                if l2 <= u1:
                    raise BadParameters(f"blocks touching at {l2} must be merged")
        self.blocks = blocks
        self._lows = [l for l, _ in blocks]

    def relates(self, x, y):
        if x == y:
            return True
        block = self.block_containing(x)
        return block is not None and block[0] <= y <= block[1]

    def block_containing(self, x):
        i = bisect_right(self._lows, x) - 1
        if i >= 0 and x <= self.blocks[i][1]:
            return self.blocks[i]
        return None

    def contains(self, other):
        """Relation containment: every block of other inside a block of self."""
        for ol, ou in other.blocks:
            block = self.block_containing(ol)
            if block is None or ou > block[1]:
                return False
        return True

    def __le__(self, other):
        return other.contains(self)

    def __eq__(self, other):
        return isinstance(other, TriRel) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        inner = ", ".join(f"[{l}, {u}]" for l, u in self.blocks)
        return f"TriRel({inner})"

    def to_json_list(self):
        return [[str(l), str(u)] for l, u in self.blocks]


DIAGONAL = TriRel(())
FULL = TriRel(((ZERO, ONE),))


def _stages(length):
    if length == 0:
        yield ""
        return
    for sigma in _stages(length - 1):
        yield sigma + "0"
        yield sigma + "1"


def _stage_level(length):
    """The stages (a, b, c, d) of every binary string of a length, in
    ``_stages`` order: the outer thirds [a, b] and [c, d] of [a, d] survive
    as suffixes 0 and 1, and [b, c] is the middle block.

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
    den = 3 ** (length + 1)
    return [
        (
            Fraction(3 * a, den),
            Fraction(2 * a + d, den),
            Fraction(a + 2 * d, den),
            Fraction(3 * d, den),
        )
        for a, d in ends
    ]


def relation_R(depth):
    """Middle-thirds relation truncated at the given depth.

    One block [b, c] per binary string of length <= depth; the blocks are
    pairwise disjoint (a point in two middle thirds would pin down the same
    string twice), which the constructor re-checks.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise DepthLimit(depth, MAX_DEPTH)
    return TriRel(
        (b, c) for length in range(depth + 1) for _, b, c, _ in _stage_level(length)
    )


def relation_S(n):
    """First-and-last-thirds relation: one block [a, d] per string of length n."""
    if not 0 <= n <= MAX_DEPTH:
        raise DepthLimit(n, MAX_DEPTH)
    return TriRel((a, d) for a, _, _, d in _stage_level(n))


def tri_join(x, y):
    """Smallest block relation containing both.

    Blocks that overlap or touch merge into their convex hull; a single
    sorted sweep realizes the transitive closure because blocks are
    intervals.
    """
    xs, ys = x.blocks, y.blocks
    nx, ny = len(xs), len(ys)
    i = j = 0
    merged = []
    # merge the two sorted block lists by lower end, sweeping as we go
    while i < nx or j < ny:
        if j == ny or (i < nx and xs[i][0] <= ys[j][0]):
            l, u = xs[i]
            i += 1
        else:
            l, u = ys[j]
            j += 1
        if merged and l <= merged[-1][1]:
            if u > merged[-1][1]:
                merged[-1][1] = u
        else:
            merged.append([l, u])
    return TriRel(tuple((l, u) for l, u in merged))


def max_offdiag_width(x):
    """Largest block length; zero for the diagonal."""
    return max((u - l for l, u in x.blocks), default=ZERO)


def is_full(x):
    return x.blocks == ((ZERO, ONE),)


# ---------------------------------------------------------------------------
# the meet-continuity counterexample at a finite stage


@dataclass
class Check:
    name: str
    passed: bool
    witness: str

    def to_json_dict(self):
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


@dataclass
class CounterexampleReport:
    depth: int
    r_blocks: int
    checks: list

    @property
    def passed(self):
        return all(check.passed for check in self.checks)

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
    stage as soon as any assertion breaks; returns the full report
    otherwise.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise DepthLimit(depth, MAX_DEPTH)
    r = relation_R(depth)
    family = {n: relation_S(n) for n in range(1, depth + 1)}
    checks = []

    def record(name, passed, witness):
        checks.append(Check(name, passed, witness))
        if not passed:
            raise AssertionFailed(f"{name}: {witness}")

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
        f"{len(r.blocks)} block(s)",
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

    return CounterexampleReport(depth=depth, r_blocks=len(r.blocks), checks=checks)


def _chain_level(r, length, s_next, joined):
    """Transitivity chain from a to d across every stage of a given length.

    The chain steps a -> b (first-third block of the next stage), b -> c
    (middle block), c -> d (last-third block), once per child stage, and
    lands on (a, d) related inside ``joined``, the join of R with
    ``s_next``, the next family member.
    """
    children = _stage_level(length + 1)
    for i, (sigma, (a, b, c, d)) in enumerate(zip(_stages(length), _stage_level(length))):
        steps = []
        for ca, cb, cc, cd in children[2 * i : 2 * i + 2]:
            steps.append((ca, cb, s_next))
            steps.append((cb, cc, r))
            steps.append((cc, cd, s_next))
        for x, y, rel in steps:
            if not rel.relates(x, y):
                return False, sigma
        # the middle block of the parent stage links the two child spans
        if not r.relates(b, c):
            return False, sigma
        if not joined.relates(a, d):
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
    if not 0 <= m <= GRID_MAX:
        raise DepthLimit(m, GRID_MAX)
    scale = 3**m
    spans = []
    for l, u in x.blocks:
        for endpoint in (l, u):
            if (endpoint * scale).denominator != 1:
                raise GridTooCoarse(endpoint, m)
        spans.append((int(l * scale), int(u * scale)))
    points = tuple(Fraction(k, scale) for k in range(scale + 1))
    # grid index k is labelled k - merged, where merged counts the points
    # folded into earlier runs
    labels, merged, start = [], 0, 0
    for lo, hi in spans:
        labels.extend(range(start - merged, lo - merged))
        labels.extend([lo - merged] * (hi - lo + 1))
        merged += hi - lo
        start = hi + 1
    labels.extend(range(start - merged, scale + 1 - merged))
    return EqRel._from_labels(points, labels)


# ---------------------------------------------------------------------------
# order-dense chain witnesses


def dense_chain_witness(n):
    """Strictly shrinking tail-block relations [i/(n+1), 1], i = 1..n.

    As relations the witnesses strictly decrease, so the dual subalgebras
    strictly increase; between any two consecutive witnesses the midpoint
    constructor builds a further one, which is the finite stage of an
    order-dense chain.
    """
    if n < 2:
        raise BadParameters("need at least two witnesses")
    return [TriRel(((Fraction(i, n + 1), ONE),)) for i in range(1, n + 1)]


def midpoint_witness(x, y):
    """A tail-block relation strictly between two nested tail-block ones."""
    lx, ly = _tail_start(x), _tail_start(y)
    if lx == ly:
        raise BadParameters("witnesses coincide")
    mid = (lx + ly) / 2
    return TriRel(((mid, ONE),))


def _tail_start(x):
    if len(x.blocks) != 1 or x.blocks[0][1] != ONE:
        raise BadParameters("not a tail-block relation [x, 1]")
    return x.blocks[0][0]
