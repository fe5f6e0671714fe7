import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cstardom.cantor import (
    CHAIN_MAX,
    DIAGONAL,
    FULL,
    GRID_MAX,
    MAX_DEPTH,
    TriRel,
    _chain_level,
    _stage_level,
    _stages,
    dense_chain_witness,
    is_full,
    max_offdiag_width,
    midpoint_witness,
    relation_R,
    relation_S,
    sample_to_grid,
    tri_join,
    verify_counterexample,
)
from cstardom.errors import AssertionFailed, BadParameters, GridTooCoarse, SizeLimit
from cstardom.partitions import EqRel, join as eqrel_join


def F(a, b=1):
    return Fraction(a, b)


def tri(blocks):
    """The relation with the given rational blocks, built from their
    numerators over the lcm of their denominators."""
    blocks = [(F(l), F(u)) for l, u in blocks]
    den = math.lcm(*(end.denominator for block in blocks for end in block))
    return TriRel(den, [(int(l * den), int(u * den)) for l, u in blocks])


def relates(rel, x, y):
    """Whether the rationals x and y are related, through ``_relates``."""
    den = math.lcm(x.denominator, y.denominator)
    return rel._relates(int(x * den), int(y * den), den)


def block_containing(rel, x):
    """The block holding the rational x, through ``_find``, or None."""
    i = rel._find(x.numerator, x.denominator)
    return rel.blocks[i] if i >= 0 else None


@st.composite
def triadic_relations(draw, resolution=3):
    """Random block relation with endpoints on the 3^resolution grid."""
    grid = 3**resolution
    cuts = draw(
        st.lists(st.integers(0, grid), min_size=0, max_size=8, unique=True)
    )
    cuts = sorted(cuts)
    blocks = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        if a < b:
            blocks.append((F(a, grid), F(b, grid)))
    return tri(blocks)


def scan_block_containing(rel, x):
    """Reference: the linear scan over all blocks."""
    for l, u in rel.blocks:
        if l <= x <= u:
            return (l, u)
    return None


def scan_relates(rel, x, y):
    return x == y or any(l <= x <= u and l <= y <= u for l, u in rel.blocks)


def scan_contains(rel, other):
    return all(
        any(l <= ol and ou <= u for l, u in rel.blocks) for ol, ou in other.blocks
    )


def probe_points(rel):
    """Endpoints, gap midpoints, 0, 1, and points outside [0, 1]."""
    points = {F(0), F(1), F(-1), F(2), F(1, 2)}
    ends = sorted({p for block in rel.blocks for p in block} | {F(0), F(1)})
    points.update(ends)
    points.update((p + q) / 2 for p, q in zip(ends, ends[1:]))
    return sorted(points)


def midpoint_witnesses(n):
    chain = dense_chain_witness(n)
    return [midpoint_witness(a, b) for a, b in zip(chain, chain[1:])]


# triadic relations mixed with the chain witnesses' i/(n+1) endpoints and
# their midpoints' 2(n+1) denominators
relations_for_lookup = st.one_of(
    triadic_relations(),
    triadic_relations(1),
    st.integers(2, 12).flatmap(lambda n: st.sampled_from(dense_chain_witness(n))),
    st.integers(2, 12).flatmap(lambda n: st.sampled_from(midpoint_witnesses(n))),
)


def sorted_sweep(x, y):
    """Reference join: sort all Fraction blocks, then merge overlapping or
    touching ones."""
    merged = []
    for l, u in sorted(x.blocks + y.blocks):
        if merged and l <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], u)
        else:
            merged.append([l, u])
    return tuple((l, u) for l, u in merged)


class TestBisectLookup:
    @settings(max_examples=80, deadline=None)
    @given(relations_for_lookup, relations_for_lookup)
    def test_lookups_match_linear_scans(self, rel, other):
        points = probe_points(rel) + probe_points(other)
        for x in points:
            assert block_containing(rel, x) == scan_block_containing(rel, x)
            for y in points:
                assert relates(rel, x, y) == scan_relates(rel, x, y)
        assert rel.contains(other) == scan_contains(rel, other)
        assert other.contains(rel) == scan_contains(other, rel)

    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_stage_relations_match_linear_scans(self, depth):
        r, s = relation_R(depth), relation_S(depth)
        points = probe_points(r) + probe_points(s)
        for rel in (r, s, tri_join(r, s), DIAGONAL, FULL):
            for x in points:
                assert block_containing(rel, x) == scan_block_containing(rel, x)
                for y in points:
                    assert relates(rel, x, y) == scan_relates(rel, x, y)
            for other in (r, s, DIAGONAL, FULL):
                assert rel.contains(other) == scan_contains(rel, other)


def stage_intervals(sigma):
    """The four stage endpoints (a, b, c, d) for a binary string, one
    string character at a time: [a, b] and [c, d] are the closed outer
    thirds of [a, d], kept as the 0 and 1 children.  The reference for
    ``_stage_level``."""
    if any(ch not in "01" for ch in sigma):
        raise BadParameters(f"stage index {sigma!r} is not a binary string")
    a, b, c, d = F(0), F(1, 3), F(2, 3), F(1)
    for ch in sigma:
        if ch == "0":
            a, b, c, d = a, a + (b - a) / 3, b - (b - a) / 3, b
        else:
            a, b, c, d = c, c + (d - c) / 3, d - (d - c) / 3, d
    return a, b, c, d


class TestStageIntervals:
    def test_root(self):
        assert stage_intervals("") == (F(0), F(1, 3), F(2, 3), F(1))

    def test_left_child(self):
        assert stage_intervals("0") == (F(0), F(1, 9), F(2, 9), F(1, 3))

    def test_right_child(self):
        assert stage_intervals("1") == (F(2, 3), F(7, 9), F(8, 9), F(1))

    def test_rejects_non_binary(self):
        with pytest.raises(BadParameters):
            stage_intervals("02")

    @pytest.mark.parametrize("depth", range(11))
    def test_endpoint_sanity_and_span(self, depth):
        for bits in itertools.product("01", repeat=depth):
            a, b, c, d = stage_intervals("".join(bits))
            assert F(0) <= a < b < c < d <= F(1)
            assert d - a == F(1, 3**depth)


    @pytest.mark.parametrize("length", range(9))
    def test_stage_level_matches_stage_intervals(self, length):
        # _stage_level gives numerators over 3^(length+1)
        den = 3 ** (length + 1)
        assert [tuple(F(x, den) for x in stage) for stage in _stage_level(length)] == [
            stage_intervals(s) for s in _stages(length)
        ]


class TestRelationConstruction:
    def test_s1_blocks(self):
        assert relation_S(1).blocks == ((F(0), F(1, 3)), (F(2, 3), F(1)))

    def test_s2_matches_ninths(self):
        expected = ((F(0), F(1, 9)), (F(2, 9), F(3, 9)), (F(6, 9), F(7, 9)), (F(8, 9), F(1)))
        assert relation_S(2).blocks == expected

    def test_r1_blocks(self):
        assert relation_R(1).blocks == (
            (F(1, 9), F(2, 9)),
            (F(1, 3), F(2, 3)),
            (F(7, 9), F(8, 9)),
        )

    def test_r_block_count(self):
        assert len(relation_R(6).blocks) == 127
        for depth in range(7):
            assert len(relation_R(depth).blocks) == 2 ** (depth + 1) - 1

    def test_s_zero_is_full(self):
        assert is_full(relation_S(0))

    def test_depth_limit(self):
        with pytest.raises(SizeLimit):
            relation_R(11)
        with pytest.raises(SizeLimit):
            relation_S(-1)

    def test_at_and_past_the_depth_limit(self):
        assert len(relation_R(MAX_DEPTH).blocks) == 2 ** (MAX_DEPTH + 1) - 1
        assert len(relation_S(MAX_DEPTH).blocks) == 2**MAX_DEPTH
        for build in (relation_R, relation_S):
            with pytest.raises(SizeLimit) as info:
                build(MAX_DEPTH + 1)
            assert (info.value.value, info.value.limit) == (MAX_DEPTH + 1, MAX_DEPTH)

    @pytest.mark.parametrize(
        "build, what, limit",
        [
            (relation_R, "depth", MAX_DEPTH),
            (relation_S, "depth", MAX_DEPTH),
            (verify_counterexample, "depth", MAX_DEPTH),
            (lambda m: sample_to_grid(FULL, m), "grid resolution", GRID_MAX),
        ],
        ids=["relation_R", "relation_S", "verify_counterexample", "sample_to_grid"],
    )
    def test_below_the_minimum_depth(self, build, what, limit):
        build(0)
        with pytest.raises(SizeLimit) as info:
            build(-1)
        assert (info.value.value, info.value.minimum, info.value.limit) == (-1, 0, limit)
        assert str(info.value) == f"{what} = -1 is below the supported minimum 0"
        with pytest.raises(SizeLimit) as info:
            build(limit + 1)
        assert str(info.value) == f"{what} = {limit + 1} exceeds the supported limit {limit}"

    @pytest.mark.parametrize("n", range(9))
    def test_s_family_nests(self, n):
        assert relation_S(n + 1).blocks != relation_S(n).blocks
        assert relation_S(n).contains(relation_S(n + 1))

    def test_touching_blocks_rejected(self):
        with pytest.raises(BadParameters):
            tri([(F(0), F(1, 3)), (F(1, 3), F(1, 2))])

    def test_degenerate_block_rejected(self):
        with pytest.raises(BadParameters):
            tri([(F(1, 2), F(1, 2))])

    def test_unsorted_blocks_are_sorted(self):
        rel = TriRel(3, [(2, 3), (0, 1)])
        assert rel._pairs == ((0, 1), (2, 3))
        assert rel.blocks == ((F(0), F(1, 3)), (F(2, 3), F(1)))
        assert all(type(end) is Fraction for block in rel.blocks for end in block)

    def test_unsorted_touching_blocks_rejected(self):
        with pytest.raises(BadParameters, match="touching at 1/3"):
            tri([(F(1, 3), F(1, 2)), (F(0), F(1, 3))])


class TestJoinMeet:
    def test_join_r1_s1_is_full(self):
        assert is_full(tri_join(relation_R(1), relation_S(1)))

    def test_join_with_diagonal(self):
        r = relation_R(2)
        assert tri_join(r, DIAGONAL) == r

    def test_join_nested(self):
        assert tri_join(relation_S(2), relation_S(1)) == relation_S(1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_width_is_exact_power(self, n):
        assert max_offdiag_width(relation_S(n)) == F(1, 3**n)

    def test_width_of_diagonal(self):
        assert max_offdiag_width(DIAGONAL) == 0

    def test_is_full(self):
        assert is_full(FULL)
        assert not is_full(relation_R(1))
        # a block [0, 1/3] is stored as (0, 1) over 3
        assert not is_full(tri([(0, F(1, 3))]))
        assert is_full(tri_join(relation_R(1), relation_S(1)))

    @settings(max_examples=60, deadline=None)
    @given(triadic_relations(), triadic_relations())
    def test_join_commutative_idempotent(self, x, y):
        assert tri_join(x, y) == tri_join(y, x)
        assert tri_join(x, x) == x
        assert tri_join(x, y).contains(x)

    @settings(max_examples=40, deadline=None)
    @given(triadic_relations(), triadic_relations(), triadic_relations())
    def test_join_associative_and_monotone(self, x, y, z):
        assert tri_join(tri_join(x, y), z) == tri_join(x, tri_join(y, z))
        if y.contains(x):
            assert tri_join(y, z).contains(tri_join(x, z))

    @settings(max_examples=60, deadline=None)
    @given(triadic_relations(), triadic_relations())
    def test_join_matches_the_sorted_sweep(self, x, y):
        assert tri_join(x, y).blocks == sorted_sweep(x, y)

    @settings(max_examples=100, deadline=None)
    @given(relations_for_lookup, relations_for_lookup)
    def test_join_matches_the_sorted_sweep_across_denominators(self, x, y):
        joined = tri_join(x, y)
        assert joined.blocks == sorted_sweep(x, y)
        assert joined == tri(sorted_sweep(x, y))

    @settings(max_examples=50, deadline=None)
    @given(triadic_relations(2), triadic_relations(2))
    def test_join_matches_grid_oracle(self, x, y):
        resolution = 2
        sampled = sample_to_grid(tri_join(x, y), resolution)
        joined = eqrel_join(sample_to_grid(x, resolution), sample_to_grid(y, resolution))
        assert sampled == joined


class TestCanonicalForm:
    def test_join_through_ninths_is_full(self):
        # R_1 and S_1 are stored over 9 and 3; their join reduces to [0, 1]
        joined = tri_join(relation_R(1), relation_S(1))
        assert joined == FULL and hash(joined) == hash(FULL)
        assert (joined.den, joined._pairs) == (1, ((0, 1),))

    def test_unreduced_endpoints(self):
        rel = TriRel(9, ((3, 6),))
        assert rel == relation_R(0) and hash(rel) == hash(relation_R(0))
        assert rel.den == 3
        scaled = TriRel(27, ((9, 18),))
        assert scaled == rel and hash(scaled) == hash(rel) and scaled.den == 3

    @settings(max_examples=60, deadline=None)
    @given(relations_for_lookup, st.integers(2, 30))
    def test_any_common_denominator_gives_the_same_relation(self, rel, k):
        scaled = TriRel(rel.den * k, tuple((l * k, u * k) for l, u in rel._pairs))
        assert scaled == rel and hash(scaled) == hash(rel)
        assert (scaled.den, scaled._pairs) == (rel.den, rel._pairs)
        assert scaled.blocks == rel.blocks

    @settings(max_examples=60, deadline=None)
    @given(relations_for_lookup)
    def test_denominator_is_the_lcm_of_the_endpoint_denominators(self, rel):
        assert rel.den == math.lcm(*(end.denominator for block in rel.blocks for end in block))
        assert all(F(l, rel.den) == lo and F(u, rel.den) == hi
                   for (l, u), (lo, hi) in zip(rel._pairs, rel.blocks))


class TestCounterexample:
    def test_depth_one(self):
        report = verify_counterexample(1)
        assert report.r_blocks == 3 and len(report.checks) == 4

    def test_depth_zero_vacuous(self):
        report = verify_counterexample(0)
        assert report.r_blocks == 1
        assert [c.name for c in report.checks] == ["join_diagonal_is_r"]

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_mid_depths(self, depth):
        report = verify_counterexample(depth)
        assert len(report.checks) == 3 * depth + 1
        names = [c.name for c in report.checks]
        assert f"join_full:n={depth}" in names
        assert f"chain_level:{depth - 1}" in names

    def test_depth_limit(self):
        with pytest.raises(SizeLimit) as info:
            verify_counterexample(MAX_DEPTH + 1)
        assert (info.value.value, info.value.limit) == (MAX_DEPTH + 1, MAX_DEPTH)

    def test_at_the_depth_limit(self):
        report = verify_counterexample(MAX_DEPTH)
        assert report.r_blocks == 2 ** (MAX_DEPTH + 1) - 1
        assert len(report.checks) == 3 * MAX_DEPTH + 1

    def test_broken_family_aborts_with_the_offending_stage(self, monkeypatch):
        import cstardom.cantor as cantor_module

        # degrade the shrinking family to the diagonal: the very first
        # fullness assertion must abort and name its check
        monkeypatch.setattr(
            cantor_module, "relation_S", lambda n: DIAGONAL
        )
        with pytest.raises(AssertionFailed) as info:
            cantor_module.verify_counterexample(1)
        assert "join_full:n=1" in str(info.value.detail)

    def test_widened_family_member_fails_the_width_check(self, monkeypatch):
        import cstardom.cantor as cantor_module

        # S_1 widened to [0, 1/2], [2/3, 1]: every join stays full, so only
        # the exact 3^-n width check can catch it
        widened = tri([(0, F(1, 2)), (F(2, 3), 1)])
        monkeypatch.setattr(
            cantor_module, "relation_S", lambda n: widened if n == 1 else relation_S(n)
        )
        assert is_full(tri_join(relation_R(2), widened))
        with pytest.raises(AssertionFailed) as info:
            cantor_module.verify_counterexample(2)
        assert info.value.detail == "width_exact:n=1: max width 1/2"

    def test_full_r_fails_the_diagonal_check(self, monkeypatch):
        import cstardom.cantor as cantor_module

        monkeypatch.setattr(cantor_module, "relation_R", lambda depth: FULL)
        with pytest.raises(AssertionFailed) as info:
            cantor_module.verify_counterexample(2)
        assert info.value.detail == "join_diagonal_is_r: 1 block(s)"

    def test_missing_middle_block_breaks_its_stage_chain(self, monkeypatch):
        import cstardom.cantor as cantor_module

        # R_3 without the middle block [7/9, 8/9] of stage "1"; the joins
        # are passed full, as for the intact R, so only R's steps can fail
        broken = tri([b for b in relation_R(3).blocks if b != (F(7, 9), F(8, 9))])
        s1, s2 = relation_S(1), relation_S(2)
        # as the parent stage's middle block at length 1
        assert _chain_level(broken, 1, s2, FULL) == (False, "1")
        # as a child's middle block at length 0
        assert _chain_level(broken, 0, s1, FULL) == (False, "")
        assert _chain_level(relation_R(3), 1, s2, tri_join(relation_R(3), s2)) == (True, None)
        assert _chain_level(broken, 2, relation_S(3), FULL) == (True, None)
        # through the verifier, the join with S_2 is not full and fails first
        monkeypatch.setattr(cantor_module, "relation_R", lambda depth: broken)
        with pytest.raises(AssertionFailed) as info:
            cantor_module.verify_counterexample(3)
        assert str(info.value.detail).startswith("join_full:n=2:")

    def test_builds_each_family_member_once(self, monkeypatch):
        import cstardom.cantor as cantor_module

        built = []

        def counted(n):
            built.append(n)
            return relation_S(n)

        monkeypatch.setattr(cantor_module, "relation_S", counted)
        cantor_module.verify_counterexample(4)
        assert built == [1, 2, 3, 4]

    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_joins_r_with_each_family_member_once(self, monkeypatch, depth):
        import cstardom.cantor as cantor_module

        joined = []

        def counted(x, y):
            joined.append(y)
            return tri_join(x, y)

        monkeypatch.setattr(cantor_module, "tri_join", counted)
        cantor_module.verify_counterexample(depth)
        assert len(joined) == depth + 1

    def test_json_schema(self):
        data = verify_counterexample(2).to_json_dict()
        assert set(data) == {"depth", "r_blocks", "checks"}
        assert all(set(c) == {"name", "pass", "witness"} for c in data["checks"])


class TestGrid:
    def test_s1_on_the_coarse_grid(self):
        sampled = sample_to_grid(relation_S(1), 1)
        nontrivial = [c for c in sampled.classes if len(c) > 1]
        assert nontrivial == [(F(0), F(1, 3)), (F(2, 3), F(1))]

    def test_r1_on_the_ninths_grid(self):
        sampled = sample_to_grid(relation_R(1), 2)
        nontrivial = {c for c in sampled.classes if len(c) > 1}
        assert nontrivial == {
            (F(1, 9), F(2, 9)),
            (F(3, 9), F(4, 9), F(5, 9), F(6, 9)),
            (F(7, 9), F(8, 9)),
        }

    def test_join_functorial_at_sufficient_resolution(self):
        r, s = relation_R(1), relation_S(1)
        sampled = sample_to_grid(tri_join(r, s), 2)
        assert sampled == eqrel_join(sample_to_grid(r, 2), sample_to_grid(s, 2))
        assert len(sampled.classes) == 1

    @settings(max_examples=60, deadline=None)
    @given(triadic_relations(2), st.integers(2, 4))
    def test_matches_union_find_over_grid_neighbours(self, x, m):
        points = [F(k, 3**m) for k in range(3**m + 1)]
        pairs = []
        for l, u in x.blocks:
            inside = [p for p in points if l <= p <= u]
            pairs.extend(zip(inside, inside[1:]))
        assert sample_to_grid(x, m) == EqRel.from_pairs(points, pairs)

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            sample_to_grid(relation_S(2), 1)

    @pytest.mark.parametrize(
        "rel, m, endpoint",
        [
            (relation_S(2), 1, F(1, 9)),
            (tri([(0, F(1, 3)), (F(1, 2), 1)]), 1, F(1, 2)),
            (tri([(F(1, 9), F(1, 4))]), 2, F(1, 4)),
            (dense_chain_witness(3)[1], 5, F(1, 2)),
        ],
    )
    def test_too_coarse_names_the_first_endpoint_off_the_grid(self, rel, m, endpoint):
        with pytest.raises(GridTooCoarse) as info:
            sample_to_grid(rel, m)
        assert (info.value.endpoint, info.value.resolution) == (endpoint, m)
        assert str(endpoint) in str(info.value)

    def test_finest_grid_stays_fast(self):
        # 3^8 + 1 = 6562 grid points in one class
        start = time.perf_counter()
        sampled = sample_to_grid(tri([(0, 1)]), GRID_MAX)
        assert len(sampled.ground) == 6562 and len(sampled.classes) == 1
        assert EqRel.diagonal(sampled.ground).refines(sampled)
        assert time.perf_counter() - start < 2.0

    def test_join_of_finest_grids_stays_fast(self):
        # two 6562-point grids, joined by label alone
        start = time.perf_counter()
        x = sample_to_grid(relation_R(4), GRID_MAX)
        y = sample_to_grid(relation_S(4), GRID_MAX)
        joined = eqrel_join(x, y)
        assert joined == sample_to_grid(tri_join(relation_R(4), relation_S(4)), GRID_MAX)
        assert len(joined.ground) == 6562 and len(joined.classes) == 1
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("m", [0, 2, GRID_MAX])
    def test_one_ground_per_resolution(self, m):
        # relations sampled on one grid share its ground tuple, which holds
        # the same points as a freshly built grid
        x, y = sample_to_grid(DIAGONAL, m), sample_to_grid(FULL, m)
        assert x.ground is y.ground
        assert x.ground == tuple(Fraction(k, 3**m) for k in range(3**m + 1))
        if m >= 2:
            assert sample_to_grid(relation_R(1), m).ground is x.ground

    def test_past_the_finest_grid(self):
        for m in (-1, GRID_MAX + 1):
            with pytest.raises(SizeLimit) as info:
                sample_to_grid(FULL, m)
            assert (info.value.value, info.value.limit) == (m, GRID_MAX)


#: starts of tail blocks [a, 1], 0 <= a < 1
tail_starts = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda a: a < 1)


class TestDenseChain:
    def test_two_witnesses(self):
        first, second = dense_chain_witness(2)
        assert first.blocks == ((F(1, 3), F(1)),)
        assert second.blocks == ((F(2, 3), F(1)),)

    def test_three_witnesses(self):
        chain = dense_chain_witness(3)
        assert [w.blocks[0][0] for w in chain] == [F(1, 4), F(2, 4), F(3, 4)]

    @pytest.mark.parametrize("n", range(2, 17))
    def test_strictly_decreasing_with_midpoints(self, n):
        chain = dense_chain_witness(n)
        for earlier, later in zip(chain, chain[1:]):
            assert earlier.contains(later) and earlier != later
            middle = midpoint_witness(earlier, later)
            assert earlier.contains(middle) and middle.contains(later)
            assert middle not in (earlier, later)

    def test_midpoint_of_named_pair(self):
        a = TriRel(3, ((1, 3),))
        b = TriRel(3, ((2, 3),))
        assert midpoint_witness(a, b).blocks == ((F(1, 2), F(1)),)

    @settings(max_examples=200, deadline=None)
    @given(tail_starts, tail_starts)
    def test_midpoint_matches_the_fraction_midpoint(self, a, b):
        # nested tails [a, 1] and [b, 1], in either order
        x, y = tri([(a, 1)]), tri([(b, 1)])
        if a == b:
            with pytest.raises(BadParameters):
                midpoint_witness(x, y)
            return
        middle = midpoint_witness(x, y)
        assert middle.blocks == (((a + b) / 2, F(1)),)
        assert middle == tri([((a + b) / 2, 1)]) == midpoint_witness(y, x)

    def test_midpoint_needs_tails(self):
        with pytest.raises(BadParameters, match="not a tail-block"):
            midpoint_witness(relation_S(1), FULL)
        with pytest.raises(BadParameters, match="not a tail-block"):
            midpoint_witness(FULL, relation_R(0))

    def test_needs_two(self):
        with pytest.raises(SizeLimit) as info:
            dense_chain_witness(1)
        assert (info.value.value, info.value.minimum) == (1, 2)
        assert str(info.value) == "chain witness count = 1 is below the supported minimum 2"

    def test_size_limit(self):
        chain = dense_chain_witness(CHAIN_MAX)
        assert len(chain) == CHAIN_MAX
        assert chain[-1].blocks == ((F(CHAIN_MAX, CHAIN_MAX + 1), F(1)),)
        with pytest.raises(SizeLimit) as info:
            dense_chain_witness(CHAIN_MAX + 1)
        assert info.value.what == "chain witness count"
        assert (info.value.value, info.value.limit) == (CHAIN_MAX + 1, CHAIN_MAX)
