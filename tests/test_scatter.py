import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cstardom.errors import BadParameters, ParseError, SizeLimit
from cstardom.order import iter_bits, upsets
from cstardom.scatter import (
    FinTop,
    OrdinalCNF,
    cb_derivative_ord,
    cb_rank_fin,
    cb_rank_ord,
    is_hausdorff_fin,
    is_stonean_fin,
    kq_chain_witness,
    ordinal_interval_topology,
    stone_scattered_check,
)
from test_partitions import from_pairs_by_buckets


def sierpinski():
    return FinTop(["a", "b"], [set(), {"a"}, {"a", "b"}])


def discrete_topology(points):
    return FinTop._from_masks(points, [1 << i for i in range(len(points))])


def indiscrete_topology(points):
    return FinTop._from_masks(points, [(1 << len(points)) - 1] * len(points))


def is_scattered(topology):
    return not cb_rank_fin(topology)[1]


def closed_under_union_and_intersection(family):
    family = set(family)
    while True:
        closed = {a | b for a in family for b in family} | {a & b for a in family for b in family}
        if closed <= family:
            return family
        family |= closed


def random_topology(rng, n):
    """Random open family: random basis closed under union/intersection."""
    subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    opens = {frozenset(), frozenset(range(n))}
    for _ in range(rng.randint(0, n + 2)):
        opens.add(rng.choice(subsets))
    opens = closed_under_union_and_intersection(opens)
    labels = [str(i) for i in range(n)]
    return FinTop(labels, [{labels[i] for i in o} for o in opens])


# Reference routes over the explicit open family, by the definitions; the
# library answers these from each point's minimal open.


def isolated_points(topology):
    return frozenset(x for x in range(topology.n) if topology.up[x] == 1 << x)


def stages_by_subspaces(topology):
    """The per-step derivative loop: ``(rank, residue, stages)``, with a
    relabelled subspace built at every step and each point's isolation
    stage and clopen flag read off it.  The reference for the one mask
    walk behind cb_rank_fin and stone_scattered_check."""
    current, rank, stages = topology, 0, {}
    while current.n > 0:
        isolated = isolated_points(current)
        if not isolated:
            return rank, frozenset(current.points), stages
        for i in isolated:
            stages[current.points[i]] = (rank, current.closure({i}) == {i})
        current = current.subspace(set(range(current.n)) - isolated)
        rank += 1
    return rank, frozenset(), stages


def scattered_by_closed_sets(topology):
    """Every nonempty closed set has a point isolated in it."""
    full = frozenset(range(topology.n))
    for open_mask in upsets(topology.up):
        closed = full - frozenset(iter_bits(open_mask))
        if closed and not isolated_points(topology.subspace(closed)):
            return False
    return True


def family_validator(n, family):
    """Bounds present, then closure under every pairwise union and intersection."""
    if frozenset() not in family or frozenset(range(n)) not in family:
        raise BadParameters("opens must include the empty set and the full set")
    for a, b in itertools.combinations(family, 2):
        if a | b not in family or a & b not in family:
            raise BadParameters(f"opens not closed: {sorted(a)}, {sorted(b)}")


def hausdorff_by_open_pairs(n, family):
    return all(
        any(x in u and y in v and not u & v for u in family for v in family)
        for x, y in itertools.combinations(range(n), 2)
    )


def closure_by_avoided_opens(n, family, subset):
    avoid = frozenset().union(*(o for o in family if not o & subset))
    return frozenset(range(n)) - avoid


def stonean_over_all_opens(n, family):
    return all(closure_by_avoided_opens(n, family, o) in family for o in family)


def components_by_minimal_opens(top):
    """Reference components: the classes of the equivalence generated by
    "y lies in the minimal open of x", ordered by least point."""
    pairs = [(x, y) for x in range(top.n) for y in iter_bits(top.up[x])]
    return [frozenset(c) for c in from_pairs_by_buckets(range(top.n), pairs).classes]


def components_by_clopens(n, family):
    full = frozenset(range(n))
    clopens = [o for o in family if full - o in family]
    components = []
    seen = set()
    for x in range(n):
        if x not in seen:
            component = full.intersection(*(c for c in clopens if x in c))
            components.append(component)
            seen |= component
    return components


@st.composite
def preorders(draw, max_size=9):
    """Minimal-open masks of a random preorder on at most ``max_size``
    points, the empty space included: up to 3n random pairs (x, y), each
    putting y in up[x], then closed under ``y in up[x]`` implies
    ``up[y] within up[x]``.  Cycles make some preorders not T0."""
    n = draw(st.integers(0, max_size))
    up = [1 << x for x in range(n)]
    if n:
        points = st.integers(0, n - 1)
        for x, y in draw(st.lists(st.tuples(points, points), max_size=3 * n)):
            up[x] |= 1 << y
    changed = True
    while changed:
        changed = False
        for x in range(n):
            closed = up[x]
            for y in iter_bits(up[x]):
                closed |= up[y]
            if closed != up[x]:
                up[x], changed = closed, True
    return up


@st.composite
def open_families(draw):
    """Random families on at most 5 points, valid or not, T0 or not."""
    n = draw(st.integers(0, 5))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    family = {frozenset(i for i in range(n) if m >> i & 1) for m in masks}
    if draw(st.booleans()):
        family |= {frozenset(), frozenset(range(n))}
    if draw(st.booleans()):
        family = closed_under_union_and_intersection(family)
    return n, family


class TestMaskRouteMatchesOpenFamilies:
    @settings(max_examples=300, deadline=None)
    @given(open_families())
    def test_same_decision_and_answers(self, case):
        n, family = case
        labels = [f"p{i}" for i in range(n)]
        try:
            family_validator(n, family)
        except BadParameters:
            with pytest.raises(BadParameters):
                FinTop(labels, [{labels[i] for i in o} for o in family])
            return
        top = FinTop(labels, [{labels[i] for i in o} for o in family])
        assert top.opens == family
        assert is_hausdorff_fin(top) == hausdorff_by_open_pairs(n, family)
        assert is_stonean_fin(top) == stonean_over_all_opens(n, family)
        # total disconnectedness, which topo check reads off the Hausdorff test
        assert is_hausdorff_fin(top) == all(len(c) == 1 for c in components_by_clopens(n, family))
        for size in range(n + 1):
            for subset in itertools.combinations(range(n), size):
                subset = frozenset(subset)
                assert top.is_open(subset) == (subset in family)
                assert top.closure(subset) == closure_by_avoided_opens(n, family, subset)

    def test_references_can_fail(self):
        # the Sierpinski space, and a 3-point space whose open {0} has the
        # closure {0, 2}, which is not open
        n, family = 2, {frozenset(), frozenset({0}), frozenset({0, 1})}
        assert not hausdorff_by_open_pairs(n, family)
        assert components_by_clopens(n, family) == [frozenset({0, 1})]
        assert closure_by_avoided_opens(n, family, frozenset({0})) == frozenset({0, 1})
        opens = [(), (0,), (1,), (0, 1), (0, 1, 2)]
        assert not stonean_over_all_opens(3, {frozenset(o) for o in opens})
        with pytest.raises(BadParameters):
            family_validator(3, {frozenset(o) for o in opens if o != (0, 1)})


class TestFinTop:
    def test_validator_requires_bounds(self):
        with pytest.raises(BadParameters):
            FinTop(["a"], [set()])

    def test_validator_requires_union_closure(self):
        with pytest.raises(BadParameters):
            FinTop(["a", "b", "c"], [set(), {"a"}, {"b"}, {"a", "b", "c"}])

    def test_closure_operator(self):
        top = sierpinski()
        assert top.closure({0}) == frozenset({0, 1})
        assert top.closure({1}) == frozenset({1})

    def test_subspace(self):
        sub = sierpinski().subspace({1})
        assert sub.n == 1 and sub.points == ("b",)

    def test_subspace_with_integer_labels(self):
        # positions of the parent space must not be read as the subspace's labels
        assert scattered_by_closed_sets(ordinal_interval_topology(8)) is True
        ints = FinTop([1, 2, 0], [[], [0], [2, 0], [1, 2, 0]])
        strings = FinTop(["1", "2", "0"], [[], ["0"], ["2", "0"], ["1", "2", "0"]])
        assert cb_rank_fin(ints) == cb_rank_fin(strings) == (3, frozenset())

    @pytest.mark.parametrize("index", [2, -1, "a"])
    def test_queries_reject_unknown_indices(self, index):
        for query in (sierpinski().is_open, sierpinski().closure):
            with pytest.raises(BadParameters):
                query({0, index})

    def test_opens_are_read_as_labels(self):
        top = FinTop([1, 2], [[], [1], [1, 2]])
        assert top.up == (0b01, 0b11)
        with pytest.raises(BadParameters):
            FinTop([1, 2], [[], [0], [0, 1]])
        with pytest.raises(BadParameters):
            FinTop(["a", "b"], [[], [0], [0, 1]])


class TestDerivatives:
    def test_discrete_derivative_empty(self):
        assert cb_rank_fin(discrete_topology("abc")) == (1, frozenset())

    def test_indiscrete_fixed(self):
        assert cb_rank_fin(indiscrete_topology("ab")) == (0, frozenset("ab"))

    def test_sierpinski_step(self):
        stages = stone_scattered_check(sierpinski()).stages
        assert [p for p, (stage, _) in stages.items() if stage >= 1] == ["b"]

    def test_ranks(self):
        assert cb_rank_fin(discrete_topology("abcd")) == (1, frozenset())
        rank, residue = cb_rank_fin(indiscrete_topology("ab"))
        assert residue == frozenset("ab")
        assert cb_rank_fin(sierpinski()) == (2, frozenset())

    def test_scattered_flags(self):
        assert is_scattered(sierpinski())
        assert not is_scattered(indiscrete_topology("ab"))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_rank_iteration_matches_closed_set_definition(self, seed, n):
        top = random_topology(random.Random(seed), n)
        assert is_scattered(top) == scattered_by_closed_sets(top)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_derivative_strictly_shrinks_scattered_spaces(self, seed, n):
        # every step of a scattered space removes a point, and every point
        # is removed at some step
        top = random_topology(random.Random(seed), n)
        report = stone_scattered_check(top)
        if report.scattered:
            assert len(report.stages) == top.n
            assert {stage for stage, _ in report.stages.values()} == set(range(report.rank))

    @settings(max_examples=300, deadline=None)
    @given(preorders())
    def test_one_walk_matches_the_subspace_loop(self, up):
        labels = [f"p{i}" for i in range(len(up))]
        top = FinTop._from_masks(labels, up)
        rank, residue, stages = stages_by_subspaces(top)
        report = stone_scattered_check(top)
        assert cb_rank_fin(top) == (rank, residue) == (report.rank, report.residue)
        assert report.stages == stages
        assert report.scattered == (not residue) == scattered_by_closed_sets(top)

    def test_one_walk_on_ordinal_intervals(self):
        for value in range(11):
            top = ordinal_interval_topology(value)
            rank, residue, stages = stages_by_subspaces(top)
            report = stone_scattered_check(top)
            assert cb_rank_fin(top) == (rank, residue) == (1, frozenset())
            assert report.stages == stages


class TestSeparation:
    def test_discrete_all_three(self):
        top = discrete_topology("abc")
        assert is_hausdorff_fin(top)
        assert is_stonean_fin(top)
        assert components_by_minimal_opens(top) == [frozenset({x}) for x in range(3)]

    def test_indiscrete_profile(self):
        top = indiscrete_topology("ab")
        assert is_stonean_fin(top)
        assert components_by_minimal_opens(top) == [frozenset({0, 1})]
        assert not is_hausdorff_fin(top)

    def test_sierpinski_is_stonean(self):
        assert is_stonean_fin(sierpinski())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_finite_hausdorff_is_discrete(self, seed, n):
        top = random_topology(random.Random(seed), n)
        if is_hausdorff_fin(top):
            assert len(top.opens) == 2**top.n

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_scattered_hausdorff_implies_totally_disconnected(self, seed, n):
        top = random_topology(random.Random(seed), n)
        if is_scattered(top) and is_hausdorff_fin(top):
            assert all(len(c) == 1 for c in components_by_minimal_opens(top))

    def test_components_partition_the_space(self):
        top = indiscrete_topology("ab")
        assert components_by_minimal_opens(top) == components_by_clopens(2, top.opens)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_components_match_the_bucketed_checked_build(self, seed, n):
        # each minimal open is connected, so the Hausdorff test, which topo
        # check also reports as total disconnectedness, holds exactly when
        # every component of the bucketed build is a singleton
        top = random_topology(random.Random(seed), n)
        components = components_by_minimal_opens(top)
        assert components == components_by_clopens(top.n, top.opens)
        assert is_hausdorff_fin(top) == all(len(c) == 1 for c in components)


class TestStoneScattered:
    def test_discrete_all_stage_zero(self):
        report = stone_scattered_check(discrete_topology("abcd"))
        assert report.ok
        assert all(stage == 0 for stage, _ in report.stages.values())

    def test_sierpinski_stages(self):
        report = stone_scattered_check(sierpinski())
        assert report.ok
        assert report.stages["a"][0] == 0
        assert report.stages["b"][0] == 1

    def test_indiscrete_fails(self):
        report = stone_scattered_check(indiscrete_topology("ab"))
        assert not report.ok and not report.scattered


class TestOrdinalParsing:
    def test_grammar(self):
        alpha = OrdinalCNF.parse("w^2*2+w*3+5")
        assert alpha.terms == ((2, 2), (1, 3), (0, 5))
        assert str(alpha) == "w^2*2+w*3+5"

    def test_shorthand_terms(self):
        assert OrdinalCNF.parse("w").terms == ((1, 1),)
        assert OrdinalCNF.parse("w*3").terms == ((1, 3),)
        assert OrdinalCNF.parse("w^4").terms == ((4, 1),)
        assert OrdinalCNF.parse("0").terms == ()

    def test_round_trip(self):
        for text in ["0", "7", "w", "w+1", "w^3*2+w^2+4"]:
            assert str(OrdinalCNF.parse(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            OrdinalCNF.parse("omega")

    def test_rejects_non_canonical(self):
        with pytest.raises(BadParameters):
            OrdinalCNF.parse("w+w^2")

    def test_exponent_guard(self):
        with pytest.raises(SizeLimit) as info:
            OrdinalCNF.parse("w^10")
        assert str(info.value) == "ordinal exponent = 10 exceeds the supported limit 9"
        assert OrdinalCNF(((0, 1),)) == OrdinalCNF.from_int(1)
        with pytest.raises(SizeLimit) as info:
            OrdinalCNF(((-1, 1),))
        assert str(info.value) == "ordinal exponent = -1 is below the supported minimum 0"


class TestOrdinalDerivative:
    def test_omega_leaves_a_point(self):
        derived = cb_derivative_ord(OrdinalCNF.parse("w"))
        assert derived is not None and derived.is_zero

    def test_finite_vanishes(self):
        assert cb_derivative_ord(OrdinalCNF.parse("5")) is None

    def test_mixed_example(self):
        derived = cb_derivative_ord(OrdinalCNF.parse("w^2*2+w*3"))
        assert str(derived) == "w*2+3"

    def test_ranks(self):
        assert cb_rank_ord(OrdinalCNF.parse("w")) == 2
        assert cb_rank_ord(OrdinalCNF.parse("w^2")) == 3
        assert cb_rank_ord(OrdinalCNF.parse("7")) == 1
        assert cb_rank_ord(OrdinalCNF(())) == 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 3)),
            min_size=1,
            max_size=3,
        )
    )
    def test_rank_is_leading_exponent_plus_one(self, raw_terms):
        exponents = sorted({e for e, _ in raw_terms}, reverse=True)
        terms = tuple((e, dict(raw_terms)[e]) for e in exponents)
        alpha = OrdinalCNF(terms)
        assert cb_rank_ord(alpha) == alpha.leading_exponent() + 1

    def test_boundary_case(self):
        assert cb_rank_ord(OrdinalCNF(((5, 3),))) == 6

    @pytest.mark.parametrize("value", [0, 1, 4, 7])
    def test_finite_ordinals_match_explicit_spaces(self, value):
        alpha = OrdinalCNF.from_int(value)
        top = ordinal_interval_topology(value)
        assert len(top.opens) == 2 ** (value + 1)
        assert cb_rank_fin(top) == (1, frozenset())
        assert cb_rank_ord(alpha) == 1


class TestKqChain:
    def test_named_example(self):
        report = kq_chain_witness(
            4, 3, rationals=[Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        )
        assert report.ok
        assert [len(s) for s in report.sets] == [2, 3, 4]

    def test_two_set_chain(self):
        report = kq_chain_witness(5, 2)
        assert report.ok and len(report.sets) == 2

    def test_duals_reverse(self):
        report = kq_chain_witness(6, 3)
        for earlier, later in zip(report.eqrels, report.eqrels[1:]):
            assert earlier.refines(later) and earlier != later

    def test_all_members_closed(self):
        # the library does not check this: every witness set holds the limit
        # point, and every such set is closed, its complement being isolated
        m = 7
        report = kq_chain_witness(m, 4)
        up = [1 << i for i in range(m)] + [(1 << (m + 1)) - 1]
        space = FinTop._from_masks(report.points, up)
        assert all(space.closure(s) == s for s in report.sets)
        assert report.strictly_increasing

    def test_rationals_between_the_same_labels_do_not_increase(self):
        report = kq_chain_witness(2, 2, rationals=[Fraction(1, 10), Fraction(1, 5)])
        assert not report.strictly_increasing and not report.ok

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            kq_chain_witness(2, 3)
        with pytest.raises(BadParameters):
            kq_chain_witness(4, 2, rationals=[Fraction(1, 2), Fraction(1, 3)])
