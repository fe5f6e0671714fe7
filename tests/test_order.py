import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cstardom import order
from cstardom.errors import (
    BadParameters,
    ElementNotInPoset,
    NotAntisymmetric,
    NotReflexive,
    NotTransitive,
    SizeLimit,
)
from cstardom.order import (
    FinPoset,
    directed_way_below,
    domain_report,
    hasse_dot,
    random_poset,
    validate_poset,
)
from cstardom.partitions import ORIENT_REFINEMENT, ORIENT_SUBALGEBRA, partition_lattice
from cstardom.scatter import FinTop, cb_rank_fin


def chain(n):
    return validate_poset(
        [str(i) for i in range(n)],
        [[i <= j for j in range(n)] for i in range(n)],
    )


def antichain(n):
    return validate_poset(
        [str(i) for i in range(n)],
        [[i == j for j in range(n)] for i in range(n)],
    )


def mask_of(poset, subset):
    """Bitmask of an iterable of element indices."""
    mask = 0
    for i in subset:
        poset.check_element(i)
        mask |= 1 << i
    return mask


def lub(poset, subset):
    """Least upper bound of ``subset`` (iterable of indices), or None."""
    return poset.lub_mask(mask_of(poset, subset))


def glb(poset, subset):
    return poset.glb_mask(mask_of(poset, subset))


def lub_by_scan(poset, mask):
    """Least upper bound by a scan of the upper bounds for one lying below
    all of them: the reference for the lookup in FinPoset.lub_mask."""
    ubs = poset.upper_bounds_mask(mask)
    for c in order.iter_bits(ubs):
        if ubs & ~poset.up[c] == 0:
            return c
    return None


def glb_by_scan(poset, mask):
    lbs = poset.lower_bounds_mask(mask)
    for c in order.iter_bits(lbs):
        if lbs & ~poset.dn[c] == 0:
            return c
    return None


def first_missing_meet(poset):
    """The first pair i <= j, in row order, that the scan finds no meet for."""
    pairs = ((i, j) for i in range(poset.n) for j in range(i, poset.n))
    return next(([i, j] for i, j in pairs if glb_by_scan(poset, (1 << i) | (1 << j)) is None), None)


def assert_bounds_match_scan(poset):
    """Every lookup against the scan: lub_mask and glb_mask on every mask
    of up to 12 elements (above that, on every mask of at most three
    members, two above 20 elements, and on its complement), the pair
    tables, bottom and top, and the tables of the dual after the poset's
    own lookups have been built."""
    if poset.n <= 12:
        masks = range(poset.full_mask + 1)
    else:
        small = [
            sum(1 << i for i in members)
            for size in range(4 if poset.n <= 20 else 3)
            for members in itertools.combinations(range(poset.n), size)
        ]
        masks = small + [poset.full_mask & ~m for m in small]
    for mask in masks:
        assert poset.lub_mask(mask) == lub_by_scan(poset, mask)
        assert poset.glb_mask(mask) == glb_by_scan(poset, mask)
    meets, joins = poset.meets(), poset.joins()
    for i in range(poset.n):
        for j in range(poset.n):
            pair = (1 << i) | (1 << j)
            assert meets[i][j] == glb_by_scan(poset, pair)
            assert joins[i][j] == lub_by_scan(poset, pair)
    assert poset.bottom() == lub_by_scan(poset, 0)
    assert poset.top() == glb_by_scan(poset, 0)
    dual = poset.dual()
    assert (dual.bottom(), dual.top()) == (poset.top(), poset.bottom())
    for i in range(poset.n):
        for j in range(poset.n):
            assert dual.meets()[i][j] == joins[i][j]
            assert dual.joins()[i][j] == meets[i][j]


def fresh_greechie_square():
    """The Greechie square's order, without the tables validate_omp built:
    an orthomodular poset in which some pairs have no meet."""
    from test_ortho import greechie_square

    poset = greechie_square().poset
    return FinPoset(poset.elements, poset.up)


def omp_fixture_posets():
    from test_ortho import CLOSURE_FIXTURES

    return [
        pytest.param(make().poset, id=name)
        for name, make in sorted(CLOSURE_FIXTURES.items())
    ]


@st.composite
def posets(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_poset(random.Random(seed), n)


@st.composite
def square_tables(draw, max_size=7):
    """Square boolean tables: orders, orders with a few cells flipped, and
    random tables, some made reflexive and antisymmetric so that only
    transitivity can fail."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    kind = draw(st.sampled_from(["order", "flipped", "upper", "random"]))
    if kind in ("order", "flipped"):
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        leq = random_poset(random.Random(seed), n).to_json_dict()["leq"]
        if kind == "flipped":
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                leq[i][j] = not leq[i][j]
        return leq
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    leq = [cells[i * n : (i + 1) * n] for i in range(n)]
    if kind == "upper":
        leq = [[i == j or (i < j and leq[i][j]) for j in range(n)] for i in range(n)]
    return leq


def table_order_faults(leq):
    """The order checks read off the bool table cell by cell: raise the
    first reflexive, then antisymmetric, then transitive fault, scanning
    indices in increasing order.  The reference for the mask-based checks
    of validate_poset."""
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            raise NotReflexive(i)
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAntisymmetric(i, j)
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise NotTransitive(i, j, k)


# Reference implementations by the definitions, over every directed subset
# or every basic open; the library answers these from finiteness alone.


def is_directed_mask(poset, mask):
    """Definitional directedness: every pair has an upper bound inside."""
    if mask == 0:
        return False
    bits = list(order.iter_bits(mask))
    for a in range(len(bits)):
        ua = poset.up[bits[a]]
        for b in range(a, len(bits)):
            if mask & ua & poset.up[bits[b]] == 0:
                return False
    return True


def directed_by_pairs(poset):
    """Every nonempty directed subset with its least upper bound, by a pair
    test on each of the 2^n masks in increasing order: the reference for
    FinPoset.directed_masks."""
    return tuple(
        (mask, poset.lub_mask(mask))
        for mask in range(1, poset.full_mask + 1)
        if is_directed_mask(poset, mask)
    )


# Cap for the order-dense chain search, which scans all 2^n subsets.
FIN_ENUM_MAX = 12


def order_dense_chain(poset):
    """Search for an order-dense chain of at least two elements.

    Returns the chain (as a list of indices) or None.  A finite chain with
    two or more elements always contains a pair that is covering inside
    the chain, so on a finite poset the search always returns None; it is
    the reference the property report's covering-pair argument is tested
    against.
    """
    if poset.n > FIN_ENUM_MAX:
        raise SizeLimit("poset size for chain search", poset.n, FIN_ENUM_MAX)
    for mask in range(1, poset.full_mask + 1):
        bits = list(order.iter_bits(mask))
        if len(bits) < 2:
            continue
        if not _is_chain(poset, bits):
            continue
        if _chain_is_order_dense(poset, mask, bits):
            return bits
    return None


def _is_chain(poset, bits):
    for a in range(len(bits)):
        for b in range(a + 1, len(bits)):
            if not (poset.leq(bits[a], bits[b]) or poset.leq(bits[b], bits[a])):
                return False
    return True


def _chain_is_order_dense(poset, mask, bits):
    for x in bits:
        for z in bits:
            if x != z and poset.leq(x, z):
                between = poset.up[x] & poset.dn[z] & mask & ~(1 << x) & ~(1 << z)
                if between == 0:
                    return False
    return True


def upset(poset, mask):
    out = 0
    for i in order.iter_bits(mask):
        out |= poset.up[i]
    return out


def subset_way_below(poset, g_subset, h_subset):
    """Way-below on nonempty subsets by the finite-stage theorem: G is way
    below H exactly when the up-set of H lies inside the up-set of G."""
    g_mask, h_mask = mask_of(poset, g_subset), mask_of(poset, h_subset)
    assert g_mask and h_mask
    return upset(poset, h_mask) & ~upset(poset, g_mask) == 0


def directed_subset_way_below(poset, g, h):
    """G way below H: every directed D with a sup above some member of H
    has a member above some member of G."""
    up_g, up_h = upset(poset, mask_of(poset, g)), upset(poset, mask_of(poset, h))
    return all(
        sup is None or not up_h >> sup & 1 or mask & up_g
        for mask, sup in poset.directed_masks()
    )


def upsets_by_scan(poset):
    """Every up-closed subset, by scanning all 2^n masks in order."""
    return [
        m
        for m in range(poset.full_mask + 1)
        if all(not poset.up[i] & ~m for i in order.iter_bits(m))
    ]


def lawson_by_basis(poset):
    """Close the basic opens (Scott opens minus up-sets of finite sets)
    under union and intersection."""
    full = poset.full_mask
    scott = upsets_by_scan(poset)
    opens = {u & ~upset(poset, f) for u in scott for f in range(full + 1)} | {0, full}
    frontier = list(opens)
    while frontier:
        m = frontier.pop()
        for o in list(opens):
            for candidate in (m | o, m & o):
                if candidate not in opens:
                    opens.add(candidate)
                    frontier.append(candidate)
    return [frozenset(order.iter_bits(m)) for m in sorted(opens)]


def recheck_witness(poset, prop, witness):
    """Confirm that a witness of domain_report still violates its property.
    Only meet-continuity and atomisticity can fail on a finite poset, so
    only their witnesses exist."""
    if prop == "meet_continuous":
        i, j = witness["pair"]
        return poset.meets()[i][j] is None
    assert prop == "atomistic", prop
    if "not_applicable" in witness:
        return poset.bottom() is None
    approx = mask_of(poset, witness["atoms_below"])
    return poset.lub_mask(approx) != witness["element"]


def meet_distributivity_failure(poset, meet):
    """First (c, D) where c meet sup D differs from the sup of c meet D,
    over every directed D, or None."""
    for mask, sup in poset.directed_masks():
        if sup is None:
            continue
        for c in range(poset.n):
            image = 0
            for d in order.iter_bits(mask):
                image |= 1 << meet[c][d]
            if poset.lub_mask(image) != meet[c][sup]:
                return c, mask
    return None


class TestValidation:
    def test_chain_is_valid(self):
        assert chain(3).n == 3

    def test_not_reflexive(self):
        with pytest.raises(NotReflexive) as info:
            validate_poset(["a", "b"], [[False, False], [False, True]])
        assert info.value.index == 0

    def test_not_antisymmetric(self):
        with pytest.raises(NotAntisymmetric) as info:
            validate_poset(["a", "b"], [[True, True], [True, True]])
        assert info.value.pair == (0, 1)

    def test_not_transitive(self):
        table = [[True, True, False], [False, True, True], [False, False, True]]
        with pytest.raises(NotTransitive) as info:
            validate_poset(["a", "b", "c"], table)
        assert info.value.triple == (0, 1, 2)

    def test_empty_poset_rejected(self):
        with pytest.raises(BadParameters):
            validate_poset([], [])

    def test_non_square_rejected(self):
        with pytest.raises(BadParameters):
            validate_poset(["a"], [[True, False]])

    @settings(max_examples=400, deadline=None)
    @given(square_tables())
    @example([[False, False], [False, True]])
    @example([[True, True], [True, True]])
    @example([[True, True, False], [False, True, True], [False, False, True]])
    def test_witnesses_match_the_table_reference(self, leq):
        elements = [f"e{i}" for i in range(len(leq))]
        try:
            table_order_faults(leq)
        except (NotReflexive, NotAntisymmetric, NotTransitive) as expected:
            with pytest.raises(type(expected)) as info:
                validate_poset(elements, leq)
            assert vars(info.value) == vars(expected)
            assert str(info.value) == str(expected)
        else:
            poset = validate_poset(elements, leq)
            for i, j in itertools.product(range(poset.n), repeat=2):
                assert poset.leq(i, j) == leq[i][j]

    def test_unknown_element(self):
        with pytest.raises(ElementNotInPoset):
            chain(2).index("zzz")
        with pytest.raises(ElementNotInPoset):
            chain(2).leq(0, 5)


class TestBounds:
    def test_lub_of_chain_pair(self):
        assert lub(chain(3), [0, 1]) == 1

    def test_lub_missing_on_antichain(self):
        assert lub(antichain(2), [0, 1]) is None

    def test_lub_empty_is_bottom(self):
        assert lub(chain(3), []) == 0
        assert lub(antichain(2), []) is None

    def test_lub_in_partition_lattice_by_brute_force(self):
        # independent route: scan all upper bounds, insist on a unique least
        poset = partition_lattice(3, ORIENT_REFINEMENT)
        a = poset.index("{1,2}|{3}")
        b = poset.index("{1}|{2,3}")
        ubs = [
            c
            for c in range(poset.n)
            if poset.leq(a, c) and poset.leq(b, c)
        ]
        least = [c for c in ubs if all(poset.leq(c, d) for d in ubs)]
        assert least == [lub(poset, [a, b])]
        assert poset.elements[least[0]] == "{1,2,3}"

    def test_glb_dual(self):
        assert glb(chain(3), [1, 2]) == 1
        assert glb(antichain(2), [0, 1]) is None

    def test_meet_join_tables_match_pairwise_bounds(self):
        from cstardom.ortho import power_set_omp

        rng = random.Random(5)
        cases = [random_poset(rng, rng.randint(1, 9), p) for p in (0.1, 0.35, 0.6) * 4]
        cases.append(power_set_omp(3).poset)
        for poset in cases:
            assert_bounds_match_scan(poset)
            assert poset.meets() is poset.meets() and poset.joins() is poset.joins()

    # e1 <= e0 <= e2: index order is neither a linear extension nor its reverse
    @settings(max_examples=150, deadline=None)
    @given(posets(max_size=9))
    @example(FinPoset(["e0", "e1", "e2"], [0b101, 0b111, 0b100]))
    def test_lookups_match_scan_on_random_posets(self, poset):
        # random_poset draws its edges along a shuffled order of the indices
        assert_bounds_match_scan(poset)

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("orientation", [ORIENT_REFINEMENT, ORIENT_SUBALGEBRA])
    def test_lookups_match_scan_on_partition_lattices(self, k, orientation):
        assert_bounds_match_scan(partition_lattice(k, orientation))

    @pytest.mark.parametrize("poset", omp_fixture_posets())
    def test_lookups_match_scan_on_omp_fixtures(self, poset):
        # validate_omp has built the tables already; compare fresh lookups too
        assert_bounds_match_scan(poset)
        assert_bounds_match_scan(FinPoset(poset.elements, poset.up))


FIXED_POSETS = [
    pytest.param(partition_lattice(k, orientation), id=f"pi{k}-{orientation}")
    for k in range(1, 5)
    for orientation in (ORIENT_REFINEMENT, ORIENT_SUBALGEBRA)
] + [pytest.param(antichain(order.ORACLE_MAX), id="antichain-oracle-max")]


def assert_greatest_elements(poset, directed):
    """Theorem side: a finite directed set holds its sup as its greatest
    element, so the directed sets are the subsets of dn[c] that contain c,
    2^(|dn c| - 1) of them for each c."""
    assert len(directed) == sum(2 ** (bin(d).count("1") - 1) for d in poset.dn)
    masks = [mask for mask, _ in directed]
    assert masks == sorted(set(masks))
    for mask, sup in directed:
        assert sup is not None and mask >> sup & 1 and mask & ~poset.dn[sup] == 0


class TestDirectedSubsets:
    @settings(max_examples=60, deadline=None)
    @given(posets(max_size=10))
    def test_matches_pair_scan_on_random_posets(self, poset):
        assert poset.directed_masks() == directed_by_pairs(poset)

    @pytest.mark.parametrize("poset", FIXED_POSETS)
    def test_matches_pair_scan_on_fixed_posets(self, poset):
        assert poset.directed_masks() == directed_by_pairs(poset)

    @settings(max_examples=60, deadline=None)
    @given(posets(max_size=10))
    def test_sups_are_greatest_elements_on_random_posets(self, poset):
        assert_greatest_elements(poset, poset.directed_masks())

    @pytest.mark.parametrize("poset", FIXED_POSETS)
    def test_sups_are_greatest_elements_on_fixed_posets(self, poset):
        assert_greatest_elements(poset, poset.directed_masks())

    def test_partition_lattice_count_is_pinned(self):
        assert len(partition_lattice(4, ORIENT_SUBALGEBRA).directed_masks()) == 16495


class TestWayBelow:
    def test_chain_examples(self):
        wb = directed_way_below(chain(3))
        assert wb[0] >> 2 & 1
        assert not wb[2] >> 0 & 1

    def test_partition_lattice_all_leq_pairs(self):
        poset = partition_lattice(4, ORIENT_SUBALGEBRA)
        assert poset.n == 15
        oracle = directed_way_below(poset)
        for b in range(poset.n):
            for c in range(poset.n):
                expected = poset.leq(b, c)
                assert bool(oracle[b] >> c & 1) is expected

    def test_methods_agree_on_random_posets(self):
        rng = random.Random(99)
        for _ in range(40):
            poset = random_poset(rng, rng.randint(1, 10))
            assert directed_way_below(poset) == list(poset.up)

    def test_definitional_refuses_large_posets(self):
        limit = antichain(order.ORACLE_MAX)
        assert len(limit.directed_masks()) == limit.n
        assert directed_way_below(limit) == list(limit.up)
        big = antichain(order.ORACLE_MAX + 1)
        with pytest.raises(SizeLimit):
            big.directed_masks()
        with pytest.raises(SizeLimit):
            directed_way_below(big)

    @settings(max_examples=40, deadline=None)
    @given(posets(max_size=8))
    def test_subset_way_below_routes_agree(self, poset):
        rng = random.Random(poset.n * 7919 + poset.up[0])
        for _ in range(12):
            g = rng.sample(range(poset.n), rng.randint(1, poset.n))
            h = rng.sample(range(poset.n), rng.randint(1, poset.n))
            assert subset_way_below(poset, g, h) == directed_subset_way_below(poset, g, h)


def compact_elements(poset):
    """Elements way below themselves, by the directed-subset definition."""
    wb = directed_way_below(poset)
    return [c for c in range(poset.n) if wb[c] >> c & 1]


class TestCompact:
    def test_chain(self):
        assert compact_elements(chain(3)) == [0, 1, 2]

    def test_partition_lattice(self):
        assert compact_elements(partition_lattice(3, ORIENT_SUBALGEBRA)) == list(range(5))

    def test_singleton(self):
        assert compact_elements(chain(1)) == [0]

    @settings(max_examples=30, deadline=None)
    @given(posets())
    def test_every_element_compact(self, poset):
        assert compact_elements(poset) == list(range(poset.n))


class TestTopologies:
    def test_scott_opens_of_two_chain(self):
        assert sorted(order.upsets(chain(2).up)) == [0b00, 0b10, 0b11]

    def test_scott_opens_of_antichain(self):
        assert len(order.upsets(antichain(3).up)) == 8

    def test_scott_opens_are_up_sets_meeting_directed_sups(self):
        # definitional recheck of the Scott condition
        poset = partition_lattice(3, ORIENT_REFINEMENT)
        directed = poset.directed_masks()
        for mask in order.upsets(poset.up):
            for i in order.iter_bits(mask):
                assert poset.up[i] & ~mask == 0
            for dmask, sup in directed:
                if sup is not None and mask >> sup & 1:
                    assert dmask & mask

    def test_scott_topology_axioms_exhaustive(self):
        rng = random.Random(4)
        for _ in range(10):
            poset = random_poset(rng, rng.randint(1, 6))
            opens = order.upsets(poset.up)
            assert 0 in opens and poset.full_mask in opens
            for a in opens:
                for b in opens:
                    assert a | b in opens
                    assert a & b in opens

    @settings(max_examples=40, deadline=None)
    @given(posets())
    def test_scott_opens_match_upset_scan(self, poset):
        assert sorted(order.upsets(poset.up)) == upsets_by_scan(poset)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 63), max_size=6), st.integers(1, 70))
    def test_upsets_are_all_unions_up_to_the_limit(self, masks, limit):
        unions = set()
        for chosen in range(1 << len(masks)):
            union = 0
            for i in order.iter_bits(chosen):
                union |= masks[i]
            unions.add(union)
        assert order.upsets(masks) == unions
        found = order.upsets(masks, limit=limit)
        assert found <= unions
        assert len(found) == min(len(unions), limit + 1)

    def test_lawson_two_chain_definitional(self):
        # pins the basis reference that the two tests below read spaces from
        assert lawson_by_basis(chain(2)) == [frozenset(), {0}, {1}, {0, 1}]

    def test_lawson_is_discrete(self):
        rng = random.Random(11)
        for _ in range(8):
            poset = random_poset(rng, rng.randint(1, 7))
            labels = poset.elements
            space = FinTop(labels, [{labels[i] for i in o} for o in lawson_by_basis(poset)])
            assert space.up == tuple(1 << i for i in range(poset.n))

    def test_lawson_spaces_are_scattered(self):
        # discreteness makes the order topology scattered, the finite shadow
        # of scatteredness for the lattices this library builds
        rng = random.Random(21)
        for _ in range(5):
            poset = random_poset(rng, rng.randint(1, 6))
            labels = poset.elements
            space = FinTop(labels, [{labels[i] for i in o} for o in lawson_by_basis(poset)])
            assert cb_rank_fin(space) == (1, frozenset())


class TestHasse:
    def test_chain_covers(self):
        assert chain(3).covers() == ((0, 1), (1, 2))

    def test_partition_lattice_cover_count(self):
        poset = partition_lattice(3, ORIENT_REFINEMENT)
        # brute-force transitive reduction as the oracle
        expected = []
        for i in range(poset.n):
            for j in range(poset.n):
                if i != j and poset.leq(i, j):
                    if not any(
                        k not in (i, j) and poset.leq(i, k) and poset.leq(k, j)
                        for k in range(poset.n)
                    ):
                        expected.append((i, j))
        assert sorted(poset.covers()) == sorted(expected)
        assert len(expected) == 6

    def test_singleton_has_no_covers(self):
        assert chain(1).covers() == ()

    def test_dot_output_shape(self):
        dot = hasse_dot(chain(2))
        assert dot.startswith("digraph") and "n0 -> n1;" in dot

    def test_dot_labels_truncated(self):
        poset = validate_poset(["x" * 100], [[True]])
        assert "x" * 41 not in hasse_dot(poset)


class TestDomainReport:
    def test_partition_lattice_all_true(self):
        report = domain_report(partition_lattice(3, ORIENT_SUBALGEBRA))
        assert report.all_true()
        assert not report.witnesses

    def test_bottom_plus_antichain(self):
        poset = validate_poset(
            ["bot", "a", "b"],
            [[True, True, True], [False, True, False], [False, False, True]],
        )
        report = domain_report(poset)
        assert report.atomistic is True
        assert report.algebraic is True

    def test_chain_is_not_atomistic(self):
        report = domain_report(chain(3))
        assert report.atomistic is False
        assert recheck_witness(chain(3), "atomistic", report.witnesses["atomistic"])

    def test_meet_continuity_not_applicable(self):
        report = domain_report(antichain(2))
        assert report.meet_continuous is None
        assert recheck_witness(antichain(2), "meet_continuous", report.witnesses["meet_continuous"])

    def test_atomistic_not_applicable_without_bottom(self):
        report = domain_report(antichain(2))
        assert report.atomistic is None

    @settings(max_examples=30, deadline=None)
    @given(posets())
    def test_order_scattered_always(self, poset):
        assert domain_report(poset).order_scattered is True

    @settings(max_examples=25, deadline=None)
    @given(posets(max_size=7))
    def test_every_false_flag_recheckable(self, poset):
        report = domain_report(poset)
        for key, value in report.flags().items():
            if value is False:
                assert recheck_witness(poset, key, report.witnesses[key])

    @pytest.mark.parametrize("route", ["definitional", "theorem"])
    def test_quasi_flags_read_compactness(self, route):
        # compactness read off the directed-subset oracle or the order
        poset = partition_lattice(4, ORIENT_SUBALGEBRA)
        wb = directed_way_below(poset) if route == "definitional" else list(poset.up)
        assert all(wb[c] >> c & 1 for c in range(poset.n))
        report = domain_report(poset)
        assert report.quasi_continuous is True and report.quasi_algebraic is True
        assert report.paths["quasi_continuous"] == "compact-singletons"
        assert report.paths["quasi_algebraic"] == "compact-singletons"
        assert "bounded" not in report.to_json_dict()

    def test_way_below_flags_take_the_theorem_route(self):
        report = domain_report(partition_lattice(3, ORIENT_SUBALGEBRA))
        for key in ("way_below", "algebraic", "continuous", "meet_continuous"):
            assert report.paths[key] == "theorem"
        assert domain_report(antichain(2)).paths["meet_continuous"] == "not-a-meet-semilattice"

    def test_meet_continuity_matches_directed_reference(self):
        from cstardom.ortho import power_set_omp

        cases = [chain(4), power_set_omp(3).poset]
        for k in (2, 3, 4):
            cases += [partition_lattice(k, o) for o in (ORIENT_REFINEMENT, ORIENT_SUBALGEBRA)]
        rng = random.Random(3)
        cases += [random_poset(rng, rng.randint(1, 8), 0.6) for _ in range(30)]
        checked = 0
        for poset in cases:
            report = domain_report(poset)
            if report.meet_continuous is None:
                continue
            assert report.meet_continuous is True
            assert meet_distributivity_failure(poset, poset.meets()) is None
            checked += 1
        assert checked >= 8

    def test_meet_reference_can_fail(self):
        # a meet table that is not monotone breaks the law on a chain
        poset = chain(3)
        broken = [list(row) for row in poset.meets()]
        broken[0][1] = broken[1][0] = 2
        assert meet_distributivity_failure(poset, broken) is not None

    @pytest.mark.parametrize(
        "make, semilattice",
        [
            pytest.param(lambda: partition_lattice(6, ORIENT_SUBALGEBRA), True, id="pi6"),
            pytest.param(fresh_greechie_square, False, id="square"),
        ],
    )
    def test_report_builds_no_meet_table(self, make, semilattice):
        poset = make()
        report = domain_report(poset)
        assert poset._meets is None and poset._joins is None
        missing = first_missing_meet(poset)
        assert (missing is None) == semilattice
        if semilattice:
            assert report.meet_continuous is True
        else:
            assert report.meet_continuous is None
            assert report.witnesses["meet_continuous"]["pair"] == missing

    @settings(max_examples=60, deadline=None)
    @given(posets(max_size=9))
    def test_meet_witness_is_the_first_missing_pair(self, poset):
        report = domain_report(poset)
        witness = report.witnesses.get("meet_continuous", {}).get("pair")
        assert witness == first_missing_meet(poset)
        assert poset._meets is None

    def test_json_keys(self):
        data = domain_report(chain(2)).to_json_dict()
        for key in order.PROPERTY_KEYS:
            assert key in data


class TestOrderDenseChains:
    def test_shortcut_reports_none(self):
        assert order_dense_chain(chain(5)) is None
        assert domain_report(chain(5)).paths["order_scattered"] == "covering-pair-shortcut"

    @settings(max_examples=25, deadline=None)
    @given(posets(max_size=7))
    def test_search_agrees_with_shortcut(self, poset):
        # the search is the reference for the report's covering-pair route
        assert order_dense_chain(poset) is None
        assert domain_report(poset).paths["order_scattered"] == "covering-pair-shortcut"

    def test_search_size_guard(self):
        assert order_dense_chain(antichain(FIN_ENUM_MAX)) is None
        with pytest.raises(SizeLimit):
            order_dense_chain(antichain(FIN_ENUM_MAX + 1))


class TestSerialization:
    def test_round_trip(self):
        poset = partition_lattice(3, ORIENT_SUBALGEBRA)
        data = poset.to_json_dict()
        again = validate_poset(data["elements"], data["leq"], orientation=data.get("orientation"))
        assert again == poset
        assert data["orientation"] == ORIENT_SUBALGEBRA

    def test_dual_is_involution(self):
        poset = partition_lattice(3, ORIENT_REFINEMENT)
        assert poset.dual().up == poset.dn and poset.dual().dn == poset.up
        assert poset.dual().dual() == FinPoset(poset.elements, poset.up)

    @settings(max_examples=60, deadline=None)
    @given(posets(max_size=10))
    def test_random_poset_round_trips_through_validation(self, poset):
        data = poset.to_json_dict()
        assert validate_poset(data["elements"], data["leq"]) == poset
