import random

import pytest
from hypothesis import given, settings, strategies as st

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
    DEFINITIONAL,
    THEOREM,
    FinPoset,
    compact_elements,
    domain_report,
    hasse,
    hasse_dot,
    lawson_opens,
    lub,
    glb,
    order_dense_chain,
    random_poset,
    recheck_witness,
    scott_opens,
    subset_way_below,
    validate_poset,
    way_below,
    way_below_matrix,
)
from cstardom.partitions import ORIENT_REFINEMENT, ORIENT_SUBALGEBRA, partition_lattice


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


@st.composite
def posets(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_poset(random.Random(seed), n)


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

    def test_unknown_element(self):
        with pytest.raises(ElementNotInPoset):
            chain(2).index("zzz")
        with pytest.raises(ElementNotInPoset):
            way_below(chain(2), 0, 5)


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
            meets, joins = poset.meets(), poset.joins()
            for i in range(poset.n):
                for j in range(poset.n):
                    pair = (1 << i) | (1 << j)
                    assert meets[i][j] == poset.glb_mask(pair)
                    assert joins[i][j] == poset.lub_mask(pair)
            assert poset.meets() is meets and poset.joins() is joins


class TestWayBelow:
    def test_chain_examples(self):
        p = chain(3)
        assert way_below(p, 0, 2) is True
        assert way_below(p, 2, 0) is False

    def test_partition_lattice_all_leq_pairs(self):
        poset = partition_lattice(4, ORIENT_SUBALGEBRA)
        assert poset.n == 15
        for b in range(poset.n):
            for c in range(poset.n):
                expected = poset.leq(b, c)
                assert way_below(poset, b, c, method="definitional") is expected

    def test_methods_agree_on_random_posets(self):
        rng = random.Random(99)
        for _ in range(40):
            poset = random_poset(rng, rng.randint(1, 10))
            oracle, m1 = way_below_matrix(poset, method="definitional")
            fast, m2 = way_below_matrix(poset, method="theorem")
            assert (m1, m2) == (DEFINITIONAL, THEOREM)
            assert oracle == fast == list(poset.up)

    def test_definitional_refuses_large_posets(self):
        big = antichain(16)
        with pytest.raises(SizeLimit):
            way_below(big, 0, 0, method="definitional")
        assert way_below(big, 0, 0) is True  # auto falls back to the theorem route

    @settings(max_examples=40, deadline=None)
    @given(posets(max_size=8))
    def test_subset_way_below_routes_agree(self, poset):
        rng = random.Random(poset.n * 7919 + poset.up[0])
        for _ in range(12):
            g = rng.sample(range(poset.n), rng.randint(1, poset.n))
            h = rng.sample(range(poset.n), rng.randint(1, poset.n))
            assert subset_way_below(poset, g, h, method="definitional") == subset_way_below(
                poset, g, h, method="theorem"
            )


class TestCompact:
    def test_chain(self):
        assert compact_elements(chain(3)) == [0, 1, 2]

    def test_partition_lattice(self):
        poset = partition_lattice(3, ORIENT_SUBALGEBRA)
        assert compact_elements(poset, method="definitional") == list(range(5))

    def test_singleton(self):
        assert compact_elements(chain(1)) == [0]

    @settings(max_examples=30, deadline=None)
    @given(posets())
    def test_every_element_compact(self, poset):
        assert compact_elements(poset) == list(range(poset.n))


class TestTopologies:
    def test_scott_opens_of_two_chain(self):
        opens = scott_opens(chain(2))
        assert opens == [frozenset(), frozenset({1}), frozenset({0, 1})]

    def test_scott_opens_of_antichain(self):
        assert len(scott_opens(antichain(3))) == 8

    def test_scott_opens_are_up_sets_meeting_directed_sups(self):
        # definitional recheck of the Scott condition
        poset = partition_lattice(3, ORIENT_REFINEMENT)
        directed = poset.directed_masks()
        for open_set in scott_opens(poset):
            mask = poset.mask_of(open_set)
            for i in open_set:
                assert poset.up[i] & ~mask == 0
            for dmask, sup in directed:
                if sup is not None and mask >> sup & 1:
                    assert dmask & mask

    def test_scott_topology_axioms_exhaustive(self):
        rng = random.Random(4)
        for _ in range(10):
            poset = random_poset(rng, rng.randint(1, 6))
            opens = {poset.mask_of(o) for o in scott_opens(poset)}
            assert 0 in opens and poset.full_mask in opens
            for a in opens:
                for b in opens:
                    assert a | b in opens
                    assert a & b in opens

    def test_lawson_two_chain_definitional(self):
        assert len(lawson_opens(chain(2), method="definitional")) == 4

    def test_lawson_is_discrete(self):
        rng = random.Random(11)
        for _ in range(8):
            poset = random_poset(rng, rng.randint(1, 7))
            opens = lawson_opens(poset, method="definitional")
            assert len(opens) == 2**poset.n
            assert opens == lawson_opens(poset, method="theorem")

    def test_lawson_spaces_are_scattered(self):
        # discreteness makes the order topology scattered, the finite shadow
        # of scatteredness for the lattices this library builds
        from cstardom.scatter import FinTop, is_scattered_fin

        rng = random.Random(21)
        for _ in range(5):
            poset = random_poset(rng, rng.randint(1, 6))
            labels = poset.elements
            space = FinTop(labels, [{labels[i] for i in o} for o in lawson_opens(poset)])
            assert is_scattered_fin(space)


class TestHasse:
    def test_chain_covers(self):
        assert hasse(chain(3)) == [(0, 1), (1, 2)]

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
        assert sorted(hasse(poset)) == sorted(expected)
        assert len(expected) == 6

    def test_singleton_has_no_covers(self):
        assert hasse(chain(1)) == []

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

    def test_explicitly_required_meets_raise(self):
        from cstardom.errors import MeetNotDefined

        with pytest.raises(MeetNotDefined):
            domain_report(antichain(2), require_meets=True)

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

    @pytest.mark.parametrize("method", [DEFINITIONAL, THEOREM])
    def test_quasi_flags_read_compactness(self, method):
        report = domain_report(partition_lattice(4, ORIENT_SUBALGEBRA), method=method)
        assert report.quasi_continuous is True and report.quasi_algebraic is True
        assert report.paths["quasi_continuous"] == "compact-singletons"
        assert report.paths["quasi_algebraic"] == "compact-singletons"
        assert "bounded" not in report.to_json_dict()

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
        with pytest.raises(SizeLimit):
            order_dense_chain(antichain(order.FIN_ENUM_MAX + 1))


class TestSerialization:
    def test_round_trip(self):
        poset = partition_lattice(3, ORIENT_SUBALGEBRA)
        data = poset.to_json_dict()
        again = validate_poset(data["elements"], data["leq"], orientation=data.get("orientation"))
        assert again == poset
        assert data["orientation"] == ORIENT_SUBALGEBRA

    def test_dual_is_involution(self):
        poset = partition_lattice(3, ORIENT_REFINEMENT)
        assert poset.dual().dual() == FinPoset(poset.elements, [
            [bool(poset.up[i] >> j & 1) for j in range(poset.n)] for i in range(poset.n)
        ])
