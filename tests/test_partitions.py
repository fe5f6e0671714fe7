import functools
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cstardom import order, ortho, partitions, staralg
from cstardom.errors import BadParameters, GroundMismatch, OutOfRange, SizeLimit
from cstardom.partitions import (
    LATTICE_MAX,
    ORIENT_REFINEMENT,
    ORIENT_SUBALGEBRA,
    EqRel,
    all_partitions,
    bell_number,
    collapse,
    join,
    label_of,
    meet,
    partition_lattice,
)
from test_order import glb, lub


def rel(n, *classes):
    return EqRel(range(1, n + 1), classes)


def class_of(relation, a):
    """The class of ``relation`` holding ``a``, by a scan of the classes."""
    return next(cls for cls in relation.classes if a in cls)


def refines_lattice(n, orientation):
    """The partition lattice by its definition: ``refines`` on all n^2
    pairs of partitions, read through the checked constructor.  The
    reference for the merge-cover build of partition_lattice."""
    rels = all_partitions(range(1, n + 1))
    table = []
    for a in rels:
        if orientation == ORIENT_REFINEMENT:
            table.append([a.refines(b) for b in rels])
        else:
            table.append([b.refines(a) for b in rels])
    return order.validate_poset(
        [label_of(rel) for rel in rels], table, orientation=orientation, payloads=rels
    )


@st.composite
def eqrels(draw, n=5):
    assignment = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    buckets = {}
    for x, cls in zip(range(1, n + 1), assignment):
        buckets.setdefault(cls, []).append(x)
    return EqRel(range(1, n + 1), buckets.values())


@st.composite
def grounds_and_relations(draw):
    """A ground of ints, strings or Fractions, and two relations on it."""
    n = draw(st.integers(0, 7))
    ground = draw(
        st.sampled_from(
            [
                list(range(1, n + 1)),
                [chr(ord("z") - i) for i in range(n)],
                [Fraction(k, 7) for k in range(n)],
            ]
        )
    )
    rels = []
    for _ in range(2):
        assignment = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        buckets = {}
        for x, cls in zip(ground, assignment):
            buckets.setdefault(cls, []).append(x)
        rels.append(EqRel(ground, buckets.values()))
    return ground, rels[0], rels[1]


@functools.total_ordering
class Counted:
    """An orderable ground member that counts the hashes taken of it."""

    hashes = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return self.value == other.value

    def __lt__(self, other):
        return self.value < other.value

    def __hash__(self):
        Counted.hashes += 1
        return hash(self.value)


class TestEqRel:
    def test_canonical_form(self):
        a = EqRel(range(1, 4), [[3], [2, 1]])
        b = EqRel(range(1, 4), [[1, 2], [3]])
        assert a == b and hash(a) == hash(b)
        assert a.classes == ((1, 2), (3,))

    def test_rejects_overlap(self):
        with pytest.raises(BadParameters):
            rel(3, [1, 2], [2, 3])

    def test_rejects_partial_cover(self):
        with pytest.raises(BadParameters):
            rel(3, [1, 2])

    def test_relates(self):
        r = rel(3, [1, 2], [3])
        assert r.relates(1, 2) and not r.relates(1, 3)

    def test_refines(self):
        finer = rel(4, [1, 2], [3], [4])
        coarser = rel(4, [1, 2, 3], [4])
        assert finer.refines(coarser)
        assert not coarser.refines(finer)
        with pytest.raises(GroundMismatch):
            finer.refines(rel(3, [1, 2], [3]))

    @settings(max_examples=80, deadline=None)
    @given(eqrels(), eqrels())
    def test_refines_matches_the_class_definition(self, r, s):
        # reference: every class of r lies inside one class of s
        expected = all(s.relates(cls[0], x) for cls in r.classes for x in cls)
        assert r.refines(s) == expected

    def test_refines_on_a_ground_set_that_is_not_1_to_n(self):
        finer = EqRel("dcba", [["a", "c"], ["b"], ["d"]])
        coarser = EqRel("abcd", [["a", "c", "d"], ["b"]])
        assert finer.refines(coarser) and not coarser.refines(finer)

    def test_refines_on_one_point_and_empty_grounds(self):
        assert EqRel([7], [[7]]).refines(EqRel([7], [[7]]))
        assert EqRel([], []).refines(EqRel([], []))

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_refines_matches_class_containment_on_every_pair(self, n):
        # reference: each class of r is a subset of some class of s; the
        # grounds of 0 and 1 point take the gather's single-relation branch
        rels = all_partitions(range(1, n + 1))
        assert len(rels) == bell_number(n)
        for r, s in itertools.product(rels, repeat=2):
            expected = all(
                any(set(cls) <= set(other) for other in s.classes) for cls in r.classes
            )
            assert r.refines(s) == expected

    def test_gather_is_built_on_first_refines(self):
        r, s = rel(4, [1, 2], [3], [4]), rel(4, [1], [2], [3, 4])
        met = meet(r, s)
        built = [EqRel._from_labels(r.ground, r._labels), join(r, s), met,
                 *all_partitions(range(1, 5))]
        assert all(x._gather is None for x in built)
        assert met.refines(r) and met._gather is not None

    @settings(max_examples=60, deadline=None)
    @given(grounds_and_relations())
    def test_from_labels_equals_the_checked_constructor(self, case):
        ground, r, _ = case
        rebuilt = EqRel._from_labels(r.ground, r._labels)
        checked = EqRel(reversed(ground), [reversed(cls) for cls in reversed(r.classes)])
        assert rebuilt == checked == r
        assert hash(rebuilt) == hash(checked) == hash(r)
        assert rebuilt.ground == checked.ground and rebuilt.classes == checked.classes

    def test_label_vector_is_numbered_by_first_occurrence(self):
        r = EqRel("abcde", [["e", "b"], ["d"], ["c", "a"]])
        assert r._labels == (0, 1, 0, 2, 1)
        assert r.classes == (("a", "c"), ("b", "e"), ("d",))

    def test_large_grounds_stay_linear(self):
        # construction and refines are linear in the ground size: a few
        # milliseconds here, where a pair bitmask would take seconds
        start = time.perf_counter()
        finest, coarsest = EqRel.diagonal(range(5000)), EqRel.full(range(5000))
        assert finest.refines(coarsest) and not coarsest.refines(finest)
        assert time.perf_counter() - start < 1.0


class TestJoinMeet:
    def test_join_collapses(self):
        assert join(rel(3, [1, 2], [3]), rel(3, [1], [2, 3])) == rel(3, [1, 2, 3])

    def test_join_with_diagonal_is_identity(self):
        r = rel(4, [1, 3], [2], [4])
        assert join(r, EqRel.diagonal(range(1, 5))) == r

    def test_join_on_four_matches_brute_force(self):
        r = rel(4, [1, 2], [3], [4])
        s = rel(4, [1], [2], [3, 4])
        joined = join(r, s)
        # brute force: the refinement-least partition containing both
        containing = [
            p for p in all_partitions(range(1, 5)) if r.refines(p) and s.refines(p)
        ]
        least = [p for p in containing if all(p.refines(q) for q in containing)]
        assert least == [joined]
        assert joined == rel(4, [1, 2], [3, 4])

    def test_meet_examples(self):
        assert meet(rel(3, [1, 2, 3]), rel(3, [1, 2], [3])) == rel(3, [1, 2], [3])
        r = rel(3, [1, 3], [2])
        assert meet(r, r) == r
        assert meet(rel(4, [1, 2], [3, 4]), rel(4, [1, 3], [2, 4])) == EqRel.diagonal(
            range(1, 5)
        )

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            join(rel(3, [1, 2, 3]), rel(4, [1, 2, 3, 4]))

    @settings(max_examples=60, deadline=None)
    @given(eqrels(), eqrels())
    def test_join_meet_are_lattice_bounds(self, r, s):
        j, m = join(r, s), meet(r, s)
        assert r.refines(j) and s.refines(j)
        assert m.refines(r) and m.refines(s)
        # absorption
        assert join(r, meet(r, s)) == r
        assert meet(r, join(r, s)) == r

    @settings(max_examples=80, deadline=None)
    @given(grounds_and_relations())
    def test_join_meet_match_the_member_level_reference(self, case):
        ground, r, s = case
        # join: the relation generated by the consecutive pairs of both
        # relations' classes; meet: members bucketed by their pair of classes
        pairs = [p for rel in (r, s) for cls in rel.classes for p in zip(cls, cls[1:])]
        buckets = {}
        for x in ground:
            buckets.setdefault((class_of(r, x), class_of(s, x)), []).append(x)
        expected_join = EqRel.from_pairs(ground, pairs)
        expected_meet = EqRel(ground, buckets.values())
        for got, expected in ((join(r, s), expected_join), (meet(r, s), expected_meet)):
            assert got == expected and hash(got) == hash(expected)
            assert got.classes == expected.classes and got.ground == expected.ground

    def test_join_meet_refines_and_eq_never_hash_a_member(self):
        ground = [Counted(k) for k in range(12)]
        r = EqRel(ground, [ground[0:3], ground[3:6], ground[6:12]])
        s = EqRel(ground, [ground[2:4], ground[0:2], ground[4:6], ground[6:12]])
        t = EqRel(list(reversed(ground)), [ground[0:3], ground[3:6], ground[6:12]])
        Counted.hashes = 0
        joined, met = join(r, s), meet(r, s)
        assert joined.classes == (tuple(ground[0:6]), tuple(ground[6:12]))
        assert met.refines(r) and met.refines(s)
        assert r.refines(joined) and s.refines(joined)
        assert r == t and joined != met
        assert Counted.hashes == 0

    @settings(max_examples=40, deadline=None)
    @given(eqrels(), eqrels(), eqrels())
    def test_monotone(self, r, s, t):
        if r.refines(s):
            assert join(r, t).refines(join(s, t))
            assert meet(r, t).refines(meet(s, t))


class TestAllPartitions:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_every_assignment_of_classes(self, n):
        ground = [chr(ord("z") - i) for i in range(n)]
        expected = set()
        for assignment in itertools.product(range(n), repeat=n):
            buckets = {}
            for x, cls in zip(ground, assignment):
                buckets.setdefault(cls, []).append(x)
            expected.add(EqRel(ground, buckets.values()))
        rels = all_partitions(ground)
        assert len(rels) == bell_number(n) == len(expected)
        assert set(rels) == expected
        assert rels == sorted(rels, key=lambda rel: (len(rel.classes), rel.classes))

    def test_rejects_a_duplicate_member(self):
        with pytest.raises(BadParameters):
            all_partitions([1, 2, 2])


class TestPartitionLattice:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_sizes(self, n, count):
        poset = partition_lattice(n, ORIENT_SUBALGEBRA)
        assert poset.n == count == bell_number(n)

    def test_size_limit(self):
        assert partition_lattice(LATTICE_MAX, ORIENT_SUBALGEBRA).n == bell_number(LATTICE_MAX)
        with pytest.raises(SizeLimit) as info:
            partition_lattice(LATTICE_MAX + 1, ORIENT_SUBALGEBRA)
        assert (info.value.value, info.value.limit) == (LATTICE_MAX + 1, LATTICE_MAX)
        with pytest.raises(SizeLimit):
            partition_lattice(0, ORIENT_SUBALGEBRA)

    @pytest.mark.parametrize("orientation", [ORIENT_REFINEMENT, ORIENT_SUBALGEBRA])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_refines_definition(self, n, orientation):
        built = partition_lattice(n, orientation)
        reference = refines_lattice(n, orientation)
        assert built.up == reference.up
        assert built.elements == reference.elements
        assert built.payloads == reference.payloads
        assert built.orientation == reference.orientation == orientation

    def test_orientation_required(self):
        with pytest.raises(BadParameters):
            partition_lattice(3, "upside-down")

    def test_subalgebra_bottom_is_one_block(self):
        poset = partition_lattice(3, ORIENT_SUBALGEBRA)
        assert poset.elements[poset.bottom()] == "{1,2,3}"
        assert poset.elements[poset.top()] == "{1}|{2}|{3}"

    def test_singleton_lattice(self):
        poset = partition_lattice(1, ORIENT_SUBALGEBRA)
        assert poset.n == 1 and poset.bottom() == poset.top()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orientations_are_order_duals(self, n):
        sub = partition_lattice(n, ORIENT_SUBALGEBRA)
        ref = partition_lattice(n, ORIENT_REFINEMENT)
        assert sub.up == ref.dn and sub.dn == ref.up

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_atom_count_is_two_block_partitions(self, n):
        poset = partition_lattice(n, ORIENT_SUBALGEBRA)
        bottom = poset.bottom()
        atoms = [j for i, j in poset.covers() if i == bottom]
        assert len(atoms) == 2 ** (n - 1) - 1
        for j in atoms:
            assert len(poset.payloads[j].classes) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_join_meet_agree_with_order_bounds(self, n):
        poset = partition_lattice(n, ORIENT_REFINEMENT)
        index = {p: i for i, p in enumerate(poset.payloads)}
        for a, b in itertools.product(poset.payloads, repeat=2):
            assert lub(poset, [index[a], index[b]]) == index[join(a, b)]
            assert glb(poset, [index[a], index[b]]) == index[meet(a, b)]

    def test_anti_isomorphism_against_relation_inclusion(self):
        # relation containment (refinement) flips into subalgebra order
        poset = partition_lattice(4, ORIENT_SUBALGEBRA)
        rels = poset.payloads
        for i, j in itertools.product(range(poset.n), repeat=2):
            assert poset.leq(i, j) == rels[j].refines(rels[i])


class TestWorkCounters:
    """The lattice builders compare no pair of partitions and read no bool
    table: both calls are counted and must stay at zero."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"refines": 0, "validate_poset": 0}
        refines, validate = EqRel.refines, order.validate_poset

        def counted_refines(self, other):
            counts["refines"] += 1
            return refines(self, other)

        def counted_validate(*args, **kwargs):
            counts["validate_poset"] += 1
            return validate(*args, **kwargs)

        monkeypatch.setattr(EqRel, "refines", counted_refines)
        # every module binding of the name, as an import by name would see it
        for module in (order, partitions, staralg, ortho):
            if getattr(module, "validate_poset", None) is validate:
                monkeypatch.setattr(module, "validate_poset", counted_validate)
        return counts

    def test_the_counters_see_the_reference(self, calls):
        refines_lattice(3, ORIENT_REFINEMENT)
        assert calls == {"refines": 25, "validate_poset": 1}

    @pytest.mark.parametrize("orientation", [ORIENT_REFINEMENT, ORIENT_SUBALGEBRA])
    def test_partition_lattice(self, calls, orientation):
        partition_lattice(7, orientation)
        assert calls == {"refines": 0, "validate_poset": 0}

    def test_c_lattice(self, calls):
        gens = [staralg.Matrix.diag([1] * (j + 1) + [0] * (4 - j)) for j in range(4)]
        staralg.c_lattice(staralg.generated_algebra(gens, dim=5))
        assert calls == {"refines": 0, "validate_poset": 0}


class TestCollapseQuotient:
    def test_collapse_pair(self):
        assert collapse(3, {1, 2}) == rel(3, [1, 2], [3])

    def test_collapse_empty_is_diagonal(self):
        assert collapse(3, set()) == EqRel.diagonal(range(1, 4))
        assert collapse(3, {2}) == EqRel.diagonal(range(1, 4))

    def test_collapse_triple(self):
        assert collapse(4, {1, 2, 3}) == rel(4, [1, 2, 3], [4])

    def test_collapse_out_of_range(self):
        with pytest.raises(OutOfRange):
            collapse(3, {1, 9})


class TestSerialization:
    def test_json_round_trip(self):
        r = rel(4, [1, 3], [2], [4])
        data = r.to_json_dict()
        assert data == {"n": 4, "classes": [[1, 3], [2], [4]]}
        assert EqRel(range(1, data["n"] + 1), data["classes"]) == r

    def test_label(self):
        assert label_of(rel(3, [1, 2], [3])) == "{1,2}|{3}"
