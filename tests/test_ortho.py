import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cstardom import ortho
from cstardom.errors import AxiomViolated, BadParameters, NotBoolean, SizeLimit
from cstardom.ortho import (
    CAF_MAX,
    OMP_MAX,
    blocks,
    boolean_subalgebras,
    mo_omp,
    power_set_omp,
    stone_space,
    validate_omp,
    verify_caf_iso,
)
from cstardom.partitions import ORIENT_SUBALGEBRA, bell_number, partition_lattice
from cstardom.scatter import is_scattered_fin
from cstardom.staralg import Matrix, generated_algebra


def tables_of(omp):
    elements = list(omp.elements)
    leq = [[omp.leq(i, j) for j in range(omp.n)] for i in range(omp.n)]
    return elements, leq, list(omp.ortho)


def brute_force_boolean_subalgebras(omp):
    """Every subset checked against the definition directly."""
    found = []
    for mask in range(1 << omp.n):
        members = [i for i in range(omp.n) if mask >> i & 1]
        if omp.zero not in members or omp.one not in members:
            continue
        if any(not mask >> omp.ortho[p] & 1 for p in members):
            continue
        closed = True
        for p, q in itertools.combinations(members, 2):
            m, j = omp.meet(p, q), omp.join(p, q)
            if m is None or j is None or not (mask >> m & 1 and mask >> j & 1):
                closed = False
                break
        if not closed:
            continue
        if any(omp.meet(p, omp.ortho[p]) != omp.zero for p in members):
            continue
        distributive = all(
            omp.meet(p, omp.join(q, r))
            == omp.join(omp.meet(p, q), omp.meet(p, r))
            for p, q, r in itertools.product(members, repeat=3)
        )
        if distributive:
            found.append(mask)
    return sorted(found)


def all_pairs_closure(omp, seed_mask):
    """Closure under complement, meet and join that combines every pair of
    members again in each round until nothing changes: the reference for
    the worklist closure ``ortho._close_boolean``."""
    mask = seed_mask | (1 << omp.zero) | (1 << omp.one)
    for p in range(omp.n):
        if seed_mask >> p & 1:
            mask |= 1 << omp.ortho[p]
    while True:
        added = 0
        members = [p for p in range(omp.n) if mask >> p & 1]
        for a, b in itertools.combinations(members, 2):
            for bound in (omp.meet(a, b), omp.join(a, b)):
                if bound is None:
                    return None
                if not mask >> bound & 1:
                    added |= (1 << bound) | (1 << omp.ortho[bound])
        if not added:
            return mask
        mask |= added


def greechie_square():
    """Four three-atom blocks in a loop, each sharing a corner atom with
    the next: an orthomodular poset that is not a lattice (Greechie's loop
    lemma), since the opposite corners c0 and c2 have the two minimal upper
    bounds c1' and c3'.  An atom x lies below the complement of y exactly
    when x and y are distinct atoms of one block."""
    corners = [f"c{i}" for i in range(4)]
    blocks = [(corners[i], f"m{i}", corners[(i + 1) % 4]) for i in range(4)]
    atoms = [x for block in blocks for x in block[:2]]
    elements = ["0"] + atoms + [x + "'" for x in atoms] + ["1"]
    n, a = len(elements), len(atoms)
    leq = [[i == j or i == 0 or j == n - 1 for j in range(n)] for i in range(n)]
    for x, y in itertools.permutations(range(a), 2):
        if any(atoms[x] in block and atoms[y] in block for block in blocks):
            leq[1 + x][1 + a + y] = True
    ortho_table = [n - 1] + [1 + a + x for x in range(a)] + [1 + x for x in range(a)] + [0]
    return validate_omp(elements, leq, ortho_table)


CLOSURE_FIXTURES = {
    "square": greechie_square,
    "P3": lambda: power_set_omp(3),
    "P4": lambda: power_set_omp(4),
    "MO2": lambda: mo_omp(2),
    "MO3": lambda: mo_omp(3),
    "MO4": lambda: mo_omp(4),
}


@functools.lru_cache(maxsize=None)
def closure_fixture(name):
    return CLOSURE_FIXTURES[name]()


@st.composite
def omps_and_seeds(draw):
    """A fixture and two seed masks over its elements."""
    omp = closure_fixture(draw(st.sampled_from(sorted(CLOSURE_FIXTURES))))
    seeds = st.integers(0, (1 << omp.n) - 1)
    return omp, draw(seeds), draw(seeds)


class TestValidation:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_power_sets_validate(self, k):
        assert power_set_omp(k).n == 2**k

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mo_fixtures_validate(self, n):
        assert mo_omp(n).n == 2 * n + 2

    def test_self_complement_fails_excluded_middle(self):
        elements, leq, ortho = tables_of(mo_omp(2))
        a1 = elements.index("a1")
        a1p = elements.index("a1'")
        ortho[a1], ortho[a1p] = a1, a1p
        with pytest.raises(AxiomViolated) as info:
            validate_omp(elements, leq, ortho)
        assert info.value.axiom == "excluded-middle"
        assert info.value.witness in ((a1,), (a1p,))

    def test_identity_complement_fails_antitone(self):
        omp = power_set_omp(2)
        elements, leq, _ = tables_of(omp)
        with pytest.raises(AxiomViolated) as info:
            validate_omp(elements, leq, list(range(omp.n)))
        assert info.value.axiom == "antitone"
        p, q = info.value.witness
        assert omp.leq(p, q) and not omp.leq(q, p)

    def test_four_cycle_fails_involution(self):
        elements, leq, ortho = tables_of(mo_omp(2))
        a1, a1p = elements.index("a1"), elements.index("a1'")
        a2, a2p = elements.index("a2"), elements.index("a2'")
        ortho[a1], ortho[a1p], ortho[a2], ortho[a2p] = a1p, a2, a2p, a1
        with pytest.raises(AxiomViolated) as info:
            validate_omp(elements, leq, ortho)
        assert info.value.axiom == "double-complement"

    def test_missing_top_fails(self):
        elements = ["a", "b"]
        leq = [[True, False], [False, True]]
        with pytest.raises(AxiomViolated) as info:
            validate_omp(elements, leq, [1, 0])
        assert info.value.axiom == "greatest-element"

    def test_non_permutation_rejected(self):
        elements, leq, _ = tables_of(power_set_omp(1))
        with pytest.raises(BadParameters):
            validate_omp(elements, leq, [0, 0])

    def test_hexagon_fails_orthomodularity(self):
        # benzene ring: 0 < a < b < 1 and 0 < b' < a' < 1 with a-a', b-b'
        # complementary; b dominates a = b' ⊥-complement... the witness is
        # p = b >= a = q⊥ with meet(b, a') = 0 yet b != a
        elements = ["0", "a", "b", "b'", "a'", "1"]
        order_pairs = {
            ("0", x) for x in elements
        } | {(x, x) for x in elements} | {(x, "1") for x in elements} | {
            ("a", "b"),
            ("b'", "a'"),
        }
        leq = [[(x, y) in order_pairs for y in elements] for x in elements]
        ortho = [5, 4, 3, 2, 1, 0]
        with pytest.raises(AxiomViolated) as info:
            validate_omp(elements, leq, ortho)
        assert info.value.axiom == "orthomodular"
        # re-check the witness: p above q⊥ with zero meet yet p != q⊥
        from cstardom.order import glb, validate_poset

        poset = validate_poset(elements, leq)
        p, q = info.value.witness
        assert poset.leq(ortho[q], p)
        assert glb(poset, [p, q]) == elements.index("0")
        assert p != ortho[q]


class TestBooleanSubalgebras:
    def test_mo2_has_three(self):
        poset = boolean_subalgebras(mo_omp(2))
        assert poset.n == 3
        labels = set(poset.elements)
        assert "{0,1}" in labels

    def test_power_set_counts_match_bell(self):
        for k in range(1, 5):
            assert boolean_subalgebras(power_set_omp(k)).n == bell_number(k)

    def test_singleton_bool_poset(self):
        assert boolean_subalgebras(power_set_omp(1)).n == 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: mo_omp(2),
            lambda: mo_omp(3),
            lambda: mo_omp(4),
            lambda: power_set_omp(3),
            lambda: power_set_omp(4),
            greechie_square,
        ],
    )
    def test_matches_brute_force(self, make):
        omp = make()
        enumerated = sorted(sub.mask for sub in boolean_subalgebras(omp).payloads)
        assert enumerated == brute_force_boolean_subalgebras(omp)

    def test_every_subalgebra_well_formed(self):
        omp = power_set_omp(3)
        for sub in boolean_subalgebras(omp).payloads:
            members = sub.members()
            assert omp.zero in members and omp.one in members
            for p in members:
                assert omp.ortho[p] in members

    def test_bottom_is_the_bounds(self):
        poset = boolean_subalgebras(power_set_omp(3))
        bottom = poset.payloads[poset.bottom()]
        omp = bottom.omp
        assert set(bottom.members()) == {omp.zero, omp.one}

    def test_atoms_are_quadruples(self):
        omp = power_set_omp(3)
        poset = boolean_subalgebras(omp)
        bottom = poset.bottom()
        for i, j in poset.covers():
            if i == bottom:
                members = poset.payloads[j].members()
                assert len(members) == 4

    def test_order_isomorphic_to_partition_lattice(self):
        # block structure of the atoms gives the partition correspondence
        for k in (2, 3, 4):
            omp = power_set_omp(k)
            poset = boolean_subalgebras(omp)
            reference = partition_lattice(k, ORIENT_SUBALGEBRA)
            assert poset.n == reference.n

            def partition_label(sub):
                atom_masks = sorted(sub.atoms())
                classes = []
                for mask in atom_masks:
                    classes.append(tuple(i + 1 for i in range(k) if mask >> i & 1))
                classes.sort(key=lambda cls: cls[0])
                return "|".join("{" + ",".join(map(str, c)) + "}" for c in classes)

            mapping = [reference.index(partition_label(sub)) for sub in poset.payloads]
            assert sorted(mapping) == list(range(reference.n))
            for i, j in itertools.product(range(poset.n), repeat=2):
                assert poset.leq(i, j) == reference.leq(mapping[i], mapping[j])

    def test_size_limit(self):
        # 2^5 = OMP_MAX elements pass; 2^6 do not
        assert boolean_subalgebras(power_set_omp(5)).n == bell_number(5)
        with pytest.raises(SizeLimit) as info:
            boolean_subalgebras(power_set_omp(6))
        assert (info.value.value, info.value.limit) == (64, OMP_MAX)


class TestClosure:
    @settings(max_examples=150, deadline=None)
    @given(omps_and_seeds())
    def test_matches_the_all_pairs_reference(self, case):
        omp, seed, other = case
        assert ortho._close_boolean(omp, seed) == all_pairs_closure(omp, seed)
        closed = all_pairs_closure(omp, other)
        if closed is not None:
            expected = all_pairs_closure(omp, seed | closed)
            assert ortho._close_boolean(omp, seed, closed) == expected

    def test_opposite_corners_have_no_join(self):
        omp = closure_fixture("square")
        c0, c2 = omp.poset.index("c0"), omp.poset.index("c2")
        assert omp.join(c0, c2) is None
        seed = (1 << c0) | (1 << c2)
        assert ortho._close_boolean(omp, seed) is None
        closed = ortho._close_boolean(omp, 1 << c0)
        assert closed is not None
        assert ortho._close_boolean(omp, 1 << c2, closed) is None


class TestWorkCounters:
    """Deterministic counts of the closure search, pinned as regression
    checks: each Boolean subalgebra of P(5) tries each complement pair
    outside it once."""

    def test_closures_in_the_power_set_of_five(self, monkeypatch):
        calls = [0]
        close = ortho._close_boolean

        def counted(*args, **kwargs):
            calls[0] += 1
            return close(*args, **kwargs)

        monkeypatch.setattr(ortho, "_close_boolean", counted)
        assert boolean_subalgebras(power_set_omp(5)).n == bell_number(5)
        assert calls[0] == 606


class TestBlocks:
    def test_mo2_blocks(self):
        result = blocks(mo_omp(2))
        assert len(result) == 2
        assert all(len(b.members()) == 4 for b in result)

    def test_power_set_is_its_own_block(self):
        result = blocks(power_set_omp(3))
        assert len(result) == 1
        assert len(result[0].members()) == 8

    def test_mo3_blocks(self):
        assert len(blocks(mo_omp(3))) == 3


class TestCafIso:
    def diagonal(self, k):
        gens = [Matrix.diag([1] * (j + 1) + [0] * (k - j - 1)) for j in range(k - 1)]
        return generated_algebra(gens, dim=k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_diagonal_iso(self, k):
        report = verify_caf_iso(self.diagonal(k))
        assert report.size == bell_number(k)
        assert len(report.correspondence) == report.size

    def test_scalars(self):
        report = verify_caf_iso(generated_algebra([], dim=2))
        assert report.size == 1

    def test_off_diagonal_fixture(self):
        from fractions import Fraction

        half = Fraction(1, 2)
        p = Matrix([[half, half], [half, half]])
        report = verify_caf_iso(generated_algebra([p]))
        assert report.size == 2

    def test_size_limit(self):
        assert verify_caf_iso(self.diagonal(CAF_MAX)).size == bell_number(CAF_MAX)
        with pytest.raises(SizeLimit) as info:
            verify_caf_iso(self.diagonal(CAF_MAX + 1))
        assert (info.value.value, info.value.limit) == (CAF_MAX + 1, CAF_MAX)

    def test_default_guard_is_the_spectrum_guard(self):
        # a 6-point spectrum would give a 64-element power set, beyond OMP_MAX
        with pytest.raises(SizeLimit) as info:
            verify_caf_iso(self.diagonal(6))
        assert info.value.what == "spectrum size"
        assert (info.value.value, info.value.limit) == (6, 5)


class TestStoneSpace:
    def test_three_atoms(self):
        space = stone_space(power_set_omp(3))
        assert len(space.points) == 3
        assert is_scattered_fin(space.topology)

    def test_two_element_algebra(self):
        space = stone_space(power_set_omp(1))
        assert len(space.points) == 1

    def test_sixteen_clopens(self):
        space = stone_space(power_set_omp(4))
        assert len(space.points) == 4
        assert len(space.element_to_clopen) == 16
        assert len(set(space.element_to_clopen.values())) == 16

    def test_bool_sub_input(self):
        omp = mo_omp(2)
        sub = next(
            s for s in boolean_subalgebras(omp).payloads if len(s.members()) == 4
        )
        space = stone_space(sub)
        assert len(space.points) == 2

    def test_rejects_non_boolean(self):
        with pytest.raises(NotBoolean):
            stone_space(mo_omp(2))
