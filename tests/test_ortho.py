import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from cstardom import ortho
from cstardom.errors import AxiomViolated, BadParameters, IsoFailure, SizeLimit
from cstardom.ortho import (
    CAF_MAX,
    OMP_MAX,
    boolean_subalgebras,
    mo_omp,
    power_set_omp,
    validate_omp,
    verify_caf_iso,
)
from cstardom.order import FinPoset, iter_bits, validate_poset
from cstardom.partitions import ORIENT_SUBALGEBRA, bell_number, partition_lattice
from cstardom.staralg import Matrix, c_lattice, generated_algebra, projection_table


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


def atoms(sub):
    """Minimal nonzero members of a Boolean subalgebra."""
    nonzero = sub.mask & ~(1 << sub.omp.zero)
    return tuple(p for p in iter_bits(nonzero) if sub.omp.poset.dn[p] & nonzero == 1 << p)


def distributive_boolean_mask(omp, mask):
    """Complement and distributive laws over every member and triple of a
    closed subset: the reference for the atom count of
    ``ortho._is_boolean_mask``."""
    meets, joins = omp.poset.meets(), omp.poset.joins()
    members = list(iter_bits(mask))
    for p in members:
        if meets[p][omp.ortho[p]] != omp.zero:
            return False
    for p, q, r in itertools.product(members, repeat=3):
        if meets[p][joins[q][r]] != joins[meets[p][q]][meets[p][r]]:
            return False
    return True


def blocks(omp):
    """Maximal Boolean subalgebras: nothing lies strictly above them."""
    poset = boolean_subalgebras(omp)
    return [poset.payloads[i] for i in range(poset.n) if poset.up[i] == 1 << i]


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
    return validate_omp(validate_poset(elements, leq), ortho_table)


def hexagon():
    """The benzene ring 0 < a < b < 1, 0 < b' < a' < 1, with its complement:
    an orthocomplemented lattice that is not orthomodular."""
    elements = ["0", "a", "b", "b'", "a'", "1"]
    pairs = {("a", "b"), ("b'", "a'")}
    leq = [[x == y or x == "0" or y == "1" or (x, y) in pairs for y in elements] for x in elements]
    return validate_poset(elements, leq), [5, 4, 3, 2, 1, 0]


def two_joins():
    """Orthogonal atoms a <= b' with two minimal upper bounds x and y, each
    with its complement: every axiom but orthogonal-join holds."""
    below = {"a": {"x", "y", "b'"}, "b": {"x", "y", "a'"}, "x'": {"a'", "b'"}, "y'": {"a'", "b'"}}
    elements = ["0", "a", "b", "x'", "y'", "x", "y", "a'", "b'", "1"]
    leq = [
        [x == y or x == "0" or y == "1" or y in below.get(x, ()) for y in elements]
        for x in elements
    ]
    return validate_poset(elements, leq), [9, 7, 8, 5, 6, 3, 4, 1, 2, 0]


def pairwise_violation(poset, ortho_table):
    """The first failed axiom and its witness, or None: the five axioms
    checked pair by pair through ``poset.leq``, the reference for the
    mask walks of ``validate_omp``."""
    n = poset.n
    one = poset.top()
    if one is None:
        return "greatest-element", ()
    for p in range(n):
        if ortho_table[ortho_table[p]] != p:
            return "double-complement", (p,)
    for p, q in itertools.product(range(n), repeat=2):
        if p != q and poset.leq(p, q) and not poset.leq(ortho_table[q], ortho_table[p]):
            return "antitone", (p, q)
    meets, joins, zero = poset.meets(), poset.joins(), ortho_table[one]
    for p in range(n):
        if joins[p][ortho_table[p]] != one:
            return "excluded-middle", (p,)
    for p, q in itertools.product(range(n), repeat=2):
        if poset.leq(p, ortho_table[q]) and joins[p][q] is None:
            return "orthogonal-join", (p, q)
    for p, q in itertools.product(range(n), repeat=2):
        if poset.leq(ortho_table[q], p) and meets[p][q] == zero and p != ortho_table[q]:
            return "orthomodular", (p, q)
    return None


def mask_violation(poset, ortho_table):
    try:
        validate_omp(poset, ortho_table)
    except AxiomViolated as exc:
        return exc.axiom, exc.witness
    return None


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
        omp = mo_omp(2)
        ortho_table = list(omp.ortho)
        a1, a1p = omp.poset.index("a1"), omp.poset.index("a1'")
        ortho_table[a1], ortho_table[a1p] = a1, a1p
        with pytest.raises(AxiomViolated) as info:
            validate_omp(omp.poset, ortho_table)
        assert info.value.axiom == "excluded-middle"
        assert info.value.witness in ((a1,), (a1p,))

    def test_identity_complement_fails_antitone(self):
        omp = power_set_omp(2)
        with pytest.raises(AxiomViolated) as info:
            validate_omp(omp.poset, list(range(omp.n)))
        assert info.value.axiom == "antitone"
        p, q = info.value.witness
        assert omp.leq(p, q) and not omp.leq(q, p)

    def test_four_cycle_fails_involution(self):
        omp = mo_omp(2)
        ortho_table = list(omp.ortho)
        a1, a1p = omp.poset.index("a1"), omp.poset.index("a1'")
        a2, a2p = omp.poset.index("a2"), omp.poset.index("a2'")
        ortho_table[a1], ortho_table[a1p], ortho_table[a2], ortho_table[a2p] = a1p, a2, a2p, a1
        with pytest.raises(AxiomViolated) as info:
            validate_omp(omp.poset, ortho_table)
        assert info.value.axiom == "double-complement"

    def test_missing_top_fails(self):
        antichain = FinPoset(["a", "b"], [0b01, 0b10])
        with pytest.raises(AxiomViolated) as info:
            validate_omp(antichain, [1, 0])
        assert info.value.axiom == "greatest-element"

    def test_non_permutation_rejected(self):
        with pytest.raises(BadParameters):
            validate_omp(power_set_omp(1).poset, [0, 0])

    def test_hexagon_fails_orthomodularity(self):
        # a-a', b-b' complementary and a < b: the witness is p = b >= a = q⊥
        # with meet(b, a') = 0 yet b != a
        poset, ortho = hexagon()
        with pytest.raises(AxiomViolated) as info:
            validate_omp(poset, ortho)
        assert info.value.axiom == "orthomodular"
        # re-check the witness: p above q⊥ with zero meet yet p != q⊥
        from test_order import glb

        p, q = info.value.witness
        assert poset.leq(ortho[q], p)
        assert glb(poset, [p, q]) == poset.index("0")
        assert p != ortho[q]

    def test_two_minimal_upper_bounds_fail_orthogonal_join(self):
        poset, ortho = two_joins()
        with pytest.raises(AxiomViolated) as info:
            validate_omp(poset, ortho)
        assert info.value.axiom == "orthogonal-join"
        p, q = info.value.witness
        assert poset.leq(p, ortho[q]) and poset.joins()[p][q] is None


def poset_and_complement(omp):
    return omp.poset, list(omp.ortho)


#: posets with the complement they were built with
REFERENCE_FIXTURES = {
    "P2": lambda: poset_and_complement(power_set_omp(2)),
    "P3": lambda: poset_and_complement(power_set_omp(3)),
    "MO2": lambda: poset_and_complement(mo_omp(2)),
    "MO3": lambda: poset_and_complement(mo_omp(3)),
    "square": lambda: poset_and_complement(greechie_square()),
    "hexagon": hexagon,
    "two-joins": two_joins,
}


@st.composite
def posets_and_complements(draw):
    """A fixture poset with a permutation of its elements as complement:
    any permutation, an involution from random pairs, or the fixture's own
    complement conjugated by a relabelling, which stays an involution."""
    poset, own = REFERENCE_FIXTURES[draw(st.sampled_from(sorted(REFERENCE_FIXTURES)))]()
    perm = draw(st.permutations(range(poset.n)))
    kind = draw(st.sampled_from(["permutation", "pairs", "conjugate", "own"]))
    if kind == "permutation":
        return poset, list(perm)
    if kind == "pairs":
        table = list(range(poset.n))
        fixed = draw(st.integers(0, poset.n // 2))
        for a, b in zip(perm[fixed::2], perm[fixed + 1 :: 2]):
            table[a], table[b] = b, a
        return poset, table
    if kind == "conjugate":
        table = [0] * poset.n
        for p in range(poset.n):
            table[perm[p]] = perm[own[p]]
        return poset, table
    return poset, own


class TestMaskWalksMatchThePairwiseAxioms:
    @pytest.mark.parametrize("name", sorted(REFERENCE_FIXTURES))
    def test_own_complement(self, name):
        poset, own = REFERENCE_FIXTURES[name]()
        assert mask_violation(poset, own) == pairwise_violation(poset, own)

    @settings(max_examples=300, deadline=None)
    @given(posets_and_complements())
    def test_first_violation_and_witness(self, case):
        poset, table = case
        assert mask_violation(poset, table) == pairwise_violation(poset, table)


@st.composite
def random_posets_and_involutions(draw):
    """A random poset on at most 7 points, from random pairs along the
    linear order 0 < 1 < ... closed transitively, with a random involution
    of its points; in half the draws 0 and n - 1 are made the bounds and
    the involution swaps them."""
    n = draw(st.integers(1, 7))
    up = [1 << x for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if draw(st.booleans()):
                up[x] |= 1 << y
    bounded = draw(st.booleans())
    if bounded:
        up[0] = (1 << n) - 1
        up = [mask | 1 << (n - 1) for mask in up]
    for x in reversed(range(n)):
        for y in list(iter_bits(up[x])):
            up[x] |= up[y]
    table, inner = list(range(n)), list(range(n))
    if bounded and n > 1:
        # an OMP's complement swaps its bounds
        table[0], table[n - 1] = n - 1, 0
        inner = inner[1:-1]
    perm = draw(st.permutations(inner))
    fixed = draw(st.integers(0, len(perm) // 2))
    for a, b in zip(perm[fixed::2], perm[fixed + 1 :: 2]):
        table[a], table[b] = b, a
    return FinPoset([f"e{x}" for x in range(n)], up), table


class TestBaseIsTheBounds:
    """``validate_omp`` makes zero = one' the bottom, so the closure of the
    empty seed, the base of the Boolean-subalgebra search, is {zero, one}
    and Boolean."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(random_posets_and_involutions(), posets_and_complements()))
    # no bottom, and a complement that fixes the top: only antitone rejects it
    @example((FinPoset(["e0", "e1", "e2"], [0b101, 0b110, 0b100]), [1, 0, 2]))
    def test_base_of_every_accepted_omp(self, case):
        poset, table = case
        try:
            omp = validate_omp(poset, table)
        except AxiomViolated:
            return
        assert omp.zero == omp.poset.bottom()
        base = ortho._close_boolean(omp, 0)
        assert base == (1 << omp.zero) | (1 << omp.one)
        assert ortho._is_boolean_mask(omp, base)


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

    def test_equal_only_over_the_same_omp(self):
        # OMP defines no equality, so two builds of one power set stay apart
        first, second = power_set_omp(2), power_set_omp(2)
        assert ortho.BoolSub(first, 5) == ortho.BoolSub(first, 5) != ortho.BoolSub(first, 3)
        assert ortho.BoolSub(first, 5) != ortho.BoolSub(second, 5)
        subs = {ortho.BoolSub(first, 5), ortho.BoolSub(first, 5), ortho.BoolSub(second, 5)}
        assert len(subs) == 2

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
                atom_masks = sorted(atoms(sub))
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


class TestBooleanTest:
    """The atom count of ``ortho._is_boolean_mask`` against the complement
    and distributive laws, on closed masks only, the masks it is given."""

    @pytest.mark.parametrize("name,outcomes", [
        ("P3", {True}), ("MO2", {True, False}), ("MO3", {True, False}),
    ])
    def test_every_closure_of_a_fixture(self, name, outcomes):
        omp = closure_fixture(name)
        seen = set()
        for seed in range(1 << omp.n):
            closed = all_pairs_closure(omp, seed)
            expected = distributive_boolean_mask(omp, closed)
            assert ortho._is_boolean_mask(omp, closed) == expected, (name, seed)
            seen.add(expected)
        assert seen == outcomes

    @settings(max_examples=150, deadline=None)
    @given(omps_and_seeds())
    # the whole of MO(n) is closed and not Boolean for n >= 2
    @example((closure_fixture("MO2"), 0b111111, 0))
    @example((closure_fixture("MO3"), 0b11111111, 0))
    @example((closure_fixture("MO4"), 0b1111111111, 0))
    def test_closures_drawn_over_every_fixture(self, case):
        omp, seed, other = case
        closed = all_pairs_closure(omp, seed | other)
        if closed is not None:
            expected = distributive_boolean_mask(omp, closed)
            assert ortho._is_boolean_mask(omp, closed) == expected


class TestWorkCounters:
    """Deterministic counts of the close-by-one search, pinned as regression
    checks: on P(5) each of the 51 Boolean subalgebras above the base is
    reached by exactly one closure that passes the canonical test, and the
    other closures fail it."""

    def test_closures_in_the_power_set_of_five(self, monkeypatch):
        closures, tested = [0], []
        close, is_boolean = ortho._close_boolean, ortho._is_boolean_mask

        def counted_close(*args, **kwargs):
            closures[0] += 1
            return close(*args, **kwargs)

        def counted_test(*args, **kwargs):
            tested.append(is_boolean(*args, **kwargs))
            return tested[-1]

        monkeypatch.setattr(ortho, "_close_boolean", counted_close)
        monkeypatch.setattr(ortho, "_is_boolean_mask", counted_test)
        assert boolean_subalgebras(power_set_omp(5)).n == bell_number(5)
        assert closures[0] == 296
        assert tested == [True] * 51


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


class HeldProjections:
    """A stand-in subalgebra holding exactly the given projection matrices."""

    def __init__(self, members):
        self.members = members

    def contains(self, candidate):
        return any(candidate is member for member in self.members)


class TestCafIsoFailures:
    """``verify_caf_iso`` against a subalgebra lattice broken three ways."""

    def broken(self, monkeypatch, change):
        algebra = TestCafIso().diagonal(3)
        real = c_lattice(algebra)
        monkeypatch.setattr(ortho, "c_lattice", lambda alg: change(alg, real))
        return algebra, real

    def test_dual_order_is_not_preserved(self, monkeypatch):
        algebra, real = self.broken(monkeypatch, lambda alg, lattice: lattice.dual())
        with pytest.raises(IsoFailure) as info:
            verify_caf_iso(algebra)
        # the first pair in the order of the scan that is comparable
        i, j = next(
            (i, j)
            for i, j in itertools.product(range(real.n), repeat=2)
            if i != j and (real.leq(i, j) or real.leq(j, i))
        )
        assert info.value.witness == {
            "pair": [real.elements[i], real.elements[j]],
            "reason": "order not preserved and reflected",
        }

    def test_repeated_payload_is_not_a_bijection(self, monkeypatch):
        def repeat_first(alg, lattice):
            payloads = list(lattice.payloads)
            payloads[-1] = payloads[0]
            return FinPoset._from_masks(
                lattice.elements, lattice.up, lattice.dn, lattice.orientation, payloads
            )

        algebra, _ = self.broken(monkeypatch, repeat_first)
        with pytest.raises(IsoFailure) as info:
            verify_caf_iso(algebra)
        assert info.value.witness == {"reason": "not a bijection"}

    def test_projections_not_closed_under_complement(self, monkeypatch):
        def stub_last(alg, lattice):
            sums = projection_table(alg, CAF_MAX)
            # 0, the first minimal projection and 1, without its complement
            payloads = list(lattice.payloads)
            payloads[-1] = HeldProjections([sums[0], sums[1], sums[-1]])
            return FinPoset._from_masks(
                lattice.elements, lattice.up, lattice.dn, lattice.orientation, payloads
            )

        algebra, real = self.broken(monkeypatch, stub_last)
        with pytest.raises(IsoFailure) as info:
            verify_caf_iso(algebra)
        assert info.value.witness == {
            "subalgebra": real.elements[-1],
            "projections": "not a Boolean subalgebra",
        }


class TestStoneSpace:
    """The Stone space of a finite Boolean algebra is the discrete space on
    its atoms; these check the Boolean test and the atoms it rests on."""

    def whole(self, omp):
        return ortho.BoolSub(omp, (1 << omp.n) - 1)

    def test_three_atoms(self):
        omp = power_set_omp(3)
        assert ortho._is_boolean_mask(omp, (1 << omp.n) - 1)
        assert len(atoms(self.whole(omp))) == 3

    def test_two_element_algebra(self):
        omp = power_set_omp(1)
        assert ortho._is_boolean_mask(omp, 0b11)
        assert len(atoms(self.whole(omp))) == 1

    def test_sixteen_clopens(self):
        omp = power_set_omp(4)
        assert ortho._is_boolean_mask(omp, (1 << 16) - 1)
        minimal = atoms(self.whole(omp))
        # each element is the join of a distinct set of atoms below it
        below = {sum(1 << a for a in minimal if omp.leq(a, p)) for p in range(omp.n)}
        assert len(minimal) == 4 and len(below) == 16

    def test_bool_sub_input(self):
        omp = mo_omp(2)
        sub = next(
            s for s in boolean_subalgebras(omp).payloads if len(s.members()) == 4
        )
        assert ortho._is_boolean_mask(omp, sub.mask)
        assert len(atoms(sub)) == 2

    def test_rejects_non_boolean(self):
        omp = mo_omp(2)
        assert not ortho._is_boolean_mask(omp, (1 << omp.n) - 1)
