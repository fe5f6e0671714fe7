"""Acceptance gate: every release criterion must pass within its budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion; the same checks back the ``cstardom accept`` subcommand.
"""

import pytest

from cstardom import acceptance, scatter, staralg
from cstardom.acceptance import CRITERIA, SELECTORS, run_acceptance, run_criterion
from cstardom.errors import BadParameters
from cstardom.order import FinPoset
from cstardom.partitions import ORIENT_SUBALGEBRA, EqRel, partition_lattice

DETAILS = {
    1: "element counts 2, 5, 15, 52; order certified on the Hasse covers",
    2: "meet-semilattices and atomistic for k = 2..5",
    3: "200 random posets, way-below == order, directed sups attained",
    4: "depths 1..8, exact rational arithmetic",
    5: "86 pairs, grid join equals join of grids",
    6: "order isomorphism with Bell(k) nodes for k = 2..5",
    7: "fixtures validate, 3 mutations rejected, B(MO2) = 3",
    8: "50 random ordinals below w^5*3",
    9: "2^(k-1)-1 atoms equal the bottom covers for k = 2..5",
    10: "tail chains for n <= 16 and closed-set chains with reversing duals",
    11: "494 maps, push(c) <= d iff c <= pull(d): push is a lower adjoint",
}


@pytest.mark.parametrize(
    "number", [num for num, *_ in CRITERIA], ids=[f"criterion-{num}" for num, *_ in CRITERIA]
)
def test_criterion(number):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, result.details
    assert result.within_budget, (
        f"criterion {number} took {result.elapsed_s:.2f}s, budget {result.budget_s}s"
    )
    assert result.details == DETAILS[number]


def test_fast_selector_is_a_subset():
    fast = run_acceptance("fast")
    assert 0 < len(fast) < len(CRITERIA)
    assert all(result.passed for result in fast)


def test_unknown_selector_rejected():
    with pytest.raises(BadParameters):
        run_acceptance("everything")
    assert SELECTORS == ("all", "fast")


# -- criterion 11 fails when the adjunction breaks -----------------------

PUSH, PULL = staralg.pushforward_hom, staralg.pullback_adjoint


def pull_to_diagonal(mapping, partition, source_ground):
    return EqRel.diagonal(source_ground)


def pull_without_last_pair(mapping, partition, source_ground):
    pairs = [(mapping[cls[0]], mapping[y]) for cls in partition.classes for y in cls[1:]]
    return EqRel.from_pairs(source_ground, pairs[:-1])


def push_to_full(mapping, partition):
    return EqRel.full(sorted(mapping))


def push_with_diagonal_and_full_swapped(mapping, partition):
    image = PUSH(mapping, partition)
    diagonal, full = EqRel.diagonal(image.ground), EqRel.full(image.ground)
    return full if image == diagonal else diagonal if image == full else image


@pytest.mark.parametrize(
    "name, mutant",
    [
        ("pullback_adjoint", pull_to_diagonal),
        ("pullback_adjoint", pull_without_last_pair),
        ("pushforward_hom", push_to_full),
        ("pushforward_hom", push_with_diagonal_and_full_swapped),
    ],
    ids=["pull-diagonal", "pull-drops-a-pair", "push-full", "push-swapped"],
)
def test_criterion_11_fails_on_a_mutation(monkeypatch, name, mutant):
    monkeypatch.setattr(staralg, name, mutant)
    passed, details = acceptance._criterion_11()
    assert not passed
    assert details.startswith("push(c) <= d and c <= pull(d) differ")


def test_criterion_3_fails_on_a_sup_outside_its_mask(monkeypatch):
    directed = FinPoset.directed_masks

    def misplaced(self):
        out = []
        for mask, sup in directed(self):
            # every element lies below a member, so directed_way_below never
            # reads this sup: only the sup check can see it moved
            if mask != self.full_mask and all(self.up[b] & mask for b in range(self.n)):
                sup = (self.full_mask & ~mask).bit_length() - 1
            out.append((mask, sup))
        return out

    monkeypatch.setattr(FinPoset, "directed_masks", misplaced)
    passed, details = acceptance._criterion_3()
    assert not passed
    assert details.endswith("directed subset without attained sup")


# -- criteria 2 and 10 fail when what they check breaks ------------------

CHAIN_3 = FinPoset(range(3), [0b111, 0b110, 0b100])
ANTICHAIN_2 = FinPoset(range(2), [0b01, 0b10])


@pytest.mark.parametrize(
    "lattice, bad",
    [(CHAIN_3, ["atomistic"]), (ANTICHAIN_2, ["meet_continuous", "atomistic"])],
    ids=["chain", "antichain"],
)
def test_criterion_2_names_the_flags_that_fail(monkeypatch, lattice, bad):
    monkeypatch.setattr(staralg, "c_lattice", lambda *args, **kwargs: lattice)
    passed, details = acceptance._criterion_2()
    assert not passed
    assert details == f"k=2: flags {bad} not true"


def test_criterion_10_fails_when_the_duals_do_not_reverse(monkeypatch):
    monkeypatch.setattr(scatter, "collapse", lambda n, subset: EqRel.diagonal(range(1, n + 1)))
    passed, details = acceptance._criterion_10()
    assert not passed
    assert details == "closed-set chain report failed"


# -- criterion 11's work, counted ---------------------------------------


@pytest.fixture
def calls(monkeypatch):
    counts = dict.fromkeys(
        ("pushforward_hom", "pullback_adjoint", "directed_masks", "lub_mask", "EqRel.__init__"), 0
    )

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(staralg, "pushforward_hom", counted("pushforward_hom", PUSH))
    monkeypatch.setattr(staralg, "pullback_adjoint", counted("pullback_adjoint", PULL))
    monkeypatch.setattr(
        FinPoset, "directed_masks", counted("directed_masks", FinPoset.directed_masks)
    )
    monkeypatch.setattr(FinPoset, "lub_mask", counted("lub_mask", FinPoset.lub_mask))
    monkeypatch.setattr(EqRel, "__init__", counted("EqRel.__init__", EqRel.__init__))
    return counts


def test_the_counters_see_the_reference(calls):
    lattice = partition_lattice(2, ORIENT_SUBALGEBRA)
    lattice.directed_masks()
    lattice.lub_mask(1)
    EqRel.full((1, 2))
    staralg.pullback_adjoint({1: 1}, staralg.pushforward_hom({1: 1}, lattice.payloads[0]), (1, 2))
    assert set(calls.values()) == {1}


def test_criterion_11_work(calls):
    assert acceptance._criterion_11()[0]
    assert calls == {
        "pushforward_hom": 5764,
        "pullback_adjoint": 5880,
        "directed_masks": 0,
        "lub_mask": 0,
        "EqRel.__init__": 0,
    }


# -- criteria 1, 2, 6 and 9 share one algebra per k within a run --------

STAGE_CRITERIA = {1, 2, 6, 9}
#: one diagonal algebra per k = 2..5, each forming one projection table and
#: one lattice of Bell(k) block-sum algebras; the atoms run no closure
ONE_STAGE_PER_K = {
    "generated_algebra": 4,
    "_projection_sums": 4,
    "partition_lattice": 4,
    "block_sum_algebra": 2 + 5 + 15 + 52,
}


@pytest.fixture
def builds(monkeypatch):
    counts = dict.fromkeys(ONE_STAGE_PER_K, 0)

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # staralg's own bindings: ``partition_lattice`` counts the lattices
    # staralg builds, not criterion 11's
    for name in counts:
        monkeypatch.setattr(staralg, name, counted(name, getattr(staralg, name)))
    return counts


def merge_the_last_two_blocks(monkeypatch):
    build = staralg.block_sum_algebra

    def merged(sums, partition, dim):
        classes = partition.classes
        if len(classes) > 1:
            partition = EqRel(partition.ground, classes[:-2] + (classes[-2] + classes[-1],))
        return build(sums, partition, dim)

    monkeypatch.setattr(staralg, "block_sum_algebra", merged)


def misplace_a_sum(monkeypatch):
    table = staralg._projection_sums

    def misplaced(projections, dim):
        sums = table(projections, dim)
        sums[0b11] = sums[0b01]  # e0 where e0 + e1 belongs
        return sums

    monkeypatch.setattr(staralg, "_projection_sums", misplaced)


def test_one_stage_per_k_in_a_run(builds):
    assert all(result.passed for result in run_acceptance("all"))
    assert builds == ONE_STAGE_PER_K
    assert acceptance._STAGES.get() is None


@pytest.mark.parametrize("number", sorted(STAGE_CRITERIA))
def test_a_criterion_run_alone_builds_its_own_stages(builds, number):
    assert run_criterion(number).passed
    assert builds == ONE_STAGE_PER_K


def test_a_run_reaches_the_public_lattice(monkeypatch):
    build, seen = staralg.c_lattice, []

    def spy(algebra):
        seen.append(algebra.dim)
        return build(algebra)

    monkeypatch.setattr(staralg, "c_lattice", spy)
    assert all(result.passed for result in run_acceptance("all"))
    assert set(seen) == {2, 3, 4, 5}


def test_atoms_run_no_closure(monkeypatch):
    algebra = acceptance._diagonal_algebra(5)

    def closure(*args, **kwargs):
        raise AssertionError("atoms ran a generated_algebra closure")

    monkeypatch.setattr(staralg, "generated_algebra", closure)
    assert len(staralg.atoms(algebra)) == 2 ** 4 - 1


def test_no_stage_outlives_its_run(monkeypatch):
    assert all(result.passed for result in run_acceptance("fast"))
    merge_the_last_two_blocks(monkeypatch)
    first = run_acceptance("fast")[0]
    assert first.number == 1 and not first.passed
    assert first.details.endswith("has dimension 1, not 2")


@pytest.mark.parametrize(
    "mutate", [merge_the_last_two_blocks, misplace_a_sum], ids=["merged-blocks", "misplaced-sum"]
)
def test_a_broken_stage_fails_the_criteria_that_share_it(monkeypatch, mutate):
    mutate(monkeypatch)
    failed = {result.number for result in run_acceptance("all") if not result.passed}
    assert failed == STAGE_CRITERIA
