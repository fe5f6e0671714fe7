"""The acceptance suite: one runnable check per release criterion.

Every criterion is exact (no tolerances anywhere in the package) and comes
with a time budget; the CLI ``accept`` subcommand and the test suite both
run these functions and report one line per criterion.

Criteria 1, 2, 6 and 9 check four facts about one object per k = 2..5:
the diagonal algebra A, which forms its projection table (all of Proj(A))
and its subalgebra lattice C(A) once and keeps them.  :func:`run_acceptance`
builds each such algebra once and shares it among the criteria it runs, so
the first of them that needs the table and lattice is charged their build
in ``elapsed_s``: criterion 1 under ``all`` and ``fast`` alike, since
``fast`` runs 1, 2 and 9.  The memo lives for one call and is dropped when
it returns, taking the tables and lattices with it, and
:func:`run_criterion` called alone builds its own algebras.
"""

from __future__ import annotations

import itertools
import random
import time
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from . import cantor, order, ortho, partitions, scatter, staralg
from .errors import AxiomViolated, BadParameters, CstardomError

RNG_SEED = 20260810


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed_s: float
    budget_s: float
    details: str

    @property
    def within_budget(self):
        return self.elapsed_s < self.budget_s

    def line(self):
        status = "FAIL" if not self.passed else "PASS" if self.within_budget else "OVER BUDGET"
        return (
            f"[{status}] criterion {self.number}: {self.name} "
            f"({self.elapsed_s:.2f}s / budget {self.budget_s:.0f}s) - {self.details}"
        )

    def to_json_dict(self):
        return {
            "number": self.number,
            "name": self.name,
            "pass": self.passed,
            "within_budget": self.within_budget,
            "elapsed_s": round(self.elapsed_s, 3),
            "budget_s": self.budget_s,
            "details": self.details,
        }


def _diagonal_algebra(k):
    generators = [
        staralg.Matrix.diag([1] * (j + 1) + [0] * (k - j - 1)) for j in range(k - 1)
    ]
    return staralg.generated_algebra(generators, dim=k)


#: the diagonal algebras of the :func:`run_acceptance` call in progress,
#: by k; None outside one, so no algebra (and so no lattice) outlives its
#: run.  A context variable, so a run in another thread or a nested run
#: keeps its own memo
_STAGES = ContextVar("stages", default=None)


def _stage(k):
    """The k-point diagonal algebra: shared within a run, built anew outside one."""
    stages = _STAGES.get()
    if stages is None:
        return _diagonal_algebra(k)
    if k not in stages:
        stages[k] = _diagonal_algebra(k)
    return stages[k]


def _criterion_1():
    """Subalgebra lattice of the diagonal algebra matches the partition lattice."""
    expected = {2: 2, 3: 5, 4: 15, 5: 52}
    for k in range(2, 6):
        lattice = staralg.c_lattice(_stage(k))
        if lattice.n != expected[k]:
            return False, f"k={k}: {lattice.n} nodes, expected {expected[k]}"
    return True, "element counts 2, 5, 15, 52; order certified on the Hasse covers"


def _criterion_2():
    """The subalgebra lattices are meet-semilattices and atomistic: the two
    domain flags a finite poset can lack (``order.FINITE_FLAGS`` holds the
    other five)."""
    for k in range(2, 6):
        report = order.domain_report(staralg.c_lattice(_stage(k)))
        bad = [key for key in ("meet_continuous", "atomistic") if getattr(report, key) is not True]
        if bad:
            return False, f"k={k}: flags {bad} not true"
    return True, "meet-semilattices and atomistic for k = 2..5"


def _criterion_3():
    """Definitional way-below equals the order on random posets, and each
    directed subset it enumerated (cached) holds its sup, as it must when finite."""
    rng = random.Random(RNG_SEED)
    for index in range(200):
        poset = order.random_poset(rng, rng.randint(1, 10))
        wb = order.directed_way_below(poset)
        if wb != list(poset.up):
            return False, f"poset {index}: way-below differs from the order"
        for mask, sup in poset.directed_masks():
            if sup is None or not mask >> sup & 1:
                return False, f"poset {index}: directed subset without attained sup"
    return True, "200 random posets, way-below == order, directed sups attained"


def _criterion_4():
    """The distributivity failure verifies at truncation depths 1..8; a
    failing check raises AssertionFailed out of ``verify_counterexample``."""
    for depth in range(1, 9):
        report = cantor.verify_counterexample(depth)
        if report.r_blocks != 2 ** (depth + 1) - 1:
            return False, f"depth {depth}: unexpected block count {report.r_blocks}"
    return True, "depths 1..8, exact rational arithmetic"


def _criterion_5():
    """Grid restriction turns block-relation joins into finite joins."""
    checked = 0
    for depth in range(1, 5):
        resolution = depth + 1
        relations = [cantor.relation_R(depth), cantor.DIAGONAL]
        relations.extend(cantor.relation_S(n) for n in range(1, depth + 1))
        grids = [cantor.sample_to_grid(x, resolution) for x in relations]
        for (x, gx), (y, gy) in itertools.product(zip(relations, grids), repeat=2):
            joined = cantor.sample_to_grid(cantor.tri_join(x, y), resolution)
            if joined != partitions.join(gx, gy):
                return False, f"depth {depth}: grid join mismatch"
            checked += 1
    return True, f"{checked} pairs, grid join equals join of grids"


def _criterion_6():
    """Subalgebra lattice matches the Boolean subalgebras of the projections."""
    for k in range(2, 6):
        report = ortho.verify_caf_iso(_stage(k))
        if report.size != partitions.bell_number(k):
            return False, f"k={k}: {report.size} nodes, expected Bell({k})"
    return True, "order isomorphism with Bell(k) nodes for k = 2..5"


def _criterion_7():
    """Orthomodular axioms: fixtures validate, mutations fail with witnesses."""
    for k in range(1, 5):
        ortho.power_set_omp(k)
    mo2 = ortho.mo_omp(2)
    ortho.mo_omp(3)

    mutations = 0

    # self-orthocomplement pair: excluded middle must fail on that element
    bad_ortho = list(mo2.ortho)
    a1 = mo2.poset.index("a1")
    a1p = mo2.poset.index("a1'")
    bad_ortho[a1], bad_ortho[a1p] = a1, a1p
    try:
        ortho.validate_omp(mo2.poset, bad_ortho)
        return False, "self-orthocomplement mutation validated"
    except AxiomViolated as exc:
        if exc.axiom != "excluded-middle" or exc.witness not in ((a1,), (a1p,)):
            return False, f"wrong witness for excluded-middle: {exc.axiom} {exc.witness}"
        mutations += 1

    # cycle the four middle elements: still a permutation, not an involution
    bad_ortho = list(mo2.ortho)
    a2 = mo2.poset.index("a2")
    a2p = mo2.poset.index("a2'")
    bad_ortho[a1], bad_ortho[a1p] = a1p, a2
    bad_ortho[a2], bad_ortho[a2p] = a2p, a1
    try:
        ortho.validate_omp(mo2.poset, bad_ortho)
        return False, "non-involutive mutation validated"
    except AxiomViolated as exc:
        if exc.axiom != "double-complement" or bad_ortho[bad_ortho[exc.witness[0]]] == exc.witness[0]:
            return False, f"wrong witness for involution mutation: {exc.axiom} {exc.witness}"
        mutations += 1

    # identity complement on the square: antitonicity must fail
    square = ortho.power_set_omp(2)
    try:
        ortho.validate_omp(square.poset, list(range(square.n)))
        return False, "identity-complement mutation validated"
    except AxiomViolated as exc:
        i, j = exc.witness
        if exc.axiom != "antitone" or not square.leq(i, j) or square.leq(j, i):
            return False, f"wrong witness for antitone: {exc.axiom} {exc.witness}"
        mutations += 1

    count = ortho.boolean_subalgebras(mo2).n
    if count != 3:
        return False, f"B(MO2) has {count} members, expected 3"
    return True, f"fixtures validate, {mutations} mutations rejected, B(MO2) = 3"


def _criterion_8():
    """Rank of an ordinal interval is its leading exponent plus one."""
    rng = random.Random(RNG_SEED)
    if scatter.cb_rank_ord(scatter.OrdinalCNF.parse("w")) != 2:
        return False, "rank of [0, w] is not 2"
    if scatter.cb_rank_ord(scatter.OrdinalCNF.parse("w^2")) != 3:
        return False, "rank of [0, w^2] is not 3"
    for index in range(50):
        alpha = _random_cnf(rng)
        if scatter.cb_rank_ord(alpha) != alpha.leading_exponent() + 1:
            return False, f"rank mismatch for {alpha}"
    return True, "50 random ordinals below w^5*3"


def _random_cnf(rng):
    """One to three terms with exponents up to 5 and coefficients up to 3,
    up to 2 on w^5, so the ordinal lies below w^5*3."""
    exponents = sorted(rng.sample(range(6), rng.randint(1, 3)), reverse=True)
    return scatter.OrdinalCNF(tuple((e, rng.randint(1, 2 if e == 5 else 3)) for e in exponents))


def _criterion_9():
    """Atoms are the covers of the bottom, one per projection split."""
    for k in range(2, 6):
        algebra = _stage(k)
        atom_list = staralg.atoms(algebra)
        if len(atom_list) != 2 ** (k - 1) - 1:
            return False, f"k={k}: {len(atom_list)} atoms"
        lattice = staralg.c_lattice(algebra)
        bottom = lattice.bottom()
        cover_nodes = {
            lattice.payloads[j] for i, j in lattice.covers() if i == bottom
        }
        if set(atom_list) != cover_nodes:
            return False, f"k={k}: atoms differ from the bottom covers"
    return True, "2^(k-1)-1 atoms equal the bottom covers for k = 2..5"


def _criterion_10():
    """Dense-chain witnesses are strictly monotone with valid refinements."""
    for n in range(2, 17):
        chain = cantor.dense_chain_witness(n)
        for earlier, later in zip(chain, chain[1:]):
            if not (earlier.contains(later) and earlier != later):
                return False, f"chain witness not strictly decreasing at n={n}"
            middle = cantor.midpoint_witness(earlier, later)
            if not (
                earlier.contains(middle)
                and middle.contains(later)
                and middle not in (earlier, later)
            ):
                return False, f"midpoint refinement fails at n={n}"
    report = scatter.kq_chain_witness(8, 5)
    if not report.ok:
        return False, "closed-set chain report failed"
    small = scatter.kq_chain_witness(
        4, 3, rationals=[Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    )
    if not small.ok or [len(s) for s in small.sets] != [2, 3, 4]:
        return False, "closed-set chain sizes differ from 2, 3, 4"
    return True, "tail chains for n <= 16 and closed-set chains with reversing duals"


def _criterion_11():
    """Pushing a subalgebra along any map between small spectra is Scott continuous.

    Push is a lower adjoint with upper adjoint pull, so it is monotone and
    preserves every join that exists (Gierz et al., Continuous Lattices and
    Domains, 2003).  For each map and each d, {c : push(c) <= d}, the union
    of push's fibres over the down-set of d, must be the down-set of
    pull(d).  Pull is a union closure computed apart, so this can fail.
    """
    orientation = partitions.ORIENT_SUBALGEBRA
    lattices = {n: partitions.partition_lattice(n, orientation) for n in range(1, 5)}
    downs = {n: [list(order.iter_bits(m)) for m in lat.dn] for n, lat in lattices.items()}
    maps_checked = 0
    for nx, ny in itertools.product(range(1, 5), repeat=2):
        lx, ly = lattices[nx], lattices[ny]
        lx_index = {rel: i for i, rel in enumerate(lx.payloads)}
        ly_index = {rel: i for i, rel in enumerate(ly.payloads)}
        xs = tuple(range(1, nx + 1))
        ys = range(1, ny + 1)
        for values in itertools.product(xs, repeat=ny):
            mapping = dict(zip(ys, values))
            fibre = [0] * ly.n
            for c, rel in enumerate(lx.payloads):
                fibre[ly_index[staralg.pushforward_hom(mapping, rel)]] |= 1 << c
            for d, rel in enumerate(ly.payloads):
                below = 0
                for e in downs[ny][d]:
                    below |= fibre[e]
                pull = lx_index[staralg.pullback_adjoint(mapping, rel, xs)]
                if below != lx.dn[pull]:
                    return False, f"push(c) <= d and c <= pull(d) differ for {mapping}"
            maps_checked += 1
    return True, f"{maps_checked} maps, push(c) <= d iff c <= pull(d): push is a lower adjoint"


CRITERIA = (
    (1, "subalgebra lattice matches the partition lattice", _criterion_1, 5.0, True),
    (2, "those lattices are atomistic meet-semilattices", _criterion_2, 10.0, True),
    (3, "way-below oracle agrees with the order on random posets", _criterion_3, 30.0, False),
    (4, "distributivity counterexample verifies at depths 1..8", _criterion_4, 60.0, False),
    (5, "grid restriction commutes with joins", _criterion_5, 10.0, True),
    (6, "Boolean subalgebras of projections match the lattice", _criterion_6, 20.0, False),
    (7, "orthomodular axioms validate and mutations fail", _criterion_7, 5.0, True),
    (8, "ordinal interval rank equals leading exponent plus one", _criterion_8, 5.0, True),
    (9, "atoms equal the bottom covers", _criterion_9, 5.0, True),
    (10, "dense chain witnesses are strict with refinements", _criterion_10, 5.0, True),
    (11, "pushforward along small spectra maps is Scott continuous", _criterion_11, 30.0, False),
)

SELECTORS = ("all", "fast")


def run_criterion(number):
    for num, name, func, budget, _fast in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                passed, details = func()
            except CstardomError as exc:
                passed, details = False, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            return CriterionResult(num, name, passed, elapsed, budget, details)
    raise ValueError(f"no criterion {number}")


def run_acceptance(selector="all"):
    if selector not in SELECTORS:
        raise BadParameters(f"unknown selector {selector!r}; use one of {SELECTORS}")
    token = _STAGES.set({})
    try:
        return [
            run_criterion(num)
            for num, _name, _func, _budget, fast in CRITERIA
            if selector == "all" or fast
        ]
    finally:
        _STAGES.reset(token)
