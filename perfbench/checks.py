"""Output checks computed apart from the program.

Each checker takes the program's output as plain data (JSON reports, label
lists, boolean tables) and returns a list of problems; an empty list means
the output is correct.  Nothing here imports the package under test: the
references are brute force over sets, counting recurrences and integer
sweeps, so a fault shared by the program and its own cross-checks still
shows.  ``test_checks.py`` feeds every checker a corrupted output.
"""

from __future__ import annotations

import re
from fractions import Fraction

from inputs import bell, partition_hasse_edges

PROPERTY_KEYS = (
    "algebraic", "continuous", "meet_continuous", "atomistic",
    "quasi_continuous", "quasi_algebraic", "order_scattered",
)


# ---------------------------------------------------------------------------
# partitions and order tables


def parse_partition(label, k):
    """``{1,2}|{3}`` as a tuple of frozensets, or None when it is not a
    partition of {1..k}."""
    blocks = []
    for chunk in label.split("|"):
        if not (chunk.startswith("{") and chunk.endswith("}")):
            return None
        try:
            blocks.append(frozenset(int(x) for x in chunk[1:-1].split(",")))
        except ValueError:
            return None
    points = [x for b in blocks for x in b]
    if sorted(points) != list(range(1, k + 1)):
        return None
    return tuple(blocks)


def _related_pairs(blocks):
    return frozenset((x, y) for b in blocks for x in b for y in b if x < y)


def check_partition_order(elements, leq, k, orientation):
    """Bell(k) distinct partition labels, and the table equal to refinement
    decided by brute force over related pairs."""
    problems = []
    if len(elements) != bell(k):
        problems.append(f"{len(elements)} nodes, expected Bell({k}) = {bell(k)}")
    if len(leq) != len(elements) or any(len(row) != len(elements) for row in leq):
        return problems + ["order table is not square over the nodes"]
    parsed = [parse_partition(label, k) for label in elements]
    if None in parsed:
        return problems + [f"label {elements[parsed.index(None)]!r} is not a partition"]
    if len(set(parsed)) != len(parsed):
        problems.append("duplicate partition labels")
    pairs = [_related_pairs(p) for p in parsed]
    for i in range(len(parsed)):
        for j in range(len(parsed)):
            if orientation == "subalgebra":
                expected = pairs[j] <= pairs[i]  # finer partition, larger algebra
            else:
                expected = pairs[i] <= pairs[j]
            if bool(leq[i][j]) != expected:
                return problems + [f"leq[{i}][{j}] is {leq[i][j]}, refinement says {expected}"]
    return problems


def _masks(leq):
    n = len(leq)
    up = [sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)]
    dn = [sum(1 << i for i in range(n) if leq[i][j]) for j in range(n)]
    return up, dn


def cover_pairs(leq):
    """Covers (i, j) of an order table, by bitmask brute force."""
    up, dn = _masks(leq)
    out = set()
    for i in range(len(leq)):
        strict = up[i] & ~(1 << i)
        rest = strict
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if strict & dn[j] & ~(1 << j) == 0:
                out.add((i, j))
    return out


def bottom_of(leq):
    for b in range(len(leq)):
        if all(leq[b]):
            return b
    return None


def _least(leq, candidates):
    for u in candidates:
        if all(leq[u][v] for v in candidates):
            return u
    return None


def _greatest(leq, candidates):
    for g in candidates:
        if all(leq[m][g] for m in candidates):
            return g
    return None


def lub(leq, subset):
    n = len(leq)
    return _least(leq, [u for u in range(n) if all(leq[a][u] for a in subset)])


def missing_meet(leq):
    """A pair without a greatest lower bound, or None."""
    n = len(leq)
    for i in range(n):
        for j in range(i, n):
            lower = [m for m in range(n) if leq[m][i] and leq[m][j]]
            if _greatest(leq, lower) is None:
                return (i, j)
    return None


def atomistic(leq):
    """None without a least element; else whether every element is the join
    of the atoms below it."""
    b = bottom_of(leq)
    if b is None:
        return None
    atoms = [j for i, j in cover_pairs(leq) if i == b]
    return all(lub(leq, [a for a in atoms if leq[a][c]]) == c for c in range(len(leq)))


# ---------------------------------------------------------------------------
# the large workload


def check_atoms(atom_bases, leq, payload_bases, k):
    """2^(k-1)-1 two-dimensional atoms, equal to the covers of the bottom.

    Bases are canonical echelon forms as nested string lists, so equal
    algebras have equal bases.
    """
    problems = []
    if len(atom_bases) != 2 ** (k - 1) - 1:
        problems.append(f"{len(atom_bases)} atoms, expected {2 ** (k - 1) - 1}")
    dims = sorted({len(b) for b in atom_bases})
    if dims != [2]:
        problems.append(f"atom dimensions {dims}, expected [2]")
    b = bottom_of(leq)
    if b is None:
        return problems + ["lattice has no bottom"]
    covers = {repr(payload_bases[j]) for i, j in cover_pairs(leq) if i == b}
    if {repr(x) for x in atom_bases} != covers:
        problems.append("atoms differ from the covers of the bottom")
    return problems


def check_all_flags(flags):
    bad = [key for key in PROPERTY_KEYS if flags.get(key) is not True]
    return [f"flags {bad} not true"] if bad else []


def _subset_labels(text):
    """``{{},{1},{2,3}}`` as a list of frozensets."""
    if not (text.startswith("{") and text.endswith("}")):
        return None
    return [frozenset(int(x) for x in m.split(",") if x)
            for m in re.findall(r"\{([0-9,]*)\}", text[1:-1])]


def check_caf_iso(report, k):
    """A bijection onto Bell(k) Boolean subalgebras, each being exactly the
    unions of blocks of its partition."""
    problems = []
    if report.get("size") != bell(k):
        problems.append(f"size {report.get('size')}, expected Bell({k}) = {bell(k)}")
    pairs = report.get("correspondence", [])
    if len(pairs) != bell(k):
        problems.append(f"{len(pairs)} correspondences, expected {bell(k)}")
    if len({p["subalgebra"] for p in pairs}) != len(pairs):
        problems.append("correspondence is not injective on subalgebras")
    if len({p["projections"] for p in pairs}) != len(pairs):
        problems.append("correspondence is not injective on Boolean subalgebras")
    for p in pairs:
        blocks = parse_partition(p["subalgebra"], k)
        members = _subset_labels(p["projections"])
        if blocks is None or members is None:
            return problems + [f"unreadable pair {p}"]
        unions = set()
        for mask in range(1 << len(blocks)):
            unions.add(frozenset().union(*(b for i, b in enumerate(blocks) if mask >> i & 1)))
        if set(members) != unions or len(members) != len(unions):
            return problems + [f"{p['subalgebra']} is sent to {p['projections']}"]
    return problems


def check_partition_lattice(elements, leq, n):
    problems = []
    if len(elements) != bell(n):
        problems.append(f"{len(elements)} nodes, expected Bell({n}) = {bell(n)}")
    parsed = [parse_partition(label, n) for label in elements]
    if None in parsed or len(set(parsed)) != len(parsed):
        problems.append("labels are not distinct partitions")
    edges = len(cover_pairs(leq))
    if edges != partition_hasse_edges(n):
        problems.append(f"{edges} Hasse edges, expected {partition_hasse_edges(n)}")
    return problems


def cantor_sweep(depth):
    """Integer interval sweep on the grid of 3^(depth+1) steps.

    Returns (R block count, [R v S_n full for n = 1..depth], R full).
    """
    scale = 3 ** (depth + 1)

    def stages(length):
        spans = [(0, scale)]
        for _ in range(length):
            nxt = []
            for a, d in spans:
                third = (d - a) // 3
                nxt += [(a, a + third), (d - third, d)]
            spans = nxt
        return spans

    r_blocks = []
    for length in range(depth + 1):
        for a, d in stages(length):
            third = (d - a) // 3
            r_blocks.append((a + third, d - third))

    def full(blocks):
        reach = None
        for lo, hi in sorted(blocks):
            if reach is None:
                if lo != 0:
                    return False
                reach = hi
            elif lo > reach:
                return False
            else:
                reach = max(reach, hi)
        return reach == scale

    joins = [full(r_blocks + stages(n)) for n in range(1, depth + 1)]
    return len(r_blocks), joins, full(r_blocks)


def check_counterexample(report, depth):
    problems = []
    own_blocks, joins, r_full = cantor_sweep(depth)
    if not all(joins) or r_full or own_blocks != 2 ** (depth + 1) - 1:
        problems.append("the integer sweep does not confirm the counterexample")
    if report.get("depth") != depth:
        problems.append(f"depth {report.get('depth')}, expected {depth}")
    if report.get("r_blocks") != own_blocks:
        problems.append(f"r_blocks {report.get('r_blocks')}, sweep finds {own_blocks}")
    checks = {c["name"]: c["pass"] for c in report.get("checks", [])}
    for n in range(1, depth + 1):
        if checks.get(f"join_full:n={n}") is not True:
            problems.append(f"join_full:n={n} missing or failed")
    if checks.get("join_diagonal_is_r") is not True:
        problems.append("join_diagonal_is_r missing or failed")
    if not all(checks.values()):
        problems.append("some check failed")
    return problems


def own_cb_rank(n, opens):
    """Iterated isolated-point removal on index sets: (rank, residue)."""
    current = frozenset(range(n))
    family = [frozenset(o) for o in opens]
    rank = 0
    while current:
        traces = {o & current for o in family}
        isolated = {p for p in current if frozenset((p,)) in traces}
        if not isolated:
            return rank, current
        current -= isolated
        rank += 1
    return rank, frozenset()


def check_ordinal_topology(n_points, opens, rank, residue, value):
    """The order topology on [0, value] is discrete: rank 1, empty residue."""
    problems = []
    n = value + 1
    if n_points != n:
        problems.append(f"{n_points} points, expected {n}")
    family = {frozenset(o) for o in opens}
    if len(family) != 2 ** n:
        problems.append(f"{len(family)} opens, expected 2^{n}")
    if any(frozenset((p,)) not in family for p in range(n)):
        problems.append("a singleton is not open")
    if (rank, frozenset(residue)) != (1, frozenset()) or own_cb_rank(n, family) != (1, frozenset()):
        problems.append(f"rank {rank} with residue {sorted(residue)}, expected (1, [])")
    return problems


# ---------------------------------------------------------------------------
# the cli workload


def _canonical_classes(classes):
    return sorted(sorted(c) for c in classes)


def own_join(n, a, b):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rel in (a, b):
        for cls in rel:
            for x in cls[1:]:
                parent[find(x)] = find(cls[0])
    groups = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    return _canonical_classes(groups.values())


def own_meet(a, b):
    out = []
    for x in a:
        for y in b:
            common = set(x) & set(y)
            if common:
                out.append(sorted(common))
    return _canonical_classes(out)


def _error_report(code, report):
    if code != 2:
        return [f"exit {code}, expected 2"]
    error = (report or {}).get("results", {}).get("error")
    if not (isinstance(error, dict) and error.get("type") and "message" in error):
        return ["no error report"]
    return []


def check_cli(kind, spec, code, report):
    """Check one ``--json`` request: ``code`` is the exit code (None when an
    exception escaped ``main``), ``report`` the parsed report or None."""
    if kind in ("usage_error", "fault:leq_string", "fault:duplicate_labels",
                "fault:dim_string"):
        return _error_report(code, report)
    if code != 0 or report is None:
        return [f"exit {code}, expected 0"]
    results = report.get("results", {})
    if kind == "poset_report":
        flags = results["report"]
        problems = []
        for key in ("algebraic", "continuous", "quasi_continuous", "quasi_algebraic",
                    "order_scattered"):
            if flags.get(key) is not True:
                problems.append(f"{key} is {flags.get(key)}")
        expected_meet = None if missing_meet(spec["leq"]) is not None else True
        if flags.get("meet_continuous") is not expected_meet:
            problems.append(f"meet_continuous {flags.get('meet_continuous')}, "
                            f"expected {expected_meet}")
        if flags.get("atomistic") is not atomistic(spec["leq"]):
            problems.append(f"atomistic {flags.get('atomistic')}, "
                            f"expected {atomistic(spec['leq'])}")
        return problems
    if kind == "poset_check":
        poset = results.get("poset", {})
        same = poset.get("elements") == spec["elements"] and poset.get("leq") == spec["leq"]
        return [] if results.get("valid") is True and same else ["poset not echoed as valid"]
    if kind == "poset_hasse":
        got = {tuple(p) for p in results.get("covers", [])}
        return [] if got == cover_pairs(spec["leq"]) else ["covers differ from brute force"]
    if kind in ("eqrel_join", "eqrel_meet"):
        a, b = spec["a"]["classes"], spec["b"]["classes"]
        expected = own_join(spec["a"]["n"], a, b) if kind == "eqrel_join" else own_meet(a, b)
        got = _canonical_classes(results.get("classes", []))
        return [] if got == expected else [f"classes {got}, expected {expected}"]
    if kind == "eqrel_lattice":
        return check_partition_order(results["elements"], results["leq"], spec["n"],
                                     spec["orientation"])
    if kind == "cantor_verify":
        return check_counterexample(results["report"], spec["depth"])
    if kind == "cantor_chain":
        n = spec["n"]
        expected = [[(Fraction(i, n + 1), Fraction(1))] for i in range(1, n + 1)]
        got = [[(Fraction(lo), Fraction(hi)) for lo, hi in w] for w in results["witnesses"]]
        return [] if got == expected else ["chain witnesses differ"]
    if kind == "calg_generate":
        ok = results.get("dimension") == spec["k"] and results.get("commutative") is True
        return [] if ok else [f"dimension {results.get('dimension')}, expected {spec['k']}"]
    if kind == "calg_lattice":
        got, want = len(results.get("elements", [])), bell(spec["k"])
        return [] if got == want else [f"{got} subalgebras, expected {want}"]
    if kind == "calg_atoms":
        got, want = results.get("count"), 2 ** (spec["k"] - 1) - 1
        ok = got == want and len(results["atoms"]) == want
        return [] if ok else [f"{got} atoms, expected {want}"]
    if kind == "calg_spectrum":
        got = len(results["spectrum"]["points"])
        return [] if got == spec["k"] else [f"{got} spectrum points, expected {spec['k']}"]
    if kind == "calg_caf-iso":
        return check_caf_iso(results["iso"], spec["k"])
    if kind == "omp_validate":
        ok = results.get("valid") is True and len(results.get("elements", [])) == spec["size"]
        return [] if ok else ["orthomodular poset not validated"]
    if kind == "omp_boolsub":
        got, want = results.get("count"), spec["count"]
        return [] if got == want else [f"{got} Boolean subalgebras, expected {want}"]
    if kind == "cb_rank":
        got = results.get("rank")
        return [] if got == spec["rank"] else [f"rank {got}, expected {spec['rank']}"]
    if kind in ("topo_check", "fault:int_labels"):
        points = spec["points"]
        index = {p: i for i, p in enumerate(points)}
        rank, residue = own_cb_rank(len(points), [[index[p] for p in o] for o in spec["opens"]])
        expected = (rank, sorted(str(points[i]) for i in residue), not residue)
        got = (results.get("rank"), results.get("residue"), results.get("scattered"))
        return [] if got == expected else [f"(rank, residue, scattered) {got}, expected {expected}"]
    if kind == "fault:basis_only_lattice":
        got = len(results.get("elements", []))
        return [] if got == spec["count"] else [f"{got} subalgebras, expected {spec['count']}"]
    raise ValueError(f"no checker for request kind {kind!r}")
