"""Seeded plain-data inputs for the three workloads.

Everything here is standard-library Python and imports nothing from the
package under test: the program only ever receives the generated data
(matrix entries as strings, JSON fixture files, argv lists).  The same
workload name and seed always give the same inputs.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("accept", "large", "cli")

#: primitive Pythagorean triples with hypotenuse 65 whose legs are coprime
#: to it, in both leg orders: every rotation entry then has the same
#: denominators, so the elimination cost hardly depends on which is drawn
GIVENS_TRIPLES = ((16, 63, 65), (63, 16, 65), (33, 56, 65), (56, 33, 65))

LARGE_SPECTRUM = 6
CAF_SPECTRUM = 5
CANTOR_DEPTH = 10
PARTITION_N = 7
ORDINAL_VALUE = 10

#: request mix of one ``cli`` round
POSET_REPORT_SIZES = (10, 11, 12, 13, 14)
POSET_REPORTS_PER_SIZE = 48
#: denser random posets have far more directed subsets, and their cost
#: varies so much from draw to draw that the round's time would follow
#: the seed
POSET_DENSITIES = (0.1, 0.15, 0.2)
#: a chain has every subset directed: the fixed heaviest poset report,
#: which sets the round's peak memory whatever the seed
ANCHOR_CHAIN = 14


def rng_for(workload, seed):
    # string seeds are hashed with SHA-512, so PYTHONHASHSEED plays no part
    return random.Random(f"perfbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# exact Gaussian rationals as (re, im) Fraction pairs


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _conj(x):
    return (x[0], -x[1])


def _matmul(a, b):
    n = len(a)
    zero = (Fraction(0), Fraction(0))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = _cadd(acc, _cmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _adjoint(a):
    n = len(a)
    return [[_conj(a[j][i]) for j in range(n)] for i in range(n)]


def _identity(n):
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def format_entry(x):
    """The ``a/b+c/d i`` string form the package parses."""
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im} i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)} i"


def givens_rotations(rng, k):
    """A random perfect matching of the k coordinates (one left over when k
    is odd), each pair rotated by a drawn triple with an imaginary sine."""
    points = list(range(k))
    rng.shuffle(points)
    rotations = []
    for a in range(0, k - 1, 2):
        p, q, h = rng.choice(GIVENS_TRIPLES)
        rotations.append((points[a], points[a + 1], p, q, h))
    return rotations


def givens_unitary(rotations, k):
    u = _identity(k)
    for i, j, p, q, h in rotations:
        c, s = (Fraction(p, h), Fraction(0)), (Fraction(0), Fraction(q, h))
        g = _identity(k)
        g[i][i], g[i][j] = c, (-s[0], s[1])  # -conj(s)
        g[j][i], g[j][j] = s, _conj(c)
        u = _matmul(g, u)
    if _matmul(u, _adjoint(u)) != _identity(k):
        raise AssertionError("Givens product is not unitary")
    return u


def conjugated_diagonal_generators(rng, k):
    """Generators diag(1^j 0^(k-j)), j = 1..k-1, conjugated by a seeded
    rational complex Givens unitary, as entry strings."""
    u = givens_unitary(givens_rotations(rng, k), k)
    u_star = _adjoint(u)
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    generators = []
    for j in range(1, k):
        d = [[one if r == c and r < j else zero for c in range(k)] for r in range(k)]
        m = _matmul(_matmul(u, d), u_star)
        generators.append([[format_entry(x) for x in row] for row in m])
    return generators


# ---------------------------------------------------------------------------
# counting references


def bell(n):
    """Bell numbers through the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def stirling2(n, k):
    """Stirling numbers of the second kind, S(n, k), by the recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def partition_hasse_edges(n):
    """Covers in the partition lattice: merge two of the j blocks."""
    return sum(stirling2(n, j) * j * (j - 1) // 2 for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# the large workload


def large_inputs(seed):
    rng = rng_for("large", seed)
    gens6 = conjugated_diagonal_generators(rng, LARGE_SPECTRUM)
    gens5 = conjugated_diagonal_generators(rng, CAF_SPECTRUM)
    return {
        "jobs": [
            {"job": "givens_lattice", "dim": LARGE_SPECTRUM, "generators": gens6},
            {"job": "caf_iso", "dim": CAF_SPECTRUM, "generators": gens5},
            {"job": "counterexample", "depth": CANTOR_DEPTH},
            {"job": "partition_lattice", "n": PARTITION_N},
            {"job": "ordinal_topology", "value": ORDINAL_VALUE},
        ]
    }


# ---------------------------------------------------------------------------
# the cli workload


def random_poset(rng, n, density):
    """Random DAG edges over a shuffled order, transitively closed."""
    order = list(range(n))
    rng.shuffle(order)
    up = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                up[order[a]] |= 1 << order[b]
    for a in reversed(range(n)):
        i = order[a]
        rest = up[i] & ~(1 << i)
        for j in range(n):
            if rest >> j & 1:
                up[i] |= up[j]
    return _poset_data(rng, up)


def random_tree_poset(rng, n):
    """A rooted tree ordered root-upward: every pair has a meet."""
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    up = [0] * n
    # i <= j when i is j or one of its ancestors
    for j in range(n):
        a = j
        while a is not None:
            up[a] |= 1 << j
            a = parent[a]
    return _poset_data(rng, up)


def _poset_data(rng, up):
    n = len(up)
    perm = list(range(n))
    rng.shuffle(perm)  # hide the generation order from the program
    inv = {old: new for new, old in enumerate(perm)}
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1:
                leq[inv[i]][inv[j]] = True
    return {"elements": [f"p{i}" for i in range(n)], "leq": leq}


def random_eqrel(rng, n, blocks):
    labels = [rng.randrange(blocks) for _ in range(n)]
    classes = {}
    for x, b in enumerate(labels, start=1):
        classes.setdefault(b, []).append(x)
    return {"n": n, "classes": list(classes.values())}


def random_topology(rng, n):
    """Up-sets of a random preorder on n points (every finite topology is
    of this form), with string labels."""
    rel = [[i == j or rng.random() < 0.3 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    opens = []
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if all(mask >> j & 1 for i in members for j in range(n) if rel[i][j]):
            opens.append(members)
    return n, opens


def power_set_omp_data(k):
    size = 1 << k
    elements = ["{" + ",".join(str(i + 1) for i in range(k) if m >> i & 1) + "}"
                for m in range(size)]
    leq = [[a & b == a for b in range(size)] for a in range(size)]
    ortho = [(size - 1) ^ a for a in range(size)]
    return {"elements": elements, "leq": leq, "ortho": ortho}


def mo_omp_data(n):
    elements = ["0"] + [f"a{i}{s}" for i in range(1, n + 1) for s in ("", "'")] + ["1"]
    size = len(elements)
    leq = [[i == j or i == 0 or j == size - 1 for j in range(size)] for i in range(size)]
    ortho = list(range(size))
    ortho[0], ortho[-1] = size - 1, 0
    for i in range(1, size - 1, 2):
        ortho[i], ortho[i + 1] = i + 1, i
    return {"elements": elements, "leq": leq, "ortho": ortho}


def diagonal_projection_algebra(rng, dim, k):
    """Generators diag(indicator of S) whose coordinate signatures split the
    dim coordinates into exactly k classes (k = the spectrum size)."""
    while True:
        subsets = [[rng.random() < 0.5 for _ in range(dim)] for _ in range(3)]
        signatures = {tuple(s[i] for s in subsets) for i in range(dim)}
        if len(signatures) == k:
            break
    generators = [
        [[("1" if r == c and s[r] else "0") for c in range(dim)] for r in range(dim)]
        for s in subsets
    ]
    return {"dim": dim, "generators": generators}


def random_ordinal(rng):
    exponents = sorted(rng.sample(range(6), rng.randint(1, 3)), reverse=True)
    terms = []
    for e in exponents:
        c = rng.randint(1, 4)
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append("w" if c == 1 else f"w*{c}")
        else:
            terms.append(f"w^{e}" if c == 1 else f"w^{e}*{c}")
    return "+".join(terms), exponents[0]


#: inputs that show the kept faults; they do not depend on the seed
FAULT_DIAG3_BASIS = {
    "dim": 3,
    "basis": [
        [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
        [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
    ],
}
FAULT_LEQ_STRING = {"elements": ["a"], "leq": "x"}
FAULT_DUPLICATE_LABELS = {"elements": ["a", "a"], "leq": [[True, False], [False, True]]}
FAULT_DIM_STRING = {"dim": "x"}
FAULT_INT_LABELS = {"points": [1, 2, 0], "opens": [[], [0], [2, 0], [1, 2, 0]]}


def cli_requests(seed, fixture_dir):
    """Write the fixture files and return the request list of one round.

    Each request is ``{"kind", "argv", "spec"}``: ``spec`` holds the plain
    data the checker needs.  Kept-fault requests have kind ``fault:*``.
    """
    rng = rng_for("cli", seed)
    os.makedirs(fixture_dir, exist_ok=True)
    requests = []
    counter = [0]

    def fixture(data):
        counter[0] += 1
        path = os.path.join(fixture_dir, f"f{counter[0]:04d}.json")
        with open(path, "w") as handle:
            json.dump(data, handle)
        return path

    def add(kind, argv, spec=None):
        requests.append({"kind": kind, "argv": argv + ["--json"], "spec": spec or {}})

    # poset report: every size the same number of times, so the round's
    # cost hardly depends on the seed; one in four posets is a tree
    for size in POSET_REPORT_SIZES:
        for r in range(POSET_REPORTS_PER_SIZE):
            if r % 4 == 3:
                data = random_tree_poset(rng, size)
            else:
                data = random_poset(rng, size, POSET_DENSITIES[r % 3])
            add("poset_report", ["poset", "report", "--input", fixture(data)], data)
    n = ANCHOR_CHAIN
    chain = {"elements": [f"c{i}" for i in range(n)],
             "leq": [[i <= j for j in range(n)] for i in range(n)]}
    add("poset_report", ["poset", "report", "--input", fixture(chain)], chain)
    # the other subcommands at fixed small sizes; only the contents are
    # drawn, so the round's cost does not follow the seed
    for size in (3, 4, 5, 6, 7, 8, 8, 8):
        data = random_poset(rng, size, rng.choice(POSET_DENSITIES))
        add("poset_check", ["poset", "check", "--input", fixture(data)], data)
    for size in (3, 4, 5, 6, 7, 8, 9, 9):
        data = random_poset(rng, size, rng.choice(POSET_DENSITIES))
        add("poset_hasse", ["poset", "hasse", "--input", fixture(data)], data)
    for op in ("join", "meet"):
        for n in (3, 4, 5, 6, 7, 8, 9, 9):
            a, b = random_eqrel(rng, n, rng.randint(1, n)), random_eqrel(rng, n, rng.randint(1, n))
            add(f"eqrel_{op}", ["eqrel", op, "--a", fixture(a), "--b", fixture(b)],
                {"a": a, "b": b})
    for n, orientation in ((4, "subalgebra"), (4, "refinement")):
        add("eqrel_lattice",
            ["eqrel", "lattice", "--n", str(n), "--orientation", orientation],
            {"n": n, "orientation": orientation})
    for depth in (2, 4):
        add("cantor_verify", ["cantor", "verify", "--depth", str(depth)], {"depth": depth})
    for n in (rng.randint(2, 12), rng.randint(2, 12)):
        add("cantor_chain", ["cantor", "chain", "--n", str(n)], {"n": n})
    for group, action, k in (("calg", "generate", 3), ("calg", "generate", 4),
                             ("calg", "lattice", 3), ("calg", "lattice", 4),
                             ("calg", "atoms", 3), ("calg", "atoms", 4),
                             ("calg", "spectrum", 3), ("calg", "spectrum", 4),
                             ("calg", "caf-iso", 3), ("omp", "caf-iso", 3)):
        data = diagonal_projection_algebra(rng, k + 1, k)
        add(f"calg_{action}", [group, action, "--input", fixture(data)], {"k": k})
    for data, size in ((power_set_omp_data(3), 8), (mo_omp_data(3), 8)):
        add("omp_validate", ["omp", "validate", "--input", fixture(data)], {"size": size})
    add("omp_boolsub", ["omp", "boolsub", "--input", fixture(power_set_omp_data(3))],
        {"count": bell(3)})
    add("omp_boolsub", ["omp", "boolsub", "--input", fixture(mo_omp_data(3))], {"count": 4})
    for _ in range(6):
        text, leading = random_ordinal(rng)
        add("cb_rank", ["cb", "rank", "--ordinal", text], {"rank": leading + 1})
    for n in (2, 3, 4, 5, 6, 2, 3, 4, 5, 6):
        n, opens = random_topology(rng, n)
        labels = [f"s{i}" for i in range(n)]
        data = {"points": labels, "opens": [[labels[i] for i in o] for o in opens]}
        add("topo_check", ["topo", "check", "--input", fixture(data)], data)

    # malformed inputs: each must end in exit 2 with an error report
    bad = random_poset(rng, 4, 0.5)
    bad["leq"][rng.randrange(4)] = [False] * 4  # not reflexive
    add("usage_error", ["poset", "check", "--input", fixture(bad)])
    chain = {"elements": ["a", "b", "c"],
             "leq": [[True, True, False], [False, True, True], [False, False, True]]}
    add("usage_error", ["poset", "report", "--input", fixture(chain)])
    add("usage_error", ["eqrel", "join", "--a", fixture(random_eqrel(rng, 3, 2)),
                        "--b", fixture(random_eqrel(rng, 4, 2))])
    add("usage_error", ["cb", "rank", "--ordinal", "w^x"])
    add("usage_error", ["cantor", "verify", "--depth", "11"])
    add("usage_error", ["topo", "check", "--input",
                        fixture({"points": ["a", "b"], "opens": [[], ["a"], ["b"]]})])
    mutated = mo_omp_data(2)
    mutated["ortho"][1], mutated["ortho"][2] = 1, 2
    add("usage_error", ["omp", "validate", "--input", fixture(mutated)])
    add("usage_error", ["poset", "check", "--input", os.path.join(fixture_dir, "missing.json")])
    add("usage_error", ["accept", "nonesuch"])

    # kept faults, one request each
    add("fault:basis_only_lattice", ["calg", "lattice", "--input", fixture(FAULT_DIAG3_BASIS)],
        {"count": bell(3)})
    add("fault:leq_string", ["poset", "check", "--input", fixture(FAULT_LEQ_STRING)])
    add("fault:duplicate_labels", ["poset", "check", "--input",
                                   fixture(FAULT_DUPLICATE_LABELS)])
    add("fault:dim_string", ["calg", "generate", "--input", fixture(FAULT_DIM_STRING)])
    twin = {"points": [str(p) for p in FAULT_INT_LABELS["points"]],
            "opens": [[str(p) for p in o] for o in FAULT_INT_LABELS["opens"]]}
    add("fault:int_labels", ["topo", "check", "--input", fixture(FAULT_INT_LABELS)], twin)
    return requests
