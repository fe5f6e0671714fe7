"""The benchmark's own checks must be able to fail.

Each checker gets a genuine program output at a small size, which it must
accept, and a corrupted copy (a flipped ``leq`` cell, a dropped node, a
wrong count), which it must reject.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import io
import json
import os
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
import pytest  # noqa: E402
from cstardom import cantor, cli, order, ortho, partitions, scatter, staralg  # noqa: E402


def _flip(leq, i, j):
    leq = copy.deepcopy(leq)
    leq[i][j] = not leq[i][j]
    return leq


def _drop_node(elements, leq, i):
    keep = [k for k in range(len(elements)) if k != i]
    return [elements[k] for k in keep], [[leq[a][b] for b in keep] for a in keep]


@pytest.fixture(scope="module")
def conjugated4():
    import random

    generators = inputs.conjugated_diagonal_generators(random.Random(7), 4)
    matrices = [staralg.Matrix.from_json_list(m) for m in generators]
    algebra = staralg.generated_algebra(matrices, dim=4)
    return algebra, staralg.c_lattice(algebra)


def test_conjugated_generators_are_parsed_exactly(conjugated4):
    algebra, lattice = conjugated4
    assert algebra.dimension == 4 and lattice.n == inputs.bell(4)


def test_c_lattice_check(conjugated4):
    _, lattice = conjugated4
    table = lattice.to_json_dict()
    elements, leq = table["elements"], table["leq"]
    assert checks.check_partition_order(elements, leq, 4, "subalgebra") == []
    assert checks.check_partition_order(elements, _flip(leq, 3, 7), 4, "subalgebra")
    assert checks.check_partition_order(*_drop_node(elements, leq, 5), 4, "subalgebra")


def test_atoms_check(conjugated4):
    algebra, lattice = conjugated4
    leq = lattice.to_json_dict()["leq"]
    atoms = jobs._bases(staralg.atoms(algebra))
    payloads = jobs._bases(lattice.payloads)
    assert checks.check_atoms(atoms, leq, payloads, 4) == []
    assert checks.check_atoms(atoms[1:], leq, payloads, 4)
    top = [i for i in range(lattice.n) if all(row[i] for row in leq)][0]
    assert checks.check_atoms(atoms[1:] + [payloads[top]], leq, payloads, 4)


def test_flags_check(conjugated4):
    _, lattice = conjugated4
    flags = order.domain_report(lattice).flags()
    assert checks.check_all_flags(flags) == []
    assert checks.check_all_flags(dict(flags, atomistic=None))


def test_caf_iso_check():
    algebra = staralg.generated_algebra(
        [staralg.Matrix.diag([1, 0, 0]), staralg.Matrix.diag([1, 1, 0])], dim=3)
    report = ortho.verify_caf_iso(algebra).to_json_dict()
    assert checks.check_caf_iso(report, 3) == []
    dropped = dict(report, correspondence=report["correspondence"][1:])
    assert checks.check_caf_iso(dropped, 3)
    assert checks.check_caf_iso(dict(report, size=4), 3)
    swapped = copy.deepcopy(report)
    pairs = swapped["correspondence"]
    pairs[1]["projections"], pairs[2]["projections"] = (
        pairs[2]["projections"], pairs[1]["projections"])
    assert checks.check_caf_iso(swapped, 3)


def test_partition_lattice_check():
    table = partitions.partition_lattice(4, partitions.ORIENT_SUBALGEBRA).to_json_dict()
    elements, leq = table["elements"], table["leq"]
    assert checks.check_partition_lattice(elements, leq, 4) == []
    i, j = sorted(checks.cover_pairs(leq))[0]
    assert checks.check_partition_lattice(elements, _flip(leq, i, j), 4)
    assert checks.check_partition_lattice(*_drop_node(elements, leq, 2), 4)


def test_counterexample_check():
    report = cantor.verify_counterexample(3).to_json_dict()
    assert checks.check_counterexample(report, 3) == []
    assert checks.check_counterexample(dict(report, r_blocks=14), 3)
    failed = copy.deepcopy(report)
    failed["checks"][1]["pass"] = False
    assert checks.check_counterexample(failed, 3)
    missing = dict(report, checks=[c for c in report["checks"] if c["name"] != "join_full:n=2"])
    assert checks.check_counterexample(missing, 3)


def test_cantor_sweep_matches_the_paper():
    blocks, joins, r_full = checks.cantor_sweep(4)
    assert blocks == 2 ** 5 - 1 and all(joins) and not r_full


def test_ordinal_topology_check():
    topology = scatter.ordinal_interval_topology(3)
    rank, residue = scatter.cb_rank_fin(topology)
    opens = [sorted(o) for o in topology.opens]
    assert checks.check_ordinal_topology(4, opens, rank, residue, 3) == []
    assert checks.check_ordinal_topology(4, [o for o in opens if o != [2]], rank, residue, 3)
    assert checks.check_ordinal_topology(4, opens, 2, residue, 3)


def test_accept_check():
    check = jobs.accept_jobs({})[0][2]
    good = [SimpleNamespace(number=n, passed=True, details="") for n in range(1, 12)]
    assert all(p == [] for p in check(good))
    bad = copy.deepcopy(good)
    bad[5].passed = False
    assert any(check(bad))
    assert any(check(good[:10]))


# -- the cli workload ------------------------------------------------------


def _first_class_merged(results):
    classes = results["classes"]
    if len(classes) < 2:
        return dict(results, classes=[[x] for c in classes for x in c] + [[99]])
    return dict(results, classes=[classes[0] + classes[1]] + classes[2:])


def _flip_report_leq(results):
    return dict(results, leq=_flip(results["leq"], 0, len(results["leq"]) - 1))


CORRUPT = {
    "poset_report": lambda r: dict(r, report=dict(r["report"], atomistic="x")),
    "poset_check": lambda r: dict(r, poset=dict(r["poset"], leq=_flip(r["poset"]["leq"], 0, 1))),
    "poset_hasse": lambda r: dict(r, covers=r["covers"][1:] + [[0, 0]]),
    "eqrel_join": _first_class_merged,
    "eqrel_meet": _first_class_merged,
    "eqrel_lattice": _flip_report_leq,
    "cantor_verify": lambda r: dict(r, report=dict(r["report"], r_blocks=1)),
    "cantor_chain": lambda r: dict(r, witnesses=r["witnesses"][1:]),
    "calg_generate": lambda r: dict(r, dimension=r["dimension"] + 1),
    "calg_lattice": lambda r: dict(r, elements=r["elements"][1:]),
    "calg_atoms": lambda r: dict(r, count=r["count"] + 1),
    "calg_spectrum": lambda r: dict(r, spectrum=dict(r["spectrum"], points=["x"])),
    "calg_caf-iso": lambda r: dict(r, iso=dict(r["iso"], size=1)),
    "omp_validate": lambda r: dict(r, elements=r["elements"][1:]),
    "omp_boolsub": lambda r: dict(r, count=r["count"] + 1),
    "cb_rank": lambda r: dict(r, rank=r["rank"] + 1),
    "topo_check": lambda r: dict(r, rank=r["rank"] + 1),
}


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    requests = inputs.cli_requests(0, str(tmp_path_factory.mktemp("fixtures")))
    out = []
    for request in requests:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            try:
                code = cli.main(request["argv"])
            except Exception:  # the kept faults that end in a traceback
                code = None
        report = json.loads(buffer.getvalue()) if code is not None else None
        out.append((request, code, report))
    return out


def test_cli_checks_accept_every_correct_output(cli_outputs):
    for request, code, report in cli_outputs:
        problems = checks.check_cli(request["kind"], request["spec"], code, report)
        assert (problems != []) == request["kind"].startswith("fault:"), (request, problems)


def test_cli_checks_reject_corrupted_outputs(cli_outputs):
    seen = set()
    for request, code, report in cli_outputs:
        kind = request["kind"]
        if kind not in CORRUPT:
            continue
        bad = dict(report, results=CORRUPT[kind](report["results"]))
        assert checks.check_cli(kind, request["spec"], code, bad), request
        assert checks.check_cli(kind, request["spec"], 1, report), request
        seen.add(kind)
    assert seen == set(CORRUPT)


def test_usage_errors_must_exit_2_with_a_report(cli_outputs):
    for request, code, report in cli_outputs:
        if request["kind"] == "usage_error":
            assert checks.check_cli("usage_error", {}, code, report) == []
            assert checks.check_cli("usage_error", {}, 0, report)
            assert checks.check_cli("usage_error", {}, 2, {"results": {}})


def test_kept_faults_count_as_passed_once_mended():
    error = {"results": {"error": {"type": "ParseError", "message": "bad"}}}
    for kind in ("fault:leq_string", "fault:duplicate_labels", "fault:dim_string"):
        assert checks.check_cli(kind, {}, 2, error) == []
    lattice = {"results": {"elements": ["a"] * inputs.bell(3)}}
    assert checks.check_cli("fault:basis_only_lattice", {"count": 5}, 0, lattice) == []
    twin = {"points": ["1", "2", "0"], "opens": [[], ["0"], ["2", "0"], ["1", "2", "0"]]}
    agreed = {"results": {"rank": 3, "residue": [], "scattered": True}}
    assert checks.check_cli("fault:int_labels", twin, 0, agreed) == []


def test_inputs_repeat_for_a_seed(tmp_path):
    first = inputs.cli_requests(3, str(tmp_path / "a"))
    second = inputs.cli_requests(3, str(tmp_path / "b"))
    strip = lambda reqs: [(r["kind"], r["spec"]) for r in reqs]  # noqa: E731
    assert strip(first) == strip(second)
    assert inputs.large_inputs(3) == inputs.large_inputs(3) != inputs.large_inputs(4)
