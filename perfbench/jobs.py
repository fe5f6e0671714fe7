"""The job lists of the three workloads.

A job is ``(name, run, check)``: ``run()`` calls the program and is timed;
``check(output)`` is not timed, turns the output into plain data and
returns one list of problems per operation (empty when the operation's
output is correct).  Every job builds its objects anew from plain data, so
no lazy cache on a program object carries from one job to the next.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

import checks
from cstardom import cantor, order, ortho, partitions, scatter, staralg


def accept_jobs(data):
    from cstardom import acceptance

    def check(results):
        problems = [[] if r.passed else [f"criterion {r.number}: {r.details}"] for r in results]
        if [r.number for r in results] != list(range(1, 12)):
            problems.append(["the eleven criteria did not all run"])
        return problems

    # exactly what ``cstardom accept all`` runs
    return [("accept all", lambda: acceptance.run_acceptance("all"), check)]


def _algebra(job):
    matrices = [staralg.Matrix.from_json_list(m) for m in job["generators"]]
    return staralg.generated_algebra(matrices, dim=job["dim"])


def _bases(algebras):
    return [a.to_json_dict()["basis"] for a in algebras]


def large_jobs(data):
    out = []
    for job in data["jobs"]:
        kind = job["job"]
        if kind == "givens_lattice":
            def run(job=job):
                algebra = _algebra(job)
                lattice = staralg.c_lattice(algebra)
                return lattice, order.domain_report(lattice), staralg.atoms(algebra)

            def check(output, k=job["dim"]):
                lattice, report, atom_list = output
                table = lattice.to_json_dict()
                return [
                    checks.check_partition_order(table["elements"], table["leq"], k, "subalgebra")
                    + checks.check_all_flags(report.flags())
                    + checks.check_atoms(_bases(atom_list), table["leq"],
                                         _bases(lattice.payloads), k)
                ]
        elif kind == "caf_iso":
            def run(job=job):
                return ortho.verify_caf_iso(_algebra(job))

            def check(report, k=job["dim"]):
                return [checks.check_caf_iso(report.to_json_dict(), k)]
        elif kind == "counterexample":
            def run(depth=job["depth"]):
                return cantor.verify_counterexample(depth)

            def check(report, depth=job["depth"]):
                return [checks.check_counterexample(report.to_json_dict(), depth)]
        elif kind == "partition_lattice":
            def run(n=job["n"]):
                return partitions.partition_lattice(n, partitions.ORIENT_SUBALGEBRA)

            def check(lattice, n=job["n"]):
                table = lattice.to_json_dict()
                return [checks.check_partition_lattice(table["elements"], table["leq"], n)]
        elif kind == "ordinal_topology":
            def run(value=job["value"]):
                topology = scatter.ordinal_interval_topology(value)
                return topology, scatter.cb_rank_fin(topology)

            def check(output, value=job["value"]):
                topology, (rank, residue) = output
                n = len(topology.points)
                opens = [s for size in range(n + 1)
                         for s in itertools.combinations(range(n), size)
                         if topology.is_open(s)]
                return [checks.check_ordinal_topology(n, opens, rank, residue, value)]
        else:
            raise ValueError(f"unknown large job {kind!r}")
        out.append((kind, run, check))
    return out


def cli_jobs(data, tracer=None):
    from cstardom import cli

    jobs = []
    for request in data["requests"]:
        def run(argv=request["argv"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            code = error = None
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a traceback is an outcome to record
                    error = f"{type(exc).__name__}: {exc}"
            return code, stdout.getvalue(), error

        def check(output, request=request):
            code, text, error = output
            if tracer is not None:
                tracer.counts["cli.report_bytes"] += len(text.encode())
            report = None
            if error is None:
                try:
                    report = json.loads(text)
                except json.JSONDecodeError:
                    return [["report is not JSON"]]
            problems = checks.check_cli(request["kind"], request["spec"], code, report)
            if error is not None:
                problems = [f"raised {error}"] + problems
            return [problems]

        jobs.append((request["kind"], run, check))
    return jobs


def build(workload, data, tracer=None):
    if workload == "accept":
        return accept_jobs(data)
    if workload == "large":
        return large_jobs(data)
    return cli_jobs(data, tracer)
