"""Command-line front end.

One executable with subcommand groups; every input is a JSON file, every
subcommand has a ``--json`` mode emitting a machine-readable run report,
and DOT output goes wherever ``--dot`` points.  Exit codes: 0 all checks
passed, 1 a verification check failed, 2 usage or input errors; a reader
that closes stdout early leaves the code as it was.

The one parser tree comes from the ``_COMMANDS`` table, is built on first
use and is kept for the process.  Every request but help ends in one report,
usage errors included: with ``--json`` it is printed as JSON.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from . import __version__, acceptance, cantor, order, ortho, partitions, scatter, staralg
from .errors import (
    AssertionFailed,
    BadParameters,
    CstardomError,
    IsoFailure,
    ParseError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

#: errors that mean a verification check did not pass; every other package
#: error signals unusable input or parameters and exits 2
_CHECK_ERRORS = (AssertionFailed, IsoFailure)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    start = time.perf_counter()
    digest = hashlib.sha256()
    # what a request that does not parse leaves: a report with no command
    args = argparse.Namespace(command_path=None, json=False)
    try:
        args = _parser().parse_args(argv)
        results, failed = args.handler(args, digest)
        code = EXIT_CHECK_FAILED if failed else EXIT_OK
    except SystemExit:
        # help, which argparse has printed; every parse failure raises ParseError
        return EXIT_OK
    except (CstardomError, OSError) as exc:
        results = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = EXIT_CHECK_FAILED if isinstance(exc, _CHECK_ERRORS) else EXIT_USAGE
    report = {
        "command": args.command_path,
        "inputs_digest": digest.hexdigest(),
        "results": results,
        "versions": {"cstardom": __version__, "python": sys.version.split()[0]},
        "wall_time_s": round(time.perf_counter() - start, 6),
        "exit_code": code,
    }
    try:
        if args.json or "--json" in argv:
            print(json.dumps(report, sort_keys=True))
        else:
            _print_human(results)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; stdout now goes to devnull, so
        # the flush at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _print_human(results):
    if "error" in results:
        error = results["error"]
        print(f"error ({error['type']}): {error['message']}", file=sys.stderr)
        return
    for line in results.get("lines", []):
        print(line)


def _read_json(path, digest):
    with open(path, "rb") as handle:
        raw = handle.read()
    digest.update(raw)
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _digest_args(digest, *values):
    for value in values:
        digest.update(repr(value).encode())


def _write_dot(args, dot_text, results):
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(dot_text)
        results["dot_file"] = args.dot
    else:
        results["dot"] = dot_text
        results.setdefault("lines", []).append(dot_text.rstrip("\n"))


# ---------------------------------------------------------------------------
# input decoding


def _poset_from_json(data):
    if not isinstance(data, dict) or "elements" not in data or "leq" not in data:
        raise ParseError("poset JSON needs 'elements' and 'leq'")
    return order.validate_poset(
        data["elements"], data["leq"], orientation=data.get("orientation")
    )


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list_of_lists(value):
    return isinstance(value, list) and all(isinstance(item, list) for item in value)


def _eqrel_from_json(data):
    if not isinstance(data, dict) or "n" not in data or "classes" not in data:
        raise ParseError("relation JSON needs 'n' and 'classes'")
    n, classes = data["n"], data["classes"]
    if not _is_int(n) or n < 0:
        raise ParseError(f"relation 'n' must be a non-negative integer, not {n!r}")
    if not _is_list_of_lists(classes) or not all(_is_int(x) for cls in classes for x in cls):
        raise ParseError("relation 'classes' must be a list of lists of integers")
    # refused before the ground 1..n is built, so a huge n costs nothing
    if n > sum(map(len, classes)):
        raise BadParameters("classes do not cover the ground set")
    return partitions.EqRel(range(1, n + 1), classes)


def _matrices_from_json(data, key):
    entries = data.get(key, [])
    if not isinstance(entries, list) or not all(_is_list_of_lists(m) for m in entries):
        raise ParseError(f"algebra '{key}' must be a list of matrices (lists of rows)")
    return [staralg.Matrix.from_json_list(m) for m in entries]


def _algebra_from_json(data):
    if not isinstance(data, dict) or "dim" not in data:
        raise ParseError("algebra JSON needs 'dim' plus 'generators' or 'basis'")
    dim = data["dim"]
    if not _is_int(dim) or dim < 1:
        raise ParseError(f"algebra 'dim' must be a positive integer, not {dim!r}")
    generators = _matrices_from_json(data, "generators")
    if "basis" in data:
        basis = _matrices_from_json(data, "basis")
        return staralg.StarAlgebra(dim, basis, generators=generators)
    return staralg.generated_algebra(generators, dim=dim)


def _omp_from_json(data):
    if not isinstance(data, dict):
        raise ParseError("orthomodular poset JSON must be an object")
    for key in ("elements", "leq", "ortho"):
        if key not in data:
            raise ParseError("orthomodular poset JSON needs 'elements', 'leq' and 'ortho'")
    return ortho.validate_omp(order.validate_poset(data["elements"], data["leq"]), data["ortho"])


def _topology_from_json(data):
    if not isinstance(data, dict) or "points" not in data or "opens" not in data:
        raise ParseError("topology JSON needs 'points' and 'opens'")
    if not isinstance(data["points"], list) or not _is_list_of_lists(data["opens"]):
        raise ParseError("topology 'points' must be a list and 'opens' a list of lists")
    return scatter.FinTop(data["points"], data["opens"])


# ---------------------------------------------------------------------------
# poset group


def _cmd_poset_check(args, digest):
    data = _read_json(args.input, digest)
    poset = _poset_from_json(data)
    results = {
        "poset": poset.to_json_dict(),
        "valid": True,
        "lines": [f"valid poset with {poset.n} element(s)"],
    }
    return results, False


def _cmd_poset_report(args, digest):
    data = _read_json(args.input, digest)
    poset = _poset_from_json(data)
    report = order.domain_report(poset)
    lines = [f"{key}: {value}" for key, value in report.flags().items()]
    results = {"report": report.to_json_dict(), "lines": lines}
    return results, False


def _cmd_poset_hasse(args, digest):
    data = _read_json(args.input, digest)
    poset = _poset_from_json(data)
    results = {"covers": [list(pair) for pair in poset.covers()], "lines": []}
    _write_dot(args, order.hasse_dot(poset), results)
    return results, False


# ---------------------------------------------------------------------------
# eqrel group


def _cmd_eqrel_binop(args, digest):
    a = _eqrel_from_json(_read_json(args.a, digest))
    b = _eqrel_from_json(_read_json(args.b, digest))
    out = partitions.join(a, b) if args.action == "join" else partitions.meet(a, b)
    results = dict(out.to_json_dict())
    results["lines"] = [partitions.label_of(out)]
    return results, False


def _cmd_eqrel_lattice(args, digest):
    _digest_args(digest, args.n, args.orientation)
    poset = partitions.partition_lattice(args.n, args.orientation)
    results = dict(poset.to_json_dict())
    results["lines"] = [
        f"{poset.n} partitions of a {args.n}-set ({args.orientation} order)"
    ]
    if args.dot is not None or args.emit_dot:
        _write_dot(args, order.hasse_dot(poset, name="partitions"), results)
    return results, False


# ---------------------------------------------------------------------------
# cantor group


def _cmd_cantor_verify(args, digest):
    _digest_args(digest, args.depth)
    report = cantor.verify_counterexample(args.depth)
    lines = [
        f"depth {report.depth}: {report.r_blocks} block(s) in the truncated relation"
    ]
    # a failing check raises AssertionFailed, so every check listed passed
    lines.extend(f"[PASS] {check.name}: {check.witness}" for check in report.checks)
    results = {"report": report.to_json_dict(), "lines": lines}
    return results, False


def _cmd_cantor_chain(args, digest):
    _digest_args(digest, args.n)
    chain = cantor.dense_chain_witness(args.n)
    results = {
        "witnesses": [rel.to_json_list() for rel in chain],
        "lines": [f"[{l}, {u}]" for rel in chain for l, u in rel.blocks],
    }
    return results, False


# ---------------------------------------------------------------------------
# calg group


def _cmd_calg_generate(args, digest):
    algebra = _algebra_from_json(_read_json(args.input, digest))
    results = dict(algebra.to_json_dict())
    results["dimension"] = algebra.dimension
    results["commutative"] = staralg.is_commutative(algebra)
    results["lines"] = [
        f"algebra of dimension {algebra.dimension} "
        f"({'commutative' if results['commutative'] else 'noncommutative'})"
    ]
    return results, False


def _cmd_calg_lattice(args, digest):
    algebra = _algebra_from_json(_read_json(args.input, digest))
    poset = staralg.c_lattice(algebra)
    results = dict(poset.to_json_dict())
    results["lines"] = [f"{poset.n} commutative subalgebra(s)"]
    if args.dot is not None or args.emit_dot:
        _write_dot(args, order.hasse_dot(poset, name="subalgebras"), results)
    return results, False


def _cmd_calg_atoms(args, digest):
    algebra = _algebra_from_json(_read_json(args.input, digest))
    atom_list = staralg.atoms(algebra)
    results = {
        "count": len(atom_list),
        "atoms": [a.to_json_dict() for a in atom_list],
        "lines": [f"{len(atom_list)} atom(s)"],
    }
    return results, False


def _cmd_calg_spectrum(args, digest):
    algebra = _algebra_from_json(_read_json(args.input, digest))
    spec = staralg.spectrum(algebra)
    results = {"spectrum": spec.to_json_dict()}
    results["lines"] = [f"{len(spec.points)} spectrum point(s)"]
    return results, False


def _cmd_caf_iso(args, digest):
    algebra = _algebra_from_json(_read_json(args.input, digest))
    report = ortho.verify_caf_iso(algebra)
    results = {
        "iso": report.to_json_dict(),
        "lines": [f"order isomorphism on {report.size} node(s)"],
    }
    return results, False


# ---------------------------------------------------------------------------
# omp group


def _cmd_omp_validate(args, digest):
    omp = _omp_from_json(_read_json(args.input, digest))
    results = {
        "valid": True,
        "elements": list(omp.elements),
        "lines": [f"valid orthomodular poset with {omp.n} element(s)"],
    }
    return results, False


def _cmd_omp_boolsub(args, digest):
    omp = _omp_from_json(_read_json(args.input, digest))
    poset = ortho.boolean_subalgebras(omp)
    results = dict(poset.to_json_dict())
    results["count"] = poset.n
    results["lines"] = [f"{poset.n} Boolean subalgebra(s)"]
    if args.dot is not None or args.emit_dot:
        _write_dot(args, order.hasse_dot(poset, name="boolsub"), results)
    return results, False


# ---------------------------------------------------------------------------
# scatteredness group


def _cmd_cb_rank(args, digest):
    _digest_args(digest, args.ordinal)
    alpha = scatter.OrdinalCNF.parse(args.ordinal)
    rank = scatter.cb_rank_ord(alpha)
    results = {
        "ordinal": str(alpha),
        "rank": rank,
        "lines": [f"rank of [0, {alpha}] is {rank}"],
    }
    return results, False


def _cmd_topo_check(args, digest):
    topology = _topology_from_json(_read_json(args.input, digest))
    stone = scatter.stone_scattered_check(topology)
    hausdorff = scatter.is_hausdorff_fin(topology)
    results = {
        "valid": True,
        "points": [str(p) for p in topology.points],
        "scattered": stone.scattered,
        "rank": stone.rank,
        "residue": sorted(str(p) for p in stone.residue),
        "hausdorff": hausdorff,
        "stonean": stone.stonean,
        # each minimal open is connected, so the components are singletons
        # exactly when the minimal opens are: the Hausdorff test
        "totally_disconnected": hausdorff,
        "stone_scattered": stone.to_json_dict(),
    }
    results["lines"] = [
        f"{key}: {results[key]}"
        for key in ("scattered", "rank", "hausdorff", "stonean", "totally_disconnected")
    ]
    return results, False


# ---------------------------------------------------------------------------
# acceptance


def _cmd_accept(args, digest):
    _digest_args(digest, args.selector)
    try:
        outcomes = acceptance.run_acceptance(args.selector)
    except ValueError as exc:
        raise BadParameters(str(exc)) from exc
    results = {
        "criteria": [r.to_json_dict() for r in outcomes],
        "lines": [r.line() for r in outcomes],
    }
    failed = not all(r.passed and r.within_budget for r in outcomes)
    return results, failed


# ---------------------------------------------------------------------------
# parser assembly


def _required(flag, **options):
    return ((flag,), {"required": True, **options})


_JSON = (("--json",), {"action": "store_true", "help": "emit a JSON run report"})
_INPUT = _required("--input")
_DOT = (("--dot",), {"default": None})
_EMIT_DOT = (("--emit-dot",), {"action": "store_true", "dest": "emit_dot"})

#: (group, action) -> (handler, argument specs), in the order that usage
#: and help list them; ``accept`` sits at the root, so its action is None
_COMMANDS = {
    ("poset", "check"): (_cmd_poset_check, [_JSON, _INPUT]),
    ("poset", "report"): (_cmd_poset_report, [_JSON, _INPUT]),
    ("poset", "hasse"): (_cmd_poset_hasse, [_JSON, _INPUT, _DOT]),
    ("eqrel", "join"): (_cmd_eqrel_binop, [_JSON, _required("--a"), _required("--b")]),
    ("eqrel", "meet"): (_cmd_eqrel_binop, [_JSON, _required("--a"), _required("--b")]),
    ("eqrel", "lattice"): (_cmd_eqrel_lattice, [
        _JSON,
        _required("--n", type=int),
        _required("--orientation",
                  choices=[partitions.ORIENT_REFINEMENT, partitions.ORIENT_SUBALGEBRA]),
        _DOT,
        _EMIT_DOT,
    ]),
    ("cantor", "verify"): (_cmd_cantor_verify, [_JSON, _required("--depth", type=int)]),
    ("cantor", "chain"): (_cmd_cantor_chain, [_JSON, _required("--n", type=int)]),
    ("calg", "generate"): (_cmd_calg_generate, [_JSON, _INPUT]),
    ("calg", "atoms"): (_cmd_calg_atoms, [_JSON, _INPUT]),
    ("calg", "spectrum"): (_cmd_calg_spectrum, [_JSON, _INPUT]),
    ("calg", "caf-iso"): (_cmd_caf_iso, [_JSON, _INPUT]),
    ("calg", "lattice"): (_cmd_calg_lattice, [_JSON, _INPUT, _DOT, _EMIT_DOT]),
    ("omp", "validate"): (_cmd_omp_validate, [_JSON, _INPUT]),
    ("omp", "boolsub"): (_cmd_omp_boolsub, [_JSON, _INPUT, _DOT, _EMIT_DOT]),
    ("omp", "caf-iso"): (_cmd_caf_iso, [_JSON, _INPUT]),
    ("cb", "rank"): (_cmd_cb_rank, [_JSON, _required("--ordinal")]),
    ("topo", "check"): (_cmd_topo_check, [_JSON, _INPUT]),
    ("accept", None): (_cmd_accept, [
        (("selector",), {"nargs": "?", "default": "all"}),
        _JSON,
    ]),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so they leave through the report."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def _parser():
    """The whole command tree, built from ``_COMMANDS`` on first use and kept
    for the process.  argparse keeps no per-parse state on a parser and reads
    the terminal width and ``sys.stdout``/``sys.stderr`` only when it prints,
    so one parser serves every request."""
    parser = _Parser(
        prog="cstardom",
        description="subalgebra lattices, partitions, and their domain-theoretic checks",
    )
    # subparsers are built with the class of their parent, so each is a _Parser
    subparsers = parser.add_subparsers(dest="group", required=True)
    actions = {}
    for (group, action), (handler, specs) in _COMMANDS.items():
        if action is None:
            leaf = subparsers.add_parser(group)
        else:
            if group not in actions:
                actions[group] = subparsers.add_parser(group).add_subparsers(
                    dest="action", required=True
                )
            leaf = actions[group].add_parser(action)
        for flags, options in specs:
            leaf.add_argument(*flags, **options)
        command_path = group if action is None else f"{group} {action}"
        leaf.set_defaults(handler=handler, command_path=command_path)
    return parser


if __name__ == "__main__":
    sys.exit(main())
