import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import cstardom
from cstardom import acceptance, cantor, cli, order, ortho, partitions
from cstardom.cli import main
from cstardom.errors import LIMITS, ParseError
from cstardom.scatter import FinTop, is_stonean_fin
from test_ortho import greechie_square
from test_scatter import scattered_by_closed_sets
from test_staralg import rotated_algebra

CHAIN_MAX, LATTICE_MAX = LIMITS["chain"][2], LIMITS["lattice"][2]


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "chain3": write(
            "chain3.json",
            {
                "elements": ["a", "b", "c"],
                "leq": [[True, True, True], [False, True, True], [False, False, True]],
            },
        ),
        "bad": write(
            "bad.json",
            {
                "elements": ["a", "b", "c"],
                "leq": [[True, True, False], [False, True, True], [False, False, True]],
            },
        ),
        "r": write("r.json", {"n": 3, "classes": [[1, 2], [3]]}),
        "s": write("s.json", {"n": 3, "classes": [[1], [2, 3]]}),
        "diag3": write(
            "diag3.json",
            {
                "dim": 3,
                "generators": [
                    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
                    [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                ],
            },
        ),
        "mo1": write(
            "mo1.json",
            {
                "elements": ["0", "a", "a'", "1"],
                "leq": [
                    [True, True, True, True],
                    [False, True, False, True],
                    [False, False, True, True],
                    [False, False, False, True],
                ],
                "ortho": [3, 2, 1, 0],
            },
        ),
        "sierp": write("sierp.json", {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}),
        "tmp": tmp_path,
    }


#: Python's limit on int-string conversion, which refuses integer literals
#: of more than 4300 digits
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit"
)


def run_json(argv, capsys):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_payload(tmp_path, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestExitCodes:
    def test_valid_poset(self, files, capsys):
        code, report = run_json(["poset", "check", "--input", files["chain3"]], capsys)
        assert code == 0
        assert report["results"]["valid"] is True

    def test_invalid_poset_is_a_usage_error(self, files, capsys):
        code, report = run_json(["poset", "check", "--input", files["bad"]], capsys)
        assert code == 2
        assert report["results"]["error"]["type"] == "NotTransitive"

    def test_missing_file(self, files, capsys):
        code, report = run_json(["poset", "check", "--input", "nope.json"], capsys)
        assert code == 2

    def test_unknown_subcommand(self, files, capsys):
        assert main(["poset", "frobnicate"]) == 2
        # one line in the human form, not argparse's usage block
        err = capsys.readouterr().err
        assert err.startswith("error (ParseError): cstardom poset: argument action: invalid choice")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["poset", "check"],
            ["cantor", "verify", "--depth", "x"],
            ["eqrel", "lattice", "--n", "3", "--orientation", "up"],
            ["poset", "frob"],
        ],
        ids=" ".join,
    )
    def test_argparse_failure_is_a_parse_error(self, argv, capsys):
        code, report = run_json(argv, capsys)
        assert code == report["exit_code"] == 2
        assert report["command"] is None
        assert report["results"]["error"]["type"] == "ParseError"

    def test_boolean_matrix_entry_is_a_parse_error(self, tmp_path, capsys):
        # bool is an int subclass; JSON true must not read as the entry 1
        payload = {"dim": 2, "generators": [[[True, False], [False, False]]]}
        code, report = run_json(
            ["calg", "generate", "--input", write_payload(tmp_path, payload)], capsys
        )
        assert code == report["exit_code"] == 2
        assert report["results"]["error"]["type"] == "ParseError"

    def test_unknown_selector(self, files, capsys):
        code, report = run_json(["accept", "bogus"], capsys)
        assert code == 2

    def test_depth_out_of_range(self, files, capsys):
        code, _ = run_json(["cantor", "verify", "--depth", "99"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cantor", "verify", "--depth", "-1"], "depth = -1 is below the supported minimum 0"),
            (["cantor", "verify", "--depth", "11"], "depth = 11 exceeds the supported limit 10"),
            (["eqrel", "lattice", "--n", "0", "--orientation", "subalgebra"],
             "partition lattice ground size = 0 is below the supported minimum 1"),
            (["eqrel", "lattice", "--n", "-1", "--orientation", "refinement"],
             "partition lattice ground size = -1 is below the supported minimum 1"),
        ],
    )
    def test_guard_messages(self, argv, message, capsys):
        code, report = run_json(argv, capsys)
        assert code == report["exit_code"] == 2
        assert report["results"]["error"]["message"] == message

    @pytest.mark.parametrize(
        "payload",
        [
            {"elements": ["a"], "leq": "x"},
            {"elements": ["a", "a"], "leq": [[True, False], [False, True]]},
            {"elements": ["a"], "leq": [[1]]},
            {"elements": [["a"]], "leq": [[True]]},
            {"elements": "ab", "leq": [[True, False], [False, True]]},
        ],
        ids=["leq-string", "duplicate-labels", "int-cell", "unhashable-label", "elements-string"],
    )
    def test_malformed_poset_is_a_usage_error(self, payload, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        code, report = run_json(["poset", "check", "--input", str(path)], capsys)
        assert code == 2
        assert report["results"]["error"]["type"] == "BadParameters"

    def test_budget_overrun_fails_accept(self, capsys, monkeypatch):
        criteria = tuple(
            (num, name, func, 1e-9 if num == 7 else budget, fast)
            for num, name, func, budget, fast in acceptance.CRITERIA
        )
        monkeypatch.setattr(acceptance, "CRITERIA", criteria)
        code, report = run_json(["accept", "fast"], capsys)
        assert code == 1
        (seventh,) = [c for c in report["results"]["criteria"] if c["number"] == 7]
        assert seventh["pass"] is True and seventh["within_budget"] is False

    @pytest.mark.parametrize(
        "argv, raw",
        [
            (["poset", "check", "--input", "{}"], b'{"elements": ["\xff"], "leq": [[true]]}'),
            pytest.param(
                ["eqrel", "join", "--a", "{}", "--b", "{}"],
                b'{"n": 1' + b"0" * 5000 + b', "classes": [[1]]}',
                marks=NEEDS_DIGIT_LIMIT,
            ),
            (["calg", "generate", "--input", "{}"], b'{"dim": 1, "generators": [[["1e5000"]]]}'),
            (["calg", "generate", "--input", "{}"],
             b'{"dim": 1, "generators": [[["1e10000000"]]]}'),
            pytest.param(["cb", "rank", "--ordinal", "w*" + "9" * 5000], None,
                         marks=NEEDS_DIGIT_LIMIT),
        ],
        ids=["invalid-utf8", "long-integer", "entry-1e5000", "entry-1e10000000",
             "ordinal-coefficient"],
    )
    def test_unreadable_input_is_a_parse_error(self, argv, raw, tmp_path, capsys):
        path = tmp_path / "input.json"
        if raw is not None:
            path.write_bytes(raw)
        code, report = run_json([str(path) if arg == "{}" else arg for arg in argv], capsys)
        assert code == report["exit_code"] == 2
        assert report["results"]["error"]["type"] == "ParseError"
        # an exponent is refused before Fraction expands the power
        assert report["wall_time_s"] < 1


class TestPoset:
    @pytest.mark.parametrize("orientation", [[1], None, "up", {"order": "subalgebra"}, 1],
                             ids=["list", "null", "unknown-name", "object", "int"])
    def test_unknown_orientation_is_a_parse_error(self, orientation, tmp_path, capsys):
        payload = {"elements": ["a"], "leq": [[True]], "orientation": orientation}
        code, report = run_json(
            ["poset", "check", "--input", write_payload(tmp_path, payload)], capsys
        )
        assert code == report["exit_code"] == 2
        assert report["results"]["error"] == {
            "type": "ParseError",
            "message": "poset 'orientation' must be 'refinement' or 'subalgebra'",
        }

    @pytest.mark.parametrize("orientation", ["refinement", "subalgebra"])
    def test_known_orientation_is_echoed(self, orientation, tmp_path, capsys):
        payload = {"elements": ["a"], "leq": [[True]], "orientation": orientation}
        code, report = run_json(
            ["poset", "check", "--input", write_payload(tmp_path, payload)], capsys
        )
        assert code == 0
        assert report["results"]["poset"]["orientation"] == orientation

    def test_report_flags(self, files, capsys):
        code, report = run_json(["poset", "report", "--input", files["chain3"]], capsys)
        assert code == 0
        flags = report["results"]["report"]
        assert flags["order_scattered"] is True
        assert flags["atomistic"] is False

    def test_report_enumerates_no_directed_subsets(self, tmp_path, monkeypatch, capsys):
        # on a chain every subset is directed: 16,383 of them at 14 elements
        n = 14
        chain = {"elements": [f"c{i}" for i in range(n)],
                 "leq": [[i <= j for j in range(n)] for i in range(n)]}

        def refuse(poset):
            raise AssertionError("directed subsets enumerated")

        monkeypatch.setattr(order.FinPoset, "directed_masks", refuse)
        poset = order.validate_poset(chain["elements"], chain["leq"])
        assert order.domain_report(poset).flags()["continuous"] is True
        code, report = run_json(
            ["poset", "report", "--input", write_payload(tmp_path, chain)], capsys
        )
        assert code == 0
        assert report["results"]["report"]["algebraic"] is True

    def test_hasse_dot_file(self, files, capsys):
        out = str(files["tmp"] / "chain.dot")
        code, report = run_json(
            ["poset", "hasse", "--input", files["chain3"], "--dot", out], capsys
        )
        assert code == 0
        text = Path(out).read_text()
        assert "digraph" in text and "n0 -> n1;" in text


class TestEqrel:
    def test_join(self, files, capsys):
        code, report = run_json(
            ["eqrel", "join", "--a", files["r"], "--b", files["s"]], capsys
        )
        assert code == 0
        assert report["results"]["classes"] == [[1, 2, 3]]

    def test_meet(self, files, capsys):
        code, report = run_json(
            ["eqrel", "meet", "--a", files["r"], "--b", files["s"]], capsys
        )
        assert code == 0
        assert report["results"]["classes"] == [[1], [2], [3]]

    def test_join_output_round_trips_as_input(self, files, capsys, tmp_path):
        _, report = run_json(
            ["eqrel", "join", "--a", files["r"], "--b", files["s"]], capsys
        )
        results = report["results"]
        again = tmp_path / "joined.json"
        again.write_text(json.dumps({"n": results["n"], "classes": results["classes"]}))
        code, report2 = run_json(
            ["eqrel", "meet", "--a", str(again), "--b", files["r"]], capsys
        )
        assert code == 0
        assert report2["results"]["classes"] == [[1, 2], [3]]

    def test_lattice_output_is_poset_input(self, files, capsys, tmp_path):
        code, report = run_json(
            ["eqrel", "lattice", "--n", "3", "--orientation", "subalgebra"], capsys
        )
        assert code == 0
        results = report["results"]
        poset_file = tmp_path / "pi3.json"
        poset_file.write_text(
            json.dumps({"elements": results["elements"], "leq": results["leq"]})
        )
        code2, _ = run_json(["poset", "check", "--input", str(poset_file)], capsys)
        assert code2 == 0


    @pytest.mark.parametrize(
        "payload",
        [
            {"n": "x", "classes": [[1]]},
            {"n": True, "classes": [[1]]},
            {"n": -1, "classes": []},
            {"n": 3, "classes": 5},
            {"n": 2, "classes": [5]},
            {"n": 2, "classes": [[[1]], [2]]},
        ],
        ids=["n-string", "n-bool", "n-negative", "classes-int", "class-int", "member-list"],
    )
    @pytest.mark.parametrize("op", ["join", "meet"])
    def test_bad_relation_is_a_usage_error(self, files, payload, op, tmp_path, capsys):
        bad = write_payload(tmp_path, payload)
        code, report = run_json(["eqrel", op, "--a", bad, "--b", files["s"]], capsys)
        assert code == 2
        assert report["results"]["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "payload",
        [{"n": 4, "classes": [[1]]}, {"n": 4, "classes": [[]]}],
        ids=["one-member", "empty-class"],
    )
    def test_uncovered_ground_is_refused_before_it_is_built(
        self, files, payload, tmp_path, capsys, monkeypatch
    ):
        built = []
        init = partitions.EqRel.__init__

        def spy(self, ground, classes):
            built.append(ground)
            init(self, ground, classes)

        monkeypatch.setattr(partitions.EqRel, "__init__", spy)
        bad = write_payload(tmp_path, payload)
        code, report = run_json(["eqrel", "join", "--a", bad, "--b", files["s"]], capsys)
        assert code == 2
        assert report["results"]["error"] == {
            "type": "BadParameters",
            "message": "classes do not cover the ground set",
        }
        assert built == []


class TestCantor:
    def test_verify(self, files, capsys):
        code, report = run_json(["cantor", "verify", "--depth", "3"], capsys)
        assert code == 0
        payload = report["results"]["report"]
        assert payload["depth"] == 3
        assert payload["r_blocks"] == 15
        assert all(check["pass"] for check in payload["checks"])
        assert all(line.startswith("[PASS] ") for line in report["results"]["lines"][1:])

    def test_a_failing_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cantor, "relation_S", lambda n: cantor.DIAGONAL)
        code, report = run_json(["cantor", "verify", "--depth", "2"], capsys)
        assert code == 1
        error = report["results"]["error"]
        assert error["type"] == "AssertionFailed"
        assert error["message"].startswith("verification assertion failed: join_full:n=1: ")

    def test_chain(self, files, capsys):
        code, report = run_json(["cantor", "chain", "--n", "4"], capsys)
        assert code == 0
        assert len(report["results"]["witnesses"]) == 4

    @pytest.mark.parametrize("n, code", [(1, 2), (2, 0), (CHAIN_MAX, 0), (CHAIN_MAX + 1, 2)])
    def test_chain_size_guard(self, n, code, capsys):
        got, report = run_json(["cantor", "chain", "--n", str(n)], capsys)
        assert got == code
        if code:
            error = report["results"]["error"]
            assert error["type"] == "SizeLimit"
            assert error["message"] == (
                "chain witness count = 1 is below the supported minimum 2" if n < 2
                else f"chain witness count = {n} exceeds the supported limit {CHAIN_MAX}"
            )
        else:
            assert len(report["results"]["witnesses"]) == n


class TestCalg:
    def test_generate(self, files, capsys):
        code, report = run_json(["calg", "generate", "--input", files["diag3"]], capsys)
        assert code == 0
        assert report["results"]["dimension"] == 3
        assert report["results"]["commutative"] is True

    def test_generate_output_round_trips(self, files, capsys, tmp_path):
        _, report = run_json(["calg", "generate", "--input", files["diag3"]], capsys)
        results = report["results"]
        again = tmp_path / "algebra.json"
        again.write_text(
            json.dumps(
                {
                    "dim": results["dim"],
                    "basis": results["basis"],
                    "generators": results["generators"],
                }
            )
        )
        code, report2 = run_json(["calg", "atoms", "--input", str(again)], capsys)
        assert code == 0
        assert report2["results"]["count"] == 3

    def test_lattice_dot_node_count(self, files, capsys, tmp_path):
        out = str(tmp_path / "lat.dot")
        code, _ = run_json(
            ["calg", "lattice", "--input", files["diag3"], "--dot", out], capsys
        )
        assert code == 0
        text = Path(out).read_text()
        assert text.count("[label=") == 5

    def test_spectrum(self, files, capsys):
        code, report = run_json(["calg", "spectrum", "--input", files["diag3"]], capsys)
        assert code == 0
        assert len(report["results"]["spectrum"]["points"]) == 3

    def test_caf_iso_both_spellings(self, files, capsys):
        for group in ("calg", "omp"):
            code, report = run_json([group, "caf-iso", "--input", files["diag3"]], capsys)
            assert code == 0
            assert report["results"]["iso"]["size"] == 5

    def test_caf_iso_failure_is_a_failed_check(self, files, capsys, monkeypatch):
        # an order-reversed subalgebra lattice cannot match the projections
        real = ortho.c_lattice
        monkeypatch.setattr(ortho, "c_lattice", lambda algebra: real(algebra).dual())
        code, report = run_json(["calg", "caf-iso", "--input", files["diag3"]], capsys)
        assert code == report["exit_code"] == 1
        assert report["results"]["error"]["type"] == "IsoFailure"

    @pytest.mark.parametrize(
        "action, k, code",
        [("atoms", LATTICE_MAX, 0), ("atoms", LATTICE_MAX + 1, 2), ("lattice", LATTICE_MAX + 1, 2)],
    )
    def test_spectrum_guard(self, action, k, code, tmp_path, capsys):
        # the k-point diagonal algebra, generated by diag(1^(j+1) 0^(k-j-1))
        generators = [
            [["1" if r == c <= j else "0" for c in range(k)] for r in range(k)]
            for j in range(k - 1)
        ]
        path = write_payload(tmp_path, {"dim": k, "generators": generators})
        got, report = run_json(["calg", action, "--input", path], capsys)
        assert got == code
        if code:
            assert report["results"]["error"] == {
                "type": "SizeLimit",
                "message": f"spectrum size = {k} exceeds the supported limit {LATTICE_MAX}",
            }
        else:
            assert report["results"]["count"] == 2 ** (k - 1) - 1


    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": "x"},
            {"dim": True, "generators": []},
            {"dim": 0, "generators": []},
            {"dim": 1.5, "generators": []},
            {"dim": 3, "generators": [5]},
            {"dim": 3, "generators": 5},
            {"dim": 3, "basis": [5]},
            {"dim": 3, "basis": [[5]]},
            {"dim": 1, "generators": [[["1/0"]]]},
            {"dim": 1, "generators": [[["1/0 i"]]]},
        ],
        ids=["dim-string", "dim-bool", "dim-zero", "dim-float", "generator-int",
             "generators-int", "basis-int", "basis-row-int", "entry-zero-denominator",
             "imaginary-zero-denominator"],
    )
    @pytest.mark.parametrize("action", ["generate", "lattice"])
    def test_bad_algebra_is_a_usage_error(self, payload, action, tmp_path, capsys):
        code, report = run_json(
            ["calg", action, "--input", write_payload(tmp_path, payload)], capsys
        )
        assert code == 2
        assert report["results"]["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "payload",
        [
            # a projection outside the diagonal algebra the basis spans
            {"dim": 2, "basis": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "0"]]],
             "generators": [[["1/2", "1/2"], ["1/2", "1/2"]]]},
            # a projection outside the scalars
            {"dim": 2, "basis": [[["1", "0"], ["0", "1"]]],
             "generators": [[["1", "0"], ["0", "0"]]]},
        ],
        ids=["outside-diagonal", "outside-scalars"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["calg", "generate"], ["calg", "lattice"], ["calg", "atoms"], ["calg", "spectrum"],
         ["calg", "caf-iso"], ["omp", "caf-iso"]],
        ids=lambda argv: "-".join(argv),
    )
    def test_generators_outside_the_basis_span_are_a_usage_error(
        self, payload, argv, tmp_path, capsys
    ):
        code, report = run_json(argv + ["--input", write_payload(tmp_path, payload)], capsys)
        assert code == 2
        assert report["results"]["error"]["type"] == "BadParameters"
        assert "outside the basis span" in report["results"]["error"]["message"]

    @pytest.mark.parametrize("route", ["basis", "generators"])
    @pytest.mark.parametrize("dim, code", [(16, 0), (17, 2)])
    def test_ambient_size_guard_on_both_routes(self, route, dim, code, tmp_path, capsys):
        identity = [["1" if r == c else "0" for c in range(dim)] for r in range(dim)]
        payload = {"dim": dim, "basis": [identity], "generators": []}
        if route == "generators":
            del payload["basis"]
        got, report = run_json(
            ["calg", "generate", "--input", write_payload(tmp_path, payload)], capsys
        )
        assert got == code
        if code:
            assert report["results"]["error"]["type"] == "SizeLimit"
            assert "ambient matrix size = 17" in report["results"]["error"]["message"]

    def test_basis_of_the_wrong_size_is_a_usage_error(self, tmp_path, capsys):
        identity2 = [["1", "0"], ["0", "1"]]
        payload = {"dim": 3, "basis": [identity2]}
        code, report = run_json(
            ["calg", "generate", "--input", write_payload(tmp_path, payload)], capsys
        )
        assert code == 2
        assert report["results"]["error"]["type"] == "DimMismatch"

    def test_basis_only_lattice_fails_a_check_without_traceback(self, tmp_path, capsys):
        units = [
            [["1" if (r, c) == (i, i) else "0" for c in range(3)] for r in range(3)]
            for i in range(3)
        ]
        path = write_payload(tmp_path, {"dim": 3, "basis": units})
        code, report = run_json(["calg", "lattice", "--input", path], capsys)
        assert code == 1
        assert report["results"]["error"]["type"] == "AssertionFailed"


def calg_inputs():
    """Algebra JSON by name: the k-point diagonal algebra for k = 1..5, from
    its projection generators (``proj<k>``) and from the one generator
    diag(1, ..., k) (``diag<k>``), which is not a projection for k > 1; and
    the 4-point diagonal algebra conjugated by two 3-4-5 Givens rotations."""
    inputs = {}
    for k in range(1, 6):
        projections = [[[str(int(i == j <= m)) for j in range(k)] for i in range(k)]
                       for m in range(k - 1)]
        inputs[f"proj{k}"] = {"dim": k, "generators": projections}
        inputs[f"diag{k}"] = {
            "dim": k,
            "generators": [[[str(i + 1 if i == j else 0) for j in range(k)] for i in range(k)]],
        }
    rotated = rotated_algebra(4)
    inputs["givens4"] = {"dim": 4, "generators": [g.to_json_list() for g in rotated.generators]}
    return inputs


CALG_COMMANDS = ("generate", "lattice", "atoms", "spectrum", "caf-iso")

#: per input, the :func:`calg_report_digest` of its five reports in
#: ``CALG_COMMANDS`` order, recorded before ``staralg`` moved from dense to
#: sparse rows
CALG_REPORT_DIGESTS = {
    "diag1": ('8d31ca20fa1d13a4', 'dc0a4563534941ef', '0bfd697582be3cfc', 'a6e69adbbb925e57', '0ed5d43aaf1e0e38'),
    "diag2": ('92cfe8092b9a4f06', 'ff7fb05b1cd2a152', '7550daa14f9f4910', '0b48bc11909189f6', '3a0ca65b68e64069'),
    "diag3": ('894f24c8ae14ecbb', 'a25b36accc217b54', '33930b3e05a39e54', '97c8c500ca553bd7', '212f6146993cbef7'),
    "diag4": ('0f4d222bb2190a69', '05a216000ef63ee2', '0c43dec20ca6310c', '01cbf21d95bf188c', 'd04beab40973d488'),
    "diag5": ('49b89d292be40161', '47a5955e3c242148', '1e96f8c8e4fb34b7', '15f222db8b2860d7', '661c394cc93e7c3f'),
    "givens4": ('f1edf4d7adc65c6f', '86d0d1099adc15f6', '802660d16c6ceec7', 'e57e77815c1a7d37', '67c4ee895da114ce'),
    "proj1": ('3ed993379103a8be', '98d79bb0a51638f6', 'a3afb9084550301a', 'c65c0af5327c0fdf', '488b0e314595a947'),
    "proj2": ('f2855685ba31bd1b', 'a113398a9169a6ed', '0d5311a29ca09781', 'fb5424f4de213987', 'd44f0f40fc1febbb'),
    "proj3": ('5d6da80e4f325c09', 'b657cd9a49deed3d', 'c6ad5cdf342543c4', 'd03b486fc98ae1c6', '36221656f4535d14'),
    "proj4": ('a8dcb766cbc3a5ab', 'a33cd2d16e7a2eb0', 'f78383e71aab4ec9', '0d663a67ceb7fa60', '165460858d5082f2'),
    "proj5": ('4c33b6b6141d94bc', '34596f0abf14c500', '5f0aeb0cbc5f1871', '21f8e22fe12e7e31', 'd84c5e9d9f4bb89a'),
}


def calg_report_digest(argv):
    """sha256 prefix of a ``--json`` report up to its ``versions`` field.
    Keys are sorted, so only the Python version and the wall time follow,
    and those vary between runs of one program."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv + ["--json"])
    head, sep, _ = out.getvalue().partition(', "versions": ')
    assert sep, out.getvalue()
    return hashlib.sha256(head.encode()).hexdigest()[:16]


class TestCalgReportsAreFixed:
    @pytest.mark.parametrize("name", sorted(CALG_REPORT_DIGESTS))
    def test_reports_are_byte_identical(self, name, tmp_path):
        path = write_payload(tmp_path, calg_inputs()[name])
        got = tuple(
            calg_report_digest(["calg", command, "--input", path]) for command in CALG_COMMANDS
        )
        assert got == CALG_REPORT_DIGESTS[name]

    def test_every_input_is_pinned(self):
        assert set(CALG_REPORT_DIGESTS) == set(calg_inputs())

    def test_conjugated_five_point_caf_iso(self, capsys):
        # the fixture the console-script check in CI reads
        path = Path(__file__).parent / "fixtures" / "givens5.json"
        code, report = run_json(["calg", "caf-iso", "--input", str(path)], capsys)
        assert code == 0
        assert report["results"]["iso"]["size"] == 52


def omp_inputs():
    """Orthomodular poset JSON by name: the power sets P1..P5, the
    horizontal sums MO1..MO4 and the Greechie square, which is not a
    lattice."""
    omps = {f"P{k}": ortho.power_set_omp(k) for k in range(1, 6)}
    omps.update({f"MO{n}": ortho.mo_omp(n) for n in range(1, 5)})
    omps["square"] = greechie_square()
    return {name: dict(omp.poset.to_json_dict(), ortho=list(omp.ortho))
            for name, omp in omps.items()}


#: per input, the :func:`calg_report_digest` of its ``omp boolsub`` report,
#: recorded before the Boolean-subalgebra search moved to close-by-one
OMP_BOOLSUB_DIGESTS = {
    "MO1": "4904c3c8364be3f6",
    "MO2": "f00ec3f594b13e94",
    "MO3": "99889ca90d160efc",
    "MO4": "be1d8dda51cfdfe4",
    "P1": "f828858e53423085",
    "P2": "176b5c60f2837bbd",
    "P3": "2f1b4bf956660fa3",
    "P4": "78114f429bbcd1f5",
    "P5": "0548d135618562c6",
    "square": "064a73da1e09425d",
}


class TestBoolsubReportsAreFixed:
    @pytest.mark.parametrize("name", sorted(OMP_BOOLSUB_DIGESTS))
    def test_reports_are_byte_identical(self, name, tmp_path):
        path = write_payload(tmp_path, omp_inputs()[name])
        assert calg_report_digest(["omp", "boolsub", "--input", path]) == OMP_BOOLSUB_DIGESTS[name]

    def test_every_input_is_pinned(self):
        assert set(OMP_BOOLSUB_DIGESTS) == set(omp_inputs())


TWO_CHAIN = {"elements": ["0", "1"], "leq": [[True, True], [False, True]]}


class TestOmp:
    def test_validate(self, files, capsys):
        code, report = run_json(["omp", "validate", "--input", files["mo1"]], capsys)
        assert code == 0
        assert report["results"]["valid"] is True

    def test_boolsub(self, files, capsys):
        code, report = run_json(["omp", "boolsub", "--input", files["mo1"]], capsys)
        assert code == 0
        assert report["results"]["count"] == 2

    def test_invalid_omp(self, files, capsys, tmp_path):
        bad = tmp_path / "bad_omp.json"
        payload = json.loads(Path(files["mo1"]).read_text())
        payload["ortho"] = [0, 1, 2, 3]
        bad.write_text(json.dumps(payload))
        code, report = run_json(["omp", "validate", "--input", str(bad)], capsys)
        assert code == 2
        assert report["results"]["error"]["type"] == "AxiomViolated"


    @pytest.mark.parametrize(
        "payload,error",
        [
            pytest.param(5, "ParseError", id="int"),
            pytest.param(None, "ParseError", id="null"),
            pytest.param(True, "ParseError", id="bool"),
            pytest.param(1.5, "ParseError", id="float"),
            # a valid two-element order whose ortho table is malformed
            pytest.param(dict(TWO_CHAIN, ortho=5), "BadParameters", id="ortho-int"),
            pytest.param(dict(TWO_CHAIN, ortho=[1, "a"]), "BadParameters", id="ortho-string"),
            pytest.param(dict(TWO_CHAIN, ortho=[1.0, 0.0]), "BadParameters", id="ortho-floats"),
        ],
    )
    @pytest.mark.parametrize("action", ["validate", "boolsub"])
    def test_non_object_is_a_usage_error(self, payload, error, action, tmp_path, capsys):
        code, report = run_json(
            ["omp", action, "--input", write_payload(tmp_path, payload)], capsys
        )
        assert code == 2
        assert report["results"]["error"]["type"] == error


class TestScatterCommands:
    def test_cb_rank(self, files, capsys):
        code, report = run_json(["cb", "rank", "--ordinal", "w^2*2+w*3+5"], capsys)
        assert code == 0
        assert report["results"]["rank"] == 3

    def test_cb_rank_parse_error(self, files, capsys):
        code, _ = run_json(["cb", "rank", "--ordinal", "omega"], capsys)
        assert code == 2

    def test_topo_check(self, files, capsys):
        code, report = run_json(["topo", "check", "--input", files["sierp"]], capsys)
        assert code == 0
        results = report["results"]
        assert results["scattered"] is True
        assert results["rank"] == 2
        assert results["stonean"] is True
        assert results["hausdorff"] is False

    @pytest.mark.parametrize(
        "payload,error",
        [
            ({"points": [[1]], "opens": [[], [[1]]]}, "BadParameters"),
            ({"points": "ab", "opens": [[], ["a", "b"]]}, "ParseError"),
            ({"points": ["a"], "opens": 5}, "ParseError"),
            ({"points": ["a"], "opens": [[], ["a"], 5]}, "ParseError"),
            ({"points": ["a"], "opens": [[], [["z"]], ["a"]]}, "BadParameters"),
            ({"points": ["a"], "opens": [[], ["z"], ["a"]]}, "BadParameters"),
        ],
        ids=["point-list", "points-string", "opens-int", "open-int", "member-list",
             "member-unknown"],
    )
    def test_bad_topology_is_a_usage_error(self, payload, error, tmp_path, capsys):
        code, report = run_json(
            ["topo", "check", "--input", write_payload(tmp_path, payload)], capsys
        )
        assert code == 2
        assert report["results"]["error"]["type"] == error


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3),
    max_leaves=12,
)
point_labels = st.sampled_from(["a", "b", "c", 0, 1, None, True, [1]])
topology_payloads = st.one_of(
    json_values,
    st.fixed_dictionaries({"points": json_values, "opens": json_values}),
    st.fixed_dictionaries({
        "points": st.lists(point_labels, max_size=4),
        "opens": st.lists(st.lists(point_labels, max_size=4), max_size=8),
    }),
    st.fixed_dictionaries({
        "points": st.just(["a", "b", "c"]),
        "opens": st.lists(st.lists(st.sampled_from("abc"), max_size=3), max_size=9)
        .map(lambda opens: opens + [[], ["a", "b", "c"]]),
    }),
)


class TestTopoCheckFuzz:
    @settings(max_examples=150, deadline=None)
    @given(payload=topology_payloads)
    def test_exit_code_contract(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "topo-fuzz.json"
        path.write_text(json.dumps(payload))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["topo", "check", "--input", str(path), "--json"])
        report = json.loads(out.getvalue())
        assert code in (0, 2) and report["exit_code"] == code
        assert ("error" in report["results"]) == (code == 2)
        if code == 0:
            # the flags read off the shared walks agree with the library's
            topology = FinTop(payload["points"], payload["opens"])
            assert report["results"]["scattered"] == scattered_by_closed_sets(topology)
            assert report["results"]["stonean"] == is_stonean_fin(topology)


labels = st.sampled_from(["a", "b", "c", 0, 1, True, None])
matrix_entries = st.sampled_from(
    ["0", "1", "-1", "1/2", "i", "1+i", "2/3-1/3 i", "1e5000", "1e-5000", "0e99999", "x", "",
     0, 1, True, None]
)


def square_of(inner, n):
    return st.lists(st.lists(inner, min_size=n, max_size=n), min_size=n, max_size=n)


def generators_of(dim):
    return st.lists(square_of(matrix_entries, dim), max_size=2)


#: payloads per input format: well-formed ones, near misses and any JSON
INPUT_PAYLOADS = {
    "poset": st.one_of(json_values, st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
        "elements": st.lists(labels, min_size=n, max_size=n),
        "leq": square_of(st.booleans(), n),
    }))),
    "eqrel": st.one_of(json_values, st.fixed_dictionaries({
        "n": st.integers(-1, 4),
        "classes": st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=4),
    })),
    "calg": st.one_of(json_values, st.integers(0, 2).flatmap(lambda dim: st.fixed_dictionaries(
        {"dim": st.just(dim), "generators": generators_of(dim)},
        optional={"basis": generators_of(dim)},
    ))),
    "omp": st.one_of(json_values, st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
        "elements": st.lists(labels, min_size=n, max_size=n),
        "leq": square_of(st.booleans(), n),
        "ortho": st.lists(st.integers(-1, n), min_size=n, max_size=n),
    }))),
    "topo": topology_payloads,
}
#: every command that reads a file, with the format it reads
FILE_FLAGS = ("--input", "--a", "--b")
INPUT_COMMANDS = {
    key: "calg" if handler is cli._cmd_caf_iso else key[0]
    for key, (handler, specs) in cli._COMMANDS.items()
    if any(flags[0] in FILE_FLAGS for flags, _ in specs)
}
#: byte-level mutations of the serialised payload
MUTATIONS = ("none", "invalid-utf8", "long-integer")


class TestInputFuzz:
    """The exit-code contract on every command that reads a file: exit 0, 1
    or 2 with a JSON report and no traceback, an error reported exactly
    when the exit is not 0, and ParseError for bytes that are not UTF-8
    and for an integer literal past Python's digit limit."""

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(sorted(INPUT_COMMANDS)), mutation=st.sampled_from(MUTATIONS),
           data=st.data())
    def test_exit_code_contract(self, tmp_path_factory, key, mutation, data):
        raw = json.dumps(data.draw(INPUT_PAYLOADS[INPUT_COMMANDS[key]])).encode()
        at = data.draw(st.integers(0, len(raw)))
        if mutation == "invalid-utf8":
            raw = raw[:at] + b"\xff" + raw[at:]
        elif mutation == "long-integer":
            # a JSON value starts at offset 0; elsewhere the digits may land
            # inside a number, a string or between tokens
            raw = raw[:at] + b"1" * 4301 + raw[at:]
        path = tmp_path_factory.getbasetemp() / "input-fuzz.json"
        path.write_bytes(raw)
        argv = list(key)
        for flags, _ in cli._COMMANDS[key][1]:
            if flags[0] in FILE_FLAGS:
                argv += [flags[0], str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--json"])
        report = json.loads(out.getvalue())
        assert code in (0, 1, 2) and report["exit_code"] == code
        assert ("error" in report["results"]) == (code != 0)
        if mutation == "invalid-utf8" or (mutation == "long-integer" and at == 0):
            assert code == 2 and report["results"]["error"]["type"] == "ParseError"


class TestDeterminism:
    def test_python_version_is_the_platform_one(self, files, capsys):
        import platform

        _, report = run_json(["poset", "check", "--input", files["chain3"]], capsys)
        assert report["versions"]["python"] == platform.python_version()

    def test_reports_identical_modulo_wall_time(self, files, capsys):
        _, first = run_json(["eqrel", "join", "--a", files["r"], "--b", files["s"]], capsys)
        _, second = run_json(["eqrel", "join", "--a", files["r"], "--b", files["s"]], capsys)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# ---------------------------------------------------------------------------
# the one parser tree


def parse_outcome(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()
        except ParseError as exc:
            return None, str(exc), out.getvalue(), err.getvalue()


COMMAND_PATHS = [[part for part in key if part] for key in cli._COMMANDS]
GROUPS = list(dict.fromkeys(path[0] for path in COMMAND_PATHS))
ACTIONS = list(dict.fromkeys(path[1] for path in COMMAND_PATHS if len(path) == 2))
FLAGS = sorted({
    flag
    for _, specs in cli._COMMANDS.values()
    for flags, _ in specs
    for flag in flags
    if flag.startswith("-")
})
argv_tokens = st.sampled_from(
    GROUPS + ACTIONS + FLAGS
    + ["-h", "--help", "--inp", "--bogus", "-x", "--", "", "zz", "x.json", "3", "-1",
       "subalgebra", "refinement", "w^2*2+1", "all", "fast", "--input=x.json"]
)
argv_lists = st.one_of(
    st.lists(argv_tokens, max_size=7),
    st.builds(lambda path, rest: path + rest,
              st.sampled_from(COMMAND_PATHS), st.lists(argv_tokens, max_size=6)),
)


class TestNarrowParser:
    """Help, printed by the one parser tree."""

    @pytest.mark.parametrize(
        "path", [[]] + [[group] for group in GROUPS] + COMMAND_PATHS, ids=" ".join
    )
    def test_help_is_that_of_the_whole_tree(self, path, capsys):
        # help exits 0 and prints no report, even under --json
        assert main(path + ["-h", "--json"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(" ".join(["usage: cstardom"] + path + ["[-h]"]))
        assert '"exit_code"' not in out

    @pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
    def test_every_leaf_describes_json(self, path, capsys):
        assert main(path + ["-h"]) == 0
        assert "emit a JSON run report" in capsys.readouterr().out


@contextlib.contextmanager
def inside(directory):
    """Run in ``directory``, where a request's ``--dot`` file lands."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(cwd)


class TestOneReport:
    @settings(max_examples=300, deadline=None)
    @given(argv=argv_lists)
    def test_every_json_request_ends_in_one_report_or_help(self, tmp_path_factory, argv):
        out = io.StringIO()
        with mock.patch.object(acceptance, "run_acceptance", lambda selector: []), \
                inside(tmp_path_factory.getbasetemp()), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--json"])
        if out.getvalue().startswith("usage: cstardom"):
            assert code == 0 and '"exit_code"' not in out.getvalue()
        else:
            (line,) = out.getvalue().splitlines()
            report = json.loads(line)
            assert code in (0, 1, 2) and report["exit_code"] == code
            assert ("error" in report["results"]) == (code != 0)


VALID_ARGS = {
    ("poset", "check"): ["--input", "chain3"],
    ("poset", "report"): ["--input", "chain3"],
    ("poset", "hasse"): ["--input", "chain3"],
    ("eqrel", "join"): ["--a", "r", "--b", "s"],
    ("eqrel", "meet"): ["--a", "r", "--b", "s"],
    ("eqrel", "lattice"): ["--n", "3", "--orientation", "subalgebra", "--emit-dot"],
    ("cantor", "verify"): ["--depth", "1"],
    ("cantor", "chain"): ["--n", "3"],
    ("calg", "generate"): ["--input", "diag3"],
    ("calg", "atoms"): ["--input", "diag3"],
    ("calg", "spectrum"): ["--input", "diag3"],
    ("calg", "caf-iso"): ["--input", "diag3"],
    ("calg", "lattice"): ["--input", "diag3"],
    ("omp", "validate"): ["--input", "mo1"],
    ("omp", "boolsub"): ["--input", "mo1"],
    ("omp", "caf-iso"): ["--input", "diag3"],
    ("cb", "rank"): ["--ordinal", "w^2*2+1"],
    ("topo", "check"): ["--input", "sierp"],
    ("accept", None): ["all"],
}


@pytest.fixture
def parsers_built(monkeypatch):
    count = [0]
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return count


class TestParserConstructions:
    @pytest.mark.parametrize("key", list(cli._COMMANDS), ids=lambda key: " ".join(filter(None, key)))
    def test_one_parser_per_level_of_the_path(self, key, files, capsys, monkeypatch,
                                              parsers_built):
        """Whichever request comes first builds the whole tree, one parser
        per level of every path, and a repeat builds none."""
        monkeypatch.setattr(acceptance, "run_acceptance", lambda selector: [])
        argv = [part for part in key if part]
        argv += [files.get(arg, arg) for arg in VALID_ARGS[key]]
        cli._parser.cache_clear()
        code, report = run_json(argv, capsys)
        assert code == 0, report
        # one root, 8 groups (accept among them) and 18 action leaves
        assert parsers_built[0] == 27
        code, again = run_json(argv, capsys)
        assert code == 0, again
        assert parsers_built[0] == 27
        assert cli._parser.cache_info().currsize == 1


#: requests whose values could leak into the next request if the kept parser
#: held any: optional flags set or left out, help, and ints that do not parse
LEAK_PROBES = [
    ["eqrel", "lattice", "--n", "3", "--orientation", "subalgebra", "--emit-dot"],
    ["eqrel", "lattice", "--n", "3", "--orientation", "refinement", "--dot", "x.dot"],
    ["eqrel", "lattice", "--n", "3", "--orientation", "refinement"],
    ["eqrel", "lattice", "--n", "x", "--orientation", "refinement"],
    ["calg", "lattice", "--input", "x.json", "--emit-dot", "--dot", "y.dot"],
    ["calg", "lattice", "--input", "x.json"],
    ["omp", "boolsub", "--input", "x.json", "--dot", "y.dot", "--json"],
    ["omp", "boolsub", "--input", "x.json"],
    ["poset", "hasse", "--input", "x.json", "--dot", "d.dot"],
    ["poset", "hasse", "--input", "x.json"],
    ["poset", "hasse", "-h"],
    ["cantor", "verify", "--depth", "1.5"],
    ["cantor", "verify", "--depth", "-1"],
    ["cantor", "chain", "--n", ""],
    ["accept", "fast", "--json"],
    ["accept"],
    ["poset", "-h"],
    ["-h"],
]
requests = st.one_of(argv_lists, st.sampled_from(LEAK_PROBES))


class TestKeptParsers:
    @settings(max_examples=300, deadline=None)
    @given(first=requests, second=requests)
    @example(first=LEAK_PROBES[0], second=LEAK_PROBES[2])
    @example(first=LEAK_PROBES[1], second=LEAK_PROBES[2])
    @example(first=LEAK_PROBES[4], second=LEAK_PROBES[5])
    @example(first=LEAK_PROBES[6], second=LEAK_PROBES[7])
    @example(first=LEAK_PROBES[8], second=LEAK_PROBES[9])
    @example(first=LEAK_PROBES[10], second=LEAK_PROBES[9])
    @example(first=LEAK_PROBES[3], second=LEAK_PROBES[2])
    @example(first=LEAK_PROBES[14], second=LEAK_PROBES[15])
    def test_back_to_back_requests_match_a_cold_build(self, first, second):
        for argv in (first, second):
            warm = parse_outcome(cli._parser(), argv)
            assert warm == parse_outcome(cli._parser.__wrapped__(), argv)
        assert cli._parser.cache_info().currsize == 1


def console(*args):
    """Run ``main()`` with ``argv=None``, as the console-script entry point
    calls it, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cstardom.__file__)))
    code = "import sys; from cstardom.cli import main; sys.argv[0] = 'cstardom'; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )


class TestConsoleEntry:
    def test_report(self, files):
        proc = console("poset", "report", "--input", files["chain3"], "--json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == "poset report" and report["exit_code"] == 0
        assert report["results"]["report"]["algebraic"] is True

    def test_group_help(self):
        proc = console("poset", "-h")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: cstardom poset [-h] {check,report,hasse} ...")

    def test_unknown_group(self):
        proc = console("nonesuch")
        assert proc.returncode == 2
        assert "invalid choice: 'nonesuch'" in proc.stderr


class TestClosedPipe:
    """A reader that stops early, as ``| head -c 10`` does, leaves the exit
    code that of the request and prints no traceback."""

    @pytest.mark.parametrize("argv", [
        # a 291 KB JSON report and 110 KB of DOT lines: both far larger than
        # a pipe buffer, so the write must fail once the reader has gone
        ["eqrel", "lattice", "--n", "6", "--orientation", "subalgebra", "--json"],
        ["eqrel", "lattice", "--n", "7", "--orientation", "subalgebra", "--emit-dot"],
    ], ids=["json", "human"])
    def test_reader_closes_the_pipe_early(self, argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cstardom.__file__)))
        code = "import sys; from cstardom.cli import main; sys.exit(main())"
        with subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 0, stderr
        assert stderr == ""
