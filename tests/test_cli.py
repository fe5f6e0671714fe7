import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cstardom
from cstardom import acceptance, cli, order
from cstardom.cli import main
from cstardom.scatter import FinTop, is_stonean_fin
from test_scatter import scattered_by_closed_sets


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

    def test_unknown_selector(self, files, capsys):
        code, report = run_json(["accept", "bogus"], capsys)
        assert code == 2

    def test_depth_out_of_range(self, files, capsys):
        code, _ = run_json(["cantor", "verify", "--depth", "99"], capsys)
        assert code == 2

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


class TestPoset:
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


class TestCantor:
    def test_verify(self, files, capsys):
        code, report = run_json(["cantor", "verify", "--depth", "3"], capsys)
        assert code == 0
        payload = report["results"]["report"]
        assert payload["depth"] == 3
        assert payload["r_blocks"] == 15
        assert all(check["pass"] for check in payload["checks"])

    def test_chain(self, files, capsys):
        code, report = run_json(["cantor", "chain", "--n", "4"], capsys)
        assert code == 0
        assert len(report["results"]["witnesses"]) == 4


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


class TestDeterminism:
    def test_reports_identical_modulo_wall_time(self, files, capsys):
        _, first = run_json(["eqrel", "join", "--a", files["r"], "--b", files["s"]], capsys)
        _, second = run_json(["eqrel", "join", "--a", files["r"], "--b", files["s"]], capsys)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# ---------------------------------------------------------------------------
# the parser built along the requested path only


def parse_outcome(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


COMMAND_PATHS = [[part for part in key if part] for key in cli._COMMANDS]
GROUPS = list(dict.fromkeys(path[0] for path in COMMAND_PATHS))
ACTIONS = list(dict.fromkeys(path[1] for path in COMMAND_PATHS if len(path) == 2))
FLAGS = sorted({
    flag
    for _, specs, _ in cli._COMMANDS.values()
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
    @settings(max_examples=300, deadline=None)
    @given(argv=argv_lists)
    def test_same_outcome_as_the_whole_tree(self, argv):
        assert parse_outcome(cli._build_parser(argv[:2]), argv) == parse_outcome(
            cli._build_parser(), argv
        )

    @pytest.mark.parametrize(
        "path", [[]] + [[group] for group in GROUPS] + COMMAND_PATHS, ids=" ".join
    )
    def test_help_is_that_of_the_whole_tree(self, path):
        argv = path + ["-h"]
        outcome = parse_outcome(cli._build_parser(argv[:2]), argv)
        assert outcome == parse_outcome(cli._build_parser(), argv)
        _, code, out, _ = outcome
        assert code == 0
        assert out.startswith(" ".join(["usage: cstardom"] + path + ["[-h]"]))


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
        monkeypatch.setattr(acceptance, "run_acceptance", lambda selector: [])
        argv = [part for part in key if part]
        argv += [files.get(arg, arg) for arg in VALID_ARGS[key]]
        code, report = run_json(argv, capsys)
        assert code == 0, report
        # root, group and leaf; root and leaf for a root-level command
        assert parsers_built[0] <= (3 if key[1] else 2)


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
