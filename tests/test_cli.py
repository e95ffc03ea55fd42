import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gradedval
from gradedval import affine_monoids, cli, monomialization, scenarios
from gradedval.errors import EnumerationOverflow, MalformedStep
from gradedval.exact_lattice import ExactMatrix, determinant
from gradedval.cli import (
    bundled_scenario_bytes,
    bundled_scenario_names,
    main,
)
from gradedval.monomialization import TransformStep, replay
from gradedval.serialize import (
    dec_extension,
    dec_matrix,
    dec_step,
    enc_extension,
)

SCENARIOS = ("identity.json", "diag23.json", "rank2_h1.json",
             "rank2_h2.json", "section5.json", "random_a.json",
             "random_b.json", "random_c.json")


def write(tmp_path, name, data):
    path = tmp_path / name
    if isinstance(data, (dict, list)):
        data = json.dumps(data)
    path.write_text(data)
    return str(path)


def test_bundled_corpus_present():
    assert set(SCENARIOS) <= set(bundled_scenario_names())


def scenario_path(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(bundled_scenario_bytes(name))
    return str(path)


def test_snf_command(tmp_path, capsys):
    src = write(tmp_path, "m.json", {"matrix": [["2", "4"], ["6", "8"]]})
    assert main(["snf", "--in", src, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["D"] == [["2", "0"], ["0", "4"]]
    assert out["determinant"] == "-8"
    assert "input_sha256" in out


def test_snf_command_non_square(tmp_path, capsys):
    # a 2x3 matrix has a Smith form but no determinant; it used to exit 1
    rows = [["1", "2", "3"], ["4", "5", "6"]]
    src = write(tmp_path, "m.json", {"matrix": rows})
    assert main(["snf", "--in", src, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    U, A, D, V = (dec_matrix(m) for m in (out["U"], rows, out["D"], out["V"]))
    assert U.matmul(A).matmul(V) == D
    assert D.entries == ((1, 0, 0), (0, 3, 0))
    assert out["invariant_factors"] == ["3"]
    assert "determinant" not in out


def test_malformed_json_exits_2(tmp_path, capsys):
    src = write(tmp_path, "bad.json", "{not json")
    assert main(["snf", "--in", src, "--json"]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("document", ["[" * 200_000,
                                      '{"matrix": ' + "[" * 200_000])
def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys,
                                                  document):
    # json's decoder raised RecursionError past the JSONDecodeError
    # handler: a traceback, exit 1
    src = write(tmp_path, "deep.json", document)
    assert main(["snf", "--in", src, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("name", [None, 23, True, ["diag23"], {"n": "x"}])
def test_scenario_name_must_be_a_string(tmp_path, capsys, name):
    # "name": null used to run as scenario "None" and exit 0
    src = write(tmp_path, "s.json", edited("diag23.json", "name",
                                           value=name))
    for command in ("pipeline", "graded"):
        assert main([command, "--scenario", src, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: scenario name must be a string, not {name!r}\n"


def test_missing_key_exits_2(tmp_path, capsys):
    src = write(tmp_path, "bad.json", {"wrong": []})
    assert main(["snf", "--in", src, "--json"]) == 2


@pytest.mark.parametrize("entry", [1.5, 1, True, None, ["1"]])
def test_snf_rejects_non_string_numbers(tmp_path, capsys, entry):
    # a JSON number is never truncated or coerced: 1.5 used to become 1
    src = write(tmp_path, "m.json", {"matrix": [[entry]]})
    assert main(["snf", "--in", src, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_ragged_matrix_is_a_parse_error(tmp_path, capsys):
    src = write(tmp_path, "m.json", {"matrix": [["1", "2"], ["3"]]})
    assert main(["snf", "--in", src, "--json"]) == 2
    assert "differ in length" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["snf", "monomialize", "cosets",
                                     "semigroup", "ledger", "pipeline"])
@pytest.mark.parametrize("document", [b"[]", b'"text"', b"3"])
def test_non_object_top_level_exits_2(monkeypatch, capsys, command,
                                      document):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(document)))
    argv = [command, "--in", "-", "--json"]
    assert main(argv) == 2
    assert "top level must be a JSON object" in capsys.readouterr().err


def test_non_object_random_section_exits_2(tmp_path, capsys):
    src = write(tmp_path, "s.json", {"name": "x", "random": []})
    assert main(["pipeline", "--scenario", src, "--json"]) == 2
    assert "random section" in capsys.readouterr().err


DIAG23 = json.loads(bundled_scenario_bytes("diag23.json"))["extension"]


# each of these exited 2 with "malformed input (...)", a Python error
# re-labelled by a catch-all in main, or with a message that named no
# field, or ran: "expect" was read after every case had run, and not at
# all when no case ran
@pytest.mark.parametrize("command, data, message", [
    ("snf", {"wrong": []}, "missing field 'matrix'"),
    ("pipeline --replay", {"steps": [], "final": {}},
     "missing field 'initial'"),
    ("pipeline --replay", {"initial": DIAG23, "final": DIAG23},
     "missing field 'steps'"),
    ("pipeline --replay", {"initial": DIAG23, "steps": 7, "final": DIAG23},
     "steps must be a list, not int"),
    ("ledger", {"records": ["N"]},
     "the object holding 'N' must be a JSON object, not str"),
    ("ledger", {"records": "N"}, "records must be a list, not str"),
    ("semigroup", {"structure": {"blocks": [{}]}, "big": []},
     "missing field 'small'"),
    ("pipeline", {"name": "x", "random": {"count": "0"}, "expect": "e"},
     "the object holding 'e' must be a JSON object, not str"),
    ("pipeline", {"name": "x", "random": {"count": "0"},
                  "expect": {"e": "x"}}, "not an integer: 'x'"),
    ("pipeline", {"name": "x", "random": {"count": "0"},
                  "expect": {"e": None}}, "not an integer string: None"),
    ("graded", {"random": {}}, "missing field 'name'"),
])
def test_parse_errors_name_the_field(tmp_path, capsys, command, data,
                                     message):
    src = write(tmp_path, "in.json", data)
    flag = [] if command.endswith("--replay") else ["--in"]
    assert main([*command.split(), *flag, src, "--json"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_pipeline_decodes_expect_before_any_case_runs(tmp_path, capsys,
                                                      monkeypatch):
    # "expect": "e" used to run every case, then exit 2
    def no_case(*args):
        raise AssertionError("a case ran")
    monkeypatch.setattr(scenarios, "_run_extension_case", no_case)
    data = json.loads(bundled_scenario_bytes("random_a.json"))
    src = write(tmp_path, "s.json", dict(data, expect="e"))
    assert main(["pipeline", "--scenario", src, "--json"]) == 2
    assert capsys.readouterr().out == ""


def test_no_handler_relabels_python_errors():
    # a KeyError, TypeError or AttributeError is a program bug, never
    # "malformed input": decoders raise ParseError themselves
    import ast
    root = Path(gradedval.__file__).resolve().parent
    named = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type)
                         if isinstance(n, ast.Name)}
                named += [(path.name, n) for n in sorted(
                    names & {"KeyError", "TypeError", "AttributeError"})]
    assert named == []


@pytest.mark.parametrize("flag", ["--in", "--out"])
def test_os_errors_exit_2_with_one_line(tmp_path, capsys, flag):
    # a directory for --in or --out ended in an IsADirectoryError traceback
    src = write(tmp_path, "m.json", {"matrix": [["2"]]})
    argv = ["snf", "--in", str(tmp_path) if flag == "--in" else src]
    if flag == "--out":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_monomialize_and_replay(tmp_path, capsys):
    # the trace monomialize emits replays to its final form, for every
    # extension of the bundled corpus, the random sections' included
    from gradedval.scenarios import load_scenario
    from gradedval.serialize import load_json
    src = scenario_path(tmp_path, "rank2_h2.json")
    trace = str(tmp_path / "trace.json")
    sources = [src]
    for name in bundled_scenario_names():
        scenario = load_scenario(load_json(bundled_scenario_bytes(name)))
        sources += [write(tmp_path, f"{label}.json", enc_extension(me))
                    for label, me in scenario.extensions]
    assert len(sources) == 23
    for src in sources:
        assert main(["monomialize", "--in", src, "--out", trace,
                     "--json"]) == 0
        assert main(["pipeline", "--replay", trace, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["replay_matches"] is True


def test_replay_detects_tampering(tmp_path, capsys):
    src = scenario_path(tmp_path, "rank2_h2.json")
    trace = tmp_path / "trace.json"
    assert main(["monomialize", "--in", src, "--out", str(trace),
                 "--json"]) == 0
    data = json.loads(trace.read_text())
    data["final"]["A"][0][0] = "7"
    tampered = write(tmp_path, "tampered.json", data)
    assert main(["pipeline", "--replay", tampered, "--json"]) == 1


def test_replay_refuses_blocks_that_contradict_the_step(tmp_path, capsys):
    # the "s" step's blocks used to be ignored, so blocks ["9"] replayed
    # with exit 0 and replay_matches true
    src = scenario_path(tmp_path, "rank2_h2.json")
    trace = tmp_path / "trace.json"
    assert main(["monomialize", "--in", src, "--out", str(trace),
                 "--json"]) == 0
    data = json.loads(trace.read_text())
    (s_step,) = [step for step in data["steps"] if step["kind"] == "s"]
    assert s_step["blocks"] == ["1", "2", "2", "1"]
    s_step["blocks"] = ["9"]
    capsys.readouterr()
    probe = write(tmp_path, "probe.json", data)
    assert main(["pipeline", "--replay", probe, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 's' step of row 1 and target 2 has "
                            "blocks [9], not [1, 2, 2, 1]\n")


@pytest.mark.parametrize("step, first", [
    ({"kind": "zap", "row": "0"}, False),
    ({"kind": "r", "row": "99"}, False),
    ({"kind": "s", "row": "-1", "target": "2"}, True),
    ({"kind": "rescale", "row": "-1"}, False),
    ({"kind": "r", "row": "1", "exponents": [["-1", "1"]]}, False),
    # an exponent pair of the wrong length gave a ValueError traceback
    ({"kind": "r", "row": "1", "exponents": [["1"]]}, False),
    ({"kind": "r", "row": "1", "exponents": [["1", "1", "1"]]}, False),
    # a string was iterated: "12" read as the pair or blocks (1, 2)
    ({"kind": "r", "row": "1", "exponents": ["12"]}, False),
    ({"kind": "s", "row": "0", "target": "1", "blocks": "12"}, True),
])
def test_replay_rejects_malformed_steps(tmp_path, capsys, step, first):
    # each used to give a traceback, or a result read from the last row
    src = scenario_path(tmp_path, "rank2_h2.json")
    trace = tmp_path / "trace.json"
    assert main(["monomialize", "--in", src, "--out", str(trace),
                 "--json"]) == 0
    data = json.loads(trace.read_text())
    if first:
        data["steps"].insert(0, step)
    else:
        data["steps"].append(step)
    capsys.readouterr()
    probe = write(tmp_path, "probe.json", data)
    assert main(["pipeline", "--replay", probe, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_replay_rejects_malformed_steps_of_a_decoded_unknown_kind(
        tmp_path, capsys):
    # dec_step checks no kind: "zap" decodes to a TransformStep, and
    # replay refuses it before any step is applied, with the message
    # dec_step used to raise, so `pipeline --replay` prints the same line
    step = dec_step({"kind": "zap", "row": "0"})
    assert step == TransformStep(kind="zap", row=0)
    src = scenario_path(tmp_path, "rank2_h2.json")
    trace = tmp_path / "trace.json"
    assert main(["monomialize", "--in", src, "--out", str(trace),
                 "--json"]) == 0
    data = json.loads(trace.read_text())
    initial = dec_extension(data["initial"])
    with pytest.raises(MalformedStep) as info:
        replay(initial, (*map(dec_step, data["steps"]), step))
    assert str(info.value) == "unknown step kind 'zap'"
    data["steps"].append({"kind": "zap", "row": "0"})
    capsys.readouterr()
    probe = write(tmp_path, "probe.json", data)
    assert main(["pipeline", "--replay", probe, "--json"]) == 2
    assert capsys.readouterr() == ("", "error: unknown step kind 'zap'\n")


def test_cosets_command(tmp_path, capsys):
    src = scenario_path(tmp_path, "rank2_h2.json")
    assert main(["cosets", "--in", src, "--box-bound", "4",
                 "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["e"] == "2"
    assert len(out["lattice_points"]) == 2
    assert out["decomposition"]["ok"] is True


def test_cosets_labels_over_a_big_group_of_non_identity_basis(tmp_path,
                                                              capsys):
    # big = <(1, 1), (0, 2)>, whose Hermite basis is not the identity, and
    # small = <nu(x_1), nu(x_2)> = <(3, 3), (0, 2)>; a label is the value
    # row reduced through small's Hermite rows, so (2, 0), not (2, 2),
    # labels the point (2, 0): both lie in one coset, (0, 2) = nu(x_2)
    ext = {"blocks": {"r": "2", "t": ["1", "1"], "s": ["1", "1"]},
           "structure": {"blocks": [{"quad": None}, {"quad": None}]},
           "A": [["3", "0"], ["0", "1"]], "unit_markers": ["1", "1"],
           "y_values": [[["1"], ["1"]], [["0"], ["2"]]]}
    src = write(tmp_path, "ext.json", {"extension": ext})
    assert main(["cosets", "--in", src, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["e"] == "3" and out["invariant_factors"] == ["3"]
    assert out["lattice_points"] == [["0", "0"], ["1", "0"], ["2", "0"]]
    assert out["coset_labels"] == [
        [["0"], ["0"]], [["1"], ["1"]], [["2"], ["0"]]]


def test_cosets_box_bound_builds_the_parallelepiped_once(tmp_path, capsys,
                                                       monkeypatch):
    # the box check takes the coset system's own parallelepiped; both
    # entry points of the walk are counted
    from gradedval import affine_monoids
    real = affine_monoids.parallelepiped_points
    calls = []

    def spy(entry):
        def counting(vectors, *rest):
            calls.append(vectors)
            return entry(vectors, *rest)
        return counting

    for entry in (real, affine_monoids.labelled_parallelepiped):
        for name, module in list(sys.modules.items()):
            if name.startswith("gradedval") and \
                    getattr(module, entry.__name__, None) is entry:
                monkeypatch.setattr(module, entry.__name__, spy(entry))
    src = scenario_path(tmp_path, "diag23.json")
    assert main(["cosets", "--in", src, "--box-bound", "3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    # the same check on a freshly built basis gives the same counts
    monoid = affine_monoids.AffineMonoid(
        dim=len(calls[0]), generators=calls[0],
        positivity_functional=(1,) * len(calls[0]))
    fresh = affine_monoids.verify_disjoint_decomposition(
        real(calls[0]), monoid, box_bound=3)
    assert out["decomposition"] == {
        "box_bound": "3", "checked_points": str(fresh.checked_points),
        "ok": True}


def test_cosets_box_beyond_the_budget_exits_1_at_once(tmp_path, capsys):
    # 100000^2 box points: refused before the loop, not a hang
    src = scenario_path(tmp_path, "diag23.json")
    start = time.monotonic()
    assert main(["cosets", "--in", src, "--box-bound", "100000",
                 "--json"]) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "EnumerationOverflow" in captured.err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_cosets_rejects_non_positive_box_bound(tmp_path, capsys, bound):
    src = scenario_path(tmp_path, "rank2_h2.json")
    assert main(["cosets", "--in", src, "--box-bound", bound,
                 "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--box-bound" in captured.err


def test_graded_command(tmp_path, capsys):
    src = scenario_path(tmp_path, "diag23.json")
    assert main(["graded", "--scenario", src, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cases"][0]["e"] == "6"
    assert out["cases"][0]["rank"] == "6"


def test_graded_runs_only_the_extension_cases(tmp_path, capsys):
    # graded ran the whole pipeline and kept only its cases: a semigroup
    # generator of large value made it enumerate for about 4 s and exit 1
    # with empty stdout, although its report has no case
    data = edited("section5.json", "semigroups", "small", 1,
                  value=[["998244359987710471"]])
    src = write(tmp_path, "s.json", data)
    start = time.perf_counter()
    assert main(["graded", "--scenario", src, "--json"]) == 0
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().out)["cases"] == []
    # the sections are still decoded
    data["semigroups"]["bound"] = 4
    src = write(tmp_path, "s.json", data)
    assert main(["graded", "--scenario", src, "--json"]) == 2
    assert capsys.readouterr().err == "error: not a rational string: 4\n"


OVERFLOW = {"stage": "semigroup",
            "error": "EnumerationOverflow: enumeration budget exhausted"}


@pytest.mark.parametrize("argv", [["pipeline", "--scenario"],
                                  ["semigroup", "--in"]])
def test_semigroup_budget_is_refused_before_enumerating(tmp_path, capsys,
                                                        argv):
    # the big generator 1 alone would add 998244359987710471 + 1 sums; the
    # same refusal used to come after the whole budget, about 3 s.  The
    # section reports it, and the pipeline's report is still written
    data = edited("section5.json", "semigroups", "small", 1,
                  value=[["998244359987710471"]])
    if argv[0] == "semigroup":
        data = data["semigroups"]
    src = write(tmp_path, "s.json", data)
    start = time.perf_counter()
    assert main(argv + [src, "--json"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and len(report.pop("input_sha256")) == 64
    expected = {"ok": False, "failure": OVERFLOW}
    if argv[0] == "pipeline":
        expected = {"scenario": "section5", "cases": [], "ok": False,
                    "semigroup": expected}
    assert report == expected


@pytest.mark.parametrize("blocks, small, big, bound", [
    # a sqrt(2) block: the run of (1, 0) toward the small generator's
    # query bound, about 10**18 sums
    ([{"quad": 2}], [[["998244359987710471", "0"]]], [[["1", "0"]]], "4"),
    # 11 sums of level 0 fit the budget, then a level-1 run of 10**7 + 1
    ([{"quad": None}, {"quad": None}],
     [[["1000000"], ["0"]], [["0"], ["1"]]],
     [[["1000000"], ["0"]], [["0"], ["1"]]], "10000000"),
    # 10**6 + 1 sums of level 0 would fit, but the level-1 run from zero
    # alone is 10**12 + 1: refused before level 0 is built
    ([{"quad": None}, {"quad": None}],
     [[["1000000"], ["0"]], [["0"], ["1"]]],
     [[["1000000"], ["0"]], [["0"], ["1"]]], "1000000000000"),
])
def test_semigroup_later_or_sqrt_run_is_refused_before_enumerating(
        tmp_path, capsys, blocks, small, big, bound):
    # each took 4-5 s, while only the first rational run was refused early
    src = write(tmp_path, "sg.json", {
        "structure": {"blocks": blocks}, "small": small, "big": big,
        "bound": bound, "expect_growth": True})
    start = time.perf_counter()
    assert main(["semigroup", "--in", src, "--json"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and len(report.pop("input_sha256")) == 64
    assert report == {"ok": False, "failure": OVERFLOW}


def test_semigroup_command(tmp_path, capsys):
    payload = {
        "structure": {"blocks": [{"quad": None}]},
        "small": [[["1"]], [["5/2"]]],
        "big": [[["1"]], [["3/2"]]],
        "bound": "4",
        "expect_growth": True,
    }
    src = write(tmp_path, "sg.json", payload)
    assert main(["semigroup", "--in", src, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [["3/2"]] in out["witnesses"]

    payload["expect_growth"] = False
    src2 = write(tmp_path, "sg2.json", payload)
    assert main(["semigroup", "--in", src2, "--json"]) == 1


# small = <(1, 0)> of rank 1 inside big = Z^2 of rank 2
LOWER_RANK = {"structure": {"blocks": [{"quad": None}, {"quad": None}]},
              "small": [[["1"], ["0"]]],
              "big": [[["1"], ["0"]], [["0"], ["1"]]],
              "bound": "2", "expect_growth": True}
LOWER_RANK_SECTION = {
    "witnesses": [[["0"], ["1"]], [["0"], ["2"]], [["1"], ["1"]],
                  [["1"], ["2"]], [["2"], ["1"]], [["2"], ["2"]]],
    "groups_equal": False, "expected_growth": True, "ok": False}


def test_semigroup_of_lower_rank_small_reports_unequal_groups(tmp_path,
                                                              capsys):
    # the section used to fail with "InfiniteIndex: rational spans differ"
    # and drop its witnesses: groups_equal asked for the index of small
    src = write(tmp_path, "sg.json", LOWER_RANK)
    assert main(["semigroup", "--in", src, "--json"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and len(report.pop("input_sha256")) == 64
    assert report == LOWER_RANK_SECTION
    scenario = scenarios.load_scenario(
        {"name": "lower", "semigroups": LOWER_RANK})
    assert scenarios.run_pipeline(scenario) == {
        "scenario": "lower", "cases": [], "semigroup": LOWER_RANK_SECTION,
        "ok": False}


def sqrt2_semigroup(quad):
    # the sqrt(2) section of the benchmark's mixed workload, with its quad
    u, v, w = [["2"], ["0", "0"]], [["0"], ["2", "0"]], [["0"], ["0", "2"]]
    return {"structure": {"blocks": [{"quad": None}, {"quad": quad}]},
            "small": [u, v, w], "big": [u, v, w, [["2"], ["-2", "0"]]],
            "bound": "8", "expect_growth": True}


def test_structure_quad_accepts_string_and_integer(tmp_path, capsys):
    # the encoder writes a bare integer quad, so it is read back as one
    outputs = []
    for quad in ("2", 2):
        src = write(tmp_path, "sg.json", sqrt2_semigroup(quad))
        assert main(["semigroup", "--in", src, "--json"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0]["witnesses"] == outputs[1]["witnesses"] != []


@pytest.mark.parametrize("quad", [2.5, True, "2/3", "1/0", ""])
@pytest.mark.parametrize("command", ["semigroup", "cosets"])
def test_structure_quad_rejects_non_integers(tmp_path, capsys, command, quad):
    # 2.5 used to run as sqrt(2), true as sqrt(1), and "2/3" or "" to
    # end in a ValueError traceback
    if command == "semigroup":
        data = sqrt2_semigroup(quad)
    else:
        data = json.loads(bundled_scenario_bytes("rank2_h2.json"))
        data["extension"]["structure"]["blocks"][0]["quad"] = quad
    src = write(tmp_path, "in.json", data)
    assert main([command, "--in", src, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("e_max", ["0", "-0", "-3"])
def test_random_e_max_below_1_exits_2_at_once(tmp_path, e_max):
    # no extension has |det A| < 1: the sampler used to loop forever, so
    # the run gets a wall bound of its own process, under -O when this is
    src = write(tmp_path, "s.json", {
        "name": "r", "random": {"seed": "1", "count": "2", "e_max": e_max}})
    env = dict(os.environ)
    src_dir = str(Path(gradedval.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-m", "gradedval.cli",
         "pipeline", "--scenario", src, "--json"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == \
        f"error: random.e_max must be at least 1, not {int(e_max)}\n"


def run_cli(argv):
    """(stdout, stderr, exit code) of one main call; an argparse usage
    error exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch):
    scenario = scenario_path(tmp_path, "diag23.json")
    matrix = write(tmp_path, "m.json", {"matrix": [["2", "4"], ["6", "8"]]})
    calls = [["pipeline", "--scenario", scenario],
             ["snf", "--in", matrix],
             ["snf", "--in", matrix, "--no-such-flag"],
             ["pipeline", "--scenario", scenario, "--json"]]
    # the reference: a fresh parser for every call
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_cli(argv) for argv in calls]
    assert [code for _, _, code in fresh] == [0, 0, 2, 0]
    assert fresh[2][0] == "" and "unrecognized arguments" in fresh[2][1]
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    assert [run_cli(argv) for argv in calls] == fresh
    assert [run_cli(argv) for argv in calls] == fresh
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    src_dir = str(Path(gradedval.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import gradedval.cli as c; "
         "print(c._parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("count", ["99999999999", "1001", "-1"])
def test_random_count_out_of_range_exits_2_at_once(tmp_path, count):
    # "99999999999" used to be accepted and ran until killed, so the run
    # gets a wall bound of its own process
    src = write(tmp_path, "s.json", {
        "name": "r", "random": {"seed": "1", "count": count}})
    env = dict(os.environ)
    src_dir = str(Path(gradedval.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-m", "gradedval.cli",
         "pipeline", "--scenario", src, "--json"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == \
        f"error: random.count must be in [0, 1000], not {int(count)}\n"


def run_bounded(argv):
    """A CLI run in its own process, under -O when this is, with a wall
    bound: (exit code, stdout, stderr, seconds)."""
    env = dict(os.environ)
    src_dir = str(Path(gradedval.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-m", "gradedval.cli",
         *argv], env=env, capture_output=True, text=True, timeout=60)
    return (proc.returncode, proc.stdout, proc.stderr,
            time.perf_counter() - t0)


def test_parallelepiped_over_budget_fails_its_case_at_once(tmp_path):
    # identity.json with |det A| = 999999999999: the walk ran past a 10 s
    # alarm; now the coset system refuses it before walking.  The pipeline
    # case is refused earlier still, before the rewriting, by the label
    # budget on e * f = |det A_T| * 1 (it failed at stage coset_system
    # with the point budget); `cosets` builds no module and keeps the
    # walk's refusal
    data = json.loads(bundled_scenario_bytes("identity.json"))
    data["extension"]["A"][1][1] = "999999999999"
    src = write(tmp_path, "big.json", data)
    code, out, err, seconds = run_bounded(
        ["pipeline", "--scenario", src, "--json"])
    assert code == 1 and err == "" and seconds < 20
    case, = json.loads(out)["cases"]
    assert case == {"case": "identity", "ok": False, "failure": {
        "stage": "graded",
        "error": "EnumerationOverflow: rank e * f = 999999999999 over the "
                 "budget of 1000000 basis labels"}}
    error = ("EnumerationOverflow: parallelepiped of 999999999999 points "
             "over the budget of 1000000")
    code, out, err, seconds = run_bounded(["cosets", "--in", src])
    assert code == 1 and out == "" and seconds < 20
    assert err == f"check failed: {error}\n"


POINTS_SCALING = Path(__file__).resolve().parents[1] / "tools" / \
    "points_scaling.py"


def points_scaling_extension(g):
    """tools/points_scaling.extension(g): a valid input with e = g1 * g2."""
    spec = importlib.util.spec_from_file_location("points_scaling",
                                                  POINTS_SCALING)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.extension(g)


def a6_failing_scenario(g):
    """points_scaling_extension(g) with y_1, a non-T variable of block 0,
    valued (1 | 7): a valid input whose value groups break A6."""
    me = points_scaling_extension(g)
    values = list(me.y_values)
    values[1] = me.structure.element(((1,), (7,)))
    me = dataclasses.replace(me, y_values=tuple(values))
    return {"name": "a6", "extension": enc_extension(me),
            "residue_degree": "1"}


def spy_on(monkeypatch, source, name):
    """The list of argument tuples of every call of source.name that a
    gradedval module makes, through its own import of the name."""
    real = getattr(source, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("gradedval") and \
                getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, spy)
    return calls


def best_of_three_failures(capsys, src, name):
    """The case report of three `pipeline` calls on src, each exit 1 with
    one failed case, and the best wall time of the three."""
    seconds, cases = [], []
    for _ in range(3):
        start = time.perf_counter()
        assert main(["pipeline", "--scenario", src, "--json"]) == 1
        seconds.append(time.perf_counter() - start)
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == "" and len(report.pop("input_sha256")) == 64
        case, = report.pop("cases")
        assert report == {"scenario": name, "ok": False}
        cases.append(case)
    assert cases[0] == cases[1] == cases[2]
    return cases[0], min(seconds)


@pytest.mark.parametrize("g, stage, error", [
    # the walk built all 500 000 points first: 2.4-3.4 s and a 177 MB
    # peak in a 2-core container
    ((500, 1000), "coset_system",
     "HypothesisA6Failed: |det A| = 500000 but subgroup index is 2"),
    # this one reported "EnumerationOverflow: parallelepiped of 1001000
    # points over the budget of 1000000", then, with A6 checked before
    # the walk, "HypothesisA6Failed: |det A| = 1001000 but subgroup index
    # is 1" at stage coset_system; its rank e * f = 1001000 * 1 is now
    # refused first, before the rewriting
    ((1000, 1001), "graded",
     "EnumerationOverflow: rank e * f = 1001000 over the budget of "
     "1000000 basis labels"),
], ids=("500x1000", "1000x1001"))
def test_hypothesis_a6_is_refused_before_the_walk(tmp_path, capsys,
                                                  monkeypatch, g, stage,
                                                  error):
    walks = spy_on(monkeypatch, affine_monoids, "labelled_parallelepiped")
    src = write(tmp_path, "a6.json", a6_failing_scenario(g))
    case, seconds = best_of_three_failures(capsys, src, "a6")
    assert case == {"case": "a6", "ok": False,
                    "failure": {"stage": stage, "error": error}}
    # the walk is never entered; the best of three calls keeps the bound
    # from failing on one call slowed by a shared CPU or a line tracer
    assert walks == []
    assert seconds < 0.1


@pytest.mark.parametrize("f, error", [
    # monomialized and walked all 500 000 points first: 2.58 s and a
    # 196 MB peak in a 2-core container, with the same failure
    ("3", "EnumerationOverflow: rank e * f = 1500000 over the budget of "
          "1000000 basis labels"),
    ("0", "GradingMismatch: residue degree must be at least 1"),
], ids=("f3", "f0"))
def test_graded_refusals_come_before_the_rewriting(tmp_path, capsys,
                                                   monkeypatch, f, error):
    # e = |det A_T| = 500 000 is read off the input, so e * f is refused
    # before strong_monomialize and the walk
    rewrites = spy_on(monkeypatch, monomialization, "strong_monomialize")
    walks = spy_on(monkeypatch, affine_monoids, "labelled_parallelepiped")
    src = write(tmp_path, "labels.json", {
        "name": "labels", "residue_degree": f,
        "extension": enc_extension(points_scaling_extension((500, 1000)))})
    case, seconds = best_of_three_failures(capsys, src, "labels")
    assert case == {"case": "labels", "ok": False,
                    "failure": {"stage": "graded", "error": error}}
    assert rewrites == [] and walks == []
    assert seconds < 0.1


def test_residue_degree_over_budget_fails_its_case_at_once(tmp_path):
    # residue_degree 999999999999 on identity.json hung graded and
    # pipeline, which built its e * f basis labels
    data = json.loads(bundled_scenario_bytes("identity.json"))
    data["residue_degree"] = "999999999999"
    src = write(tmp_path, "big_f.json", data)
    failure = {"stage": "graded",
               "error": "EnumerationOverflow: rank e * f = 999999999999 "
                        "over the budget of 1000000 basis labels"}
    for command in ("pipeline", "graded"):
        code, out, err, seconds = run_bounded(
            [command, "--scenario", src, "--json"])
        assert code == 1 and err == "" and seconds < 20
        case, = json.loads(out)["cases"]
        assert case == {"case": "identity", "ok": False, "failure": failure}


def test_random_count_zero_runs_no_case(tmp_path, capsys):
    src = write(tmp_path, "s.json", {
        "name": "r", "random": {"seed": "1", "count": "0"}})
    assert main(["pipeline", "--scenario", src, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cases"] == []


@pytest.mark.parametrize("e_max", [0, -3])
def test_random_extension_bounded_refuses_e_max_below_1_at_once(e_max):
    rng = random.Random(1)
    state = rng.getstate()
    t0 = time.perf_counter()
    with pytest.raises(EnumerationOverflow):
        scenarios.random_extension_bounded(rng, e_max=e_max)
    assert time.perf_counter() - t0 < 1.0
    assert rng.getstate() == state


def test_random_extension_bounded_gives_up_after_its_budget(monkeypatch):
    # every draw has |det A| = 2, so e_max = 1 is never met
    me = scenarios.random_theorem48_extension(random.Random(0), g_max=1)
    rows = [list(row) for row in me.A.entries]
    rows[0][0] = 2
    two = dataclasses.replace(me, A=ExactMatrix.from_rows(rows))
    drawn = []

    def draw(rng, **kwargs):
        drawn.append(1)
        return two

    monkeypatch.setattr(scenarios, "random_theorem48_extension", draw)
    t0 = time.perf_counter()
    with pytest.raises(EnumerationOverflow, match="10000 draws"):
        scenarios.random_extension_bounded(random.Random(1), e_max=1)
    assert time.perf_counter() - t0 < 30.0
    assert len(drawn) == scenarios._RANDOM_ATTEMPTS == 10_000


def test_random_extension_bounded_draws_like_the_unbounded_loop():
    # the budget changes no draw: the bundled random specs (and so the
    # golden digests) read the same extensions from the same seeds.  The
    # oracle eliminates the full A, so it does not share the product of
    # G-block determinants that the code under test reads
    def unbounded(rng, e_max):
        while True:
            me = scenarios.random_theorem48_extension(rng)
            if 1 <= abs(determinant(me.A)) <= e_max:
                return me

    for seed in range(10):
        for e_max in (1, 5, 12, 24):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert scenarios.random_extension_bounded(
                    ours, e_max=e_max) == unbounded(theirs, e_max)
            assert ours.getstate() == theirs.getstate()


def test_ledger_command(tmp_path, capsys):
    src = write(tmp_path, "ledger.json", {"records": [
        {"N": "6", "e": "2", "f": "3", "p": "0"},
        {"N": "4", "e": "2", "f": "1", "p": "2"},
    ]})
    assert main(["ledger", "--in", src, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["delta"] for r in out["records"]] == ["0", "1"]

    bad = write(tmp_path, "bad_ledger.json", {"records": [
        {"N": "5", "e": "2", "f": "2", "p": "3"},
    ]})
    assert main(["ledger", "--in", bad, "--json"]) == 1


def edited(name, *path, value):
    """The bundled scenario name with the node at path set to value."""
    data = json.loads(bundled_scenario_bytes(name))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


# each of these exited 0 or 1: a parse error of a record was taken for the
# error it expects, a JSON number for a record error, and "false" for true
@pytest.mark.parametrize("command, data", [
    ("ledger", {"records": [{"N": "6", "e": "2", "f": "3",
                             "expect_error": True, "p": 1.5}]}),
    ("ledger", {"records": [{"N": 6, "e": "2", "f": "3", "p": "0"}]}),
    ("semigroup", edited("section5.json", "semigroups", "expect_growth",
                         value="false")["semigroups"]),
    ("pipeline", edited("section5.json", "semigroups", "expect_growth",
                        value="false")),
    ("pipeline", edited("diag23.json", "extension_records", 1, "unramified",
                        value="false")),
    ("pipeline", edited("diag23.json", "extension_records", 0,
                        "expect_error", value="false")),
    ("ledger", {"records": edited("diag23.json", "extension_records", 1,
                                  "unramified", value="false")
                ["extension_records"][1:]}),
    ("ledger", {"records": [{"N": "7", "e": "2", "f": "3",
                             "expect_error": 1}]}),
    ("ledger", {"records": [None]}),
    ("ledger", {"records": {"N": "6"}}),
    ("semigroup", {"structure": {"blocks": [{"quad": None}]}, "small": [],
                   "big": [], "expect_growth": None}),
])
def test_malformed_section_fields_exit_2(tmp_path, capsys, command, data):
    src = write(tmp_path, "in.json", data)
    assert main([command, "--in", src, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_ledger_domain_errors_stay_per_record(tmp_path, capsys):
    # a well-formed record that contradicts the degree identity is a record
    # error: expected, it passes; unexpected, the command exits 1
    record = {"N": "7", "e": "2", "f": "3", "p": "0"}
    for expect, code in ((True, 0), (False, 1)):
        src = write(tmp_path, "in.json",
                    {"records": [dict(record, expect_error=expect)]})
        assert main(["ledger", "--in", src, "--json"]) == code
        entry = json.loads(capsys.readouterr().out)["records"][0]
        assert entry["error"].startswith("e * f = 6 does not divide")
        assert entry["ok"] is expect
    src = write(tmp_path, "in.json", {"records": [
        {"N": "6", "e": "2", "f": "3", "d": "1", "g": "1",
         "unramified": False}]})
    assert main(["ledger", "--in", src, "--json"]) == 1
    entry = json.loads(capsys.readouterr().out)["records"][0]
    assert entry == {"delta": "0", "ok": False, "r": "1",
                     "unramified": True}


def test_dec_bool_accepts_only_json_booleans():
    from gradedval.errors import ParseError
    from gradedval.serialize import dec_bool
    assert dec_bool({"k": True}, "k") is True
    assert dec_bool({"k": False}, "k") is False
    assert dec_bool({}, "k") is False
    for bad in ("false", "true", 0, 1, 1.0, None, [], {}):
        with pytest.raises(ParseError):
            dec_bool({"k": bad}, "k")


@pytest.mark.parametrize("name", SCENARIOS)
def test_pipeline_all_scenarios(tmp_path, capsys, name):
    src = scenario_path(tmp_path, name)
    assert main(["pipeline", "--scenario", src, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert "input_sha256" in out


def test_pipeline_output_deterministic(tmp_path, capsys):
    src = scenario_path(tmp_path, "random_a.json")
    assert main(["pipeline", "--scenario", src, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["pipeline", "--scenario", src, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_pipeline_seed_override(tmp_path, capsys):
    src = scenario_path(tmp_path, "random_a.json")
    assert main(["pipeline", "--scenario", src, "--seed", "5",
                 "--json"]) == 0
    five = capsys.readouterr().out
    assert main(["pipeline", "--scenario", src, "--json"]) == 0
    default = capsys.readouterr().out
    assert five != default


def test_pipeline_seed_hashes_the_scenario_that_ran(tmp_path, capsys):
    from gradedval.serialize import canonical_dumps, sha256_hex
    src = scenario_path(tmp_path, "random_a.json")
    reports = {}
    for seed in ("5", "6", None):
        argv = ["pipeline", "--scenario", src, "--json"]
        assert main(argv + (["--seed", seed] if seed else [])) == 0
        reports[seed] = json.loads(capsys.readouterr().out)
    raw = bundled_scenario_bytes("random_a.json")
    assert {r["input_sha256"] for r in reports.values()} == {sha256_hex(raw)}
    assert "effective_sha256" not in reports[None]
    assert reports["5"]["effective_sha256"] != \
        reports["6"]["effective_sha256"]
    ran = json.loads(raw)
    ran["random"]["seed"] = "5"
    assert reports["5"]["effective_sha256"] == \
        sha256_hex(canonical_dumps(ran).encode())


def test_decoders_accept_only_strings():
    from gradedval.errors import ParseError
    from gradedval.serialize import dec_frac, dec_int
    assert dec_int("-7") == -7
    assert dec_frac("3/2") == dec_frac("1.5")
    for bad in (7, 1.5, True, None, ["1"], "x", "1/0"):
        with pytest.raises(ParseError):
            dec_frac(bad)
        with pytest.raises(ParseError):
            dec_int(bad)


def enc_row(structure, row, L):
    """enc_element of the element with flat coordinates row / L, encoded
    from the integers one row at a time: the oracle of enc_coset_system's
    label encoding."""
    from itertools import islice
    from gradedval.serialize import enc_ratio
    it = iter(row)
    return [[enc_ratio(x, L) for x in islice(it, b.rational_rank)]
            for b in structure.blocks]


def enc_frac(x):
    """str(Fraction(x)): the oracle of enc_element's entries."""
    from fractions import Fraction
    return str(Fraction(x))


def test_element_encoder_matches_fraction_strings(monkeypatch):
    # enc_element encodes each coordinate through enc_ratio, the one
    # rational encoder; seeded elements, sqrt(d) blocks, zeros and
    # integers included
    from fractions import Fraction
    from gradedval import serialize
    from gradedval.ordered_groups import Block, GroupStructure
    from gradedval.serialize import enc_element
    calls = []
    real = serialize.enc_ratio

    def counting(x, L):
        calls.append((x, L))
        return real(x, L)

    monkeypatch.setattr(serialize, "enc_ratio", counting)
    rng = random.Random(13)
    structure = GroupStructure(
        (Block(), Block(quad=2), Block(), Block(quad=7)))
    for _ in range(3000):
        size = rng.choice((1, 9, 10 ** 6, 10 ** 30))
        coords = [[Fraction(rng.randint(-size, size),
                            rng.choice((1, rng.randint(1, size))))
                   for _ in range(b.rational_rank)]
                  for b in structure.blocks]
        el = structure.element(coords)
        assert enc_element(el) == [[enc_frac(c) for c in comp]
                                   for comp in el.coords]
    assert enc_element(structure.zero()) == [["0"], ["0", "0"], ["0"],
                                             ["0", "0"]]
    assert len(calls) == 3001 * structure.rational_rank


def test_witness_encoder_matches_enc_element_and_shares_strings():
    # enc_elements encodes a list as enc_element encodes each element, and
    # one (x, L) is one str across the list, whatever element it is in
    from gradedval.ordered_groups import Block, GroupStructure
    from gradedval.serialize import enc_element, enc_elements
    rng = random.Random(17)
    structure = GroupStructure((Block(), Block(quad=2)))
    els = [structure.from_row(tuple(rng.randint(-4, 4) for _ in range(3)),
                              rng.choice((1, 2, 6)))
           for _ in range(200)]
    encoded = enc_elements(els)
    assert encoded == [enc_element(el) for el in els]
    seen = {}
    for el, blocks in zip(els, encoded):
        strs = [s for block in blocks for s in block]
        for x, s in zip(el.row, strs):
            assert seen.setdefault((x, el.L), s) is s
    assert len(seen) < 3 * len(els) // 4
    assert enc_elements([]) == []


def test_row_encoder_matches_fraction_strings():
    from fractions import Fraction
    from gradedval.ordered_groups import Block, GroupStructure
    from gradedval.serialize import enc_element, enc_ratio
    for L in (1, 2, 6, 35):
        for x in range(-80, 81):
            assert enc_ratio(x, L) == str(Fraction(x, L)), (x, L)
    structure = GroupStructure((Block(), Block(quad=2), Block()))
    for row, L in (((0, -3, 4, 7), 6), ((0, 0, 0, 0), 1), ((-5, 1, 2, 9), 1)):
        assert enc_row(structure, row, L) == \
            enc_element(structure.from_row(row, L))


def test_coset_encoder_matches_enc_int_and_enc_row():
    # one str per distinct integer of a coset system, equal to enc_int's
    # and enc_row's; a sqrt(2) block and L > 1 included
    from test_carried_walk import seeded_extensions
    from gradedval.monomialization import coset_system, strong_monomialize
    from gradedval.serialize import enc_coset_system, enc_int
    seen_L = set()
    for me in seeded_extensions():
        cs = coset_system(strong_monomialize(me).final)
        structure, L = cs.big_group.structure, cs.denominator
        encoded = enc_coset_system(cs)
        assert encoded == {
            "e": enc_int(cs.e),
            "invariant_factors": [enc_int(d) for d in cs.invariant_factors],
            "lattice_points": [[enc_int(x) for x in p]
                               for p in cs.lattice_points],
            "coset_labels": [enc_row(structure, row, L)
                             for row in cs.label_rows],
        }
        strings = [encoded["e"], *encoded["invariant_factors"]]
        for p in encoded["lattice_points"]:
            strings += p
        shared = {}
        for s in strings:
            assert shared.setdefault(s, s) is s
        shared = {}
        for label in encoded["coset_labels"]:
            for s in (s for block in label for s in block):
                assert shared.setdefault(s, s) is s
        seen_L.add(L)
    assert max(seen_L) > 1


def test_pipeline_records_a_failing_case_and_runs_the_rest(tmp_path, capsys):
    # the A6-failing extension: duplicate values make the y-group too
    # small for |det A| = 2; the random section adds one good case
    bad = {
        "blocks": {"r": "1", "t": ["2"], "s": ["1"]},
        "structure": {"blocks": [{"quad": None}]},
        "A": [["2", "0"], ["0", "1"]],
        "unit_markers": ["1", "1"],
        "y_values": [[["1"]], [["1"]]],
    }
    good = {"seed": "3", "count": "1"}
    both = write(tmp_path, "both.json",
                 {"name": "mixed", "extension": bad, "random": good})
    alone = write(tmp_path, "alone.json", {"name": "mixed", "random": good})
    assert main(["pipeline", "--scenario", both, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    failed, passed = report["cases"]
    assert failed == {
        "case": "mixed", "ok": False,
        "failure": {"stage": "coset_system",
                    "error": "HypothesisA6Failed: |det A| = 2 but subgroup "
                             "index is 1"}}
    assert main(["pipeline", "--scenario", alone, "--json"]) == 0
    assert passed == json.loads(capsys.readouterr().out)["cases"][0]
    assert passed["ok"] is True
    # the graded summary carries the failure too
    assert main(["graded", "--scenario", both, "--json"]) == 1
    graded = json.loads(capsys.readouterr().out)
    assert graded["cases"][0]["failure"]["stage"] == "coset_system"


@pytest.mark.parametrize("field,value,message", [
    ("unit_markers", ["1", True],
     "unit marker must be a string, not True"),
    ("unit_markers", [1, "1"], "unit marker must be a string, not 1"),
    ("unit_markers", [None, "1"], "unit marker must be a string, not None"),
    ("unit_markers", "11", "unit_markers must be a list, not str"),
    ("t", "11", "blocks.t must be a list, not str"),
    ("s", "11", "blocks.s must be a list, not str"),
    ("t", {"0": "1"}, "blocks.t must be a list, not dict"),
    ("A", "11", "matrix must be a list of rows"),
    ("y_values", "11", "y_values must be a list, not str"),
    ("y_values", ["11", [["1"]]], "group element must be a list, not str"),
    ("y_values", [["11"], [["1"]]], "element block must be a list, not str"),
])
@pytest.mark.parametrize("command", ["pipeline", "cosets", "monomialize"])
def test_extension_fields_are_decoded_not_coerced(tmp_path, capsys, command,
                                                   field, value, message):
    # diag23.json with "t": "11", "s": "11", or with "unit_markers":
    # [1, true], ran and exited 0: the string read as ["1", "1"] and the
    # markers as "1" and "True"
    data = json.loads(bundled_scenario_bytes("diag23.json"))
    ext = data["extension"]
    if field in ("t", "s"):
        ext["blocks"][field] = value
    else:
        ext[field] = value
    if command != "pipeline":
        data = {"extension": ext}
    flag = "--scenario" if command == "pipeline" else "--in"
    src = write(tmp_path, "in.json", data)
    assert main([command, flag, src, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
