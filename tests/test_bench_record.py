"""tools/bench.py record: the assembly of BENCH_<label>.json on canned
run outputs, with no benchmark run and no timing."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


bench = load_tool()
END_TO_END = [m[0] for m in bench.end_to_end_metrics()]


def stdout(workload, slowdown, metrics, failed=0):
    """A perfbench/run.py stdout: the slowdown line, one line per metric
    and the JSON object last; metrics is {name: (value, unit)}."""
    lines = [f"{workload:7s} median slowdown of the passes: {slowdown:.3f} "
             f"(times below are divided by it)"]
    lines += [f"{workload:7s} {name:58s} {value:14.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines.append(json.dumps({
        "correct": not failed, "attempted": 10, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return "\n".join(lines) + "\n"


def untraced(workload, seed, drop=()):
    return stdout(workload, 1.25, {
        name: (float(seed), "u") for name in END_TO_END if name not in drop})


def traced(workload):
    return stdout(workload, 1.5, {
        "exact_lattice.determinant.calls": (17, "count"),
        "exact_lattice.determinant.s": (0.002, "s"),
        "cli.main.exit_0": (8, "count"),
        "trace.overhead_frac": (0.4, "ratio")})


SCALING = """      e    best s  ms/point   B/point
    100     0.001    0.0137      1311
  99856     0.723    0.0072       603
"""


def test_a_run_is_its_slowdown_its_status_and_its_metrics():
    run = bench.read_record_run(untraced("ladder", 7))
    assert run["slowdown"] == 1.25
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 10, 0)
    assert run["metrics"] == {name: 7.0 for name in END_TO_END}
    # a traced run keeps only its deterministic counts
    run = bench.read_record_run(traced("mixed"), counts_only=True)
    assert run["slowdown"] == 1.5
    assert run["metrics"] == {"exact_lattice.determinant.calls": 17,
                              "cli.main.exit_0": 8}


def test_scaling_rows_are_read_below_the_header():
    assert bench.read_scaling(SCALING) == [
        {"e": 100, "best_s": 0.001, "ms_per_point": 0.0137,
         "bytes_per_point": 1311.0},
        {"e": 99856, "best_s": 0.723, "ms_per_point": 0.0072,
         "bytes_per_point": 603.0}]


def test_the_record_holds_every_run_under_its_workload_and_seed():
    meta = {"label": "x", "code_sha": "abc"}
    doc = bench.assemble(
        meta, {"ladder": {7: untraced("ladder", 7),
                          23: untraced("ladder", 23)}},
        {"ladder": traced("ladder")}, None)
    assert doc["label"] == "x" and doc["code_sha"] == "abc"
    assert doc["scaling"] is None
    ladder = doc["workloads"]["ladder"]
    assert sorted(ladder["untraced"]) == ["23", "7"]
    assert ladder["untraced"]["23"]["metrics"]["cases_per_s"] == 23.0
    assert ladder["traced"]["7"]["metrics"] == {
        "exact_lattice.determinant.calls": 17, "cli.main.exit_0": 8}
    # a missing metric or seed is named; a whole missing workload too
    assert bench.missing_metrics(doc, ["ladder"], (7, 23), END_TO_END) == []
    assert bench.missing_metrics(doc, ["ladder"], (7, 59), ["ok_frac"]) == \
        [("ladder", 59, "ok_frac")]
    assert bench.missing_metrics(doc, ["mixed"], (7,), ["ok_frac"]) == \
        [("mixed", 7, "ok_frac")]


def fake_runs(monkeypatch, tmp_path, drop=()):
    """record's tools replaced by canned outputs; returns the calls."""
    calls = []

    def run_tool(checkout, argv, env=None):
        calls.append(argv)
        if argv[0] == "tools/points_scaling.py":
            assert env["PYTHONPATH"] == str(checkout / "src")
            return SCALING
        workload, seed = argv[argv.index("--workload") + 1], int(
            argv[argv.index("--seed") + 1])
        if argv[argv.index("--trace") + 1] == "1":
            return traced(workload)
        return untraced(workload, seed, drop if seed == 59 else ())

    monkeypatch.setattr(bench, "run_tool", run_tool)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "points_scaling.py").touch()
    (tmp_path / "BENCHMARK.json").write_text(
        (BENCH.parents[1] / "BENCHMARK.json").read_text())
    return calls


def test_record_runs_every_workload_and_seed_and_writes_the_file(
        monkeypatch, tmp_path):
    calls = fake_runs(monkeypatch, tmp_path)
    assert bench.main(["record", "--label", "t1", "--checkout",
                       str(tmp_path), "--seconds", "0.5", "--size",
                       "tiny"]) == 0
    workloads = [w["name"] for w in json.loads(
        (tmp_path / "BENCHMARK.json").read_text())["workloads"]]
    assert len(calls) == 4 * len(workloads) + 1
    assert calls[0] == ["perfbench/run.py", "--workload", workloads[0],
                        "--seed", "7", "--seconds", "0.5", "--trace", "0",
                        "--size", "tiny"]
    doc = json.loads((tmp_path / "BENCH_t1.json").read_text())
    assert doc["label"] == "t1" and doc["size"] == "tiny"
    assert doc["seconds"] == 0.5 and doc["cores"] >= 1
    assert sorted(doc["workloads"]) == sorted(workloads)
    for workload in workloads:
        assert sorted(doc["workloads"][workload]["untraced"]) == \
            ["23", "59", "7"]
    assert [row["e"] for row in doc["scaling"]] == [100, 99856]
    # the best of three alternating rounds, not one run per size
    assert calls[-1] == ["tools/points_scaling.py", "--repeat", "3"]
    # tmp_path is no git checkout: its shas are unknown, not made up
    assert doc["code_sha"] is None and doc["modified"] is None


def test_record_refuses_a_run_that_lacks_an_end_to_end_metric(
        monkeypatch, tmp_path):
    fake_runs(monkeypatch, tmp_path, drop=("peak_rss_mb",))
    with pytest.raises(SystemExit) as info:
        bench.main(["record", "--label", "t2", "--checkout", str(tmp_path)])
    assert "peak_rss_mb of ladder seed 59" in str(info.value.code)
    assert not (tmp_path / "BENCH_t2.json").exists()


@pytest.mark.parametrize("label", ["", "../x", "a/b", "a b"])
def test_record_refuses_a_label_that_is_no_plain_name(label):
    with pytest.raises(SystemExit) as info:
        bench.main(["record", "--label", label])
    assert info.value.code == 2
