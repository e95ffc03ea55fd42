"""tools/bench.py pairs: the arithmetic of the claim rule on canned run
outputs, with no benchmark run and no timing."""

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


def canned(failed=0, **values):
    """A run's last stdout line, with the given metric values."""
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "u"}
                        for name, value in values.items()}}


def test_read_run_takes_the_last_line():
    lines = ["ladder  cases_per_s   596.3 1/s",
             json.dumps(canned(cases_per_s=596.3)), ""]
    assert bench.read_run("\n".join(lines)) == canned(cases_per_s=596.3)


PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
CHANGE = [110, 111, 109, 112, 110, 108, 110, 111, 109, 110]


def test_a_change_that_wins_nine_tenths_beyond_the_iqr_is_a_gain():
    s = bench.summarize(PARENT, CHANGE, "higher", 0.25)
    # inclusive quartiles of the parent: 99.25 and 100.75
    assert s["parent_median"] == 100 and s["parent_iqr"] == 1.5
    assert s["change_median"] == 110 and s["wins"] == 10
    assert s["verdict"] == "gain"
    # lower is better: the same numbers are a change for the worse
    s = bench.summarize(PARENT, CHANGE, "lower", 0.25)
    assert s["wins"] == 0 and s["verdict"] == "holds"
    assert s["worse_by"] == pytest.approx(0.10)
    s = bench.summarize(PARENT, CHANGE, "lower", 0.05)
    assert s["verdict"] == "worse"


def test_fewer_pairs_or_wins_or_a_gap_within_the_iqr_are_no_gain():
    # every pair won, but six pairs are fewer than ten
    s = bench.summarize(PARENT[:6], CHANGE[:6], "higher", 0.25)
    assert s["wins"] == 6 and s["verdict"] == "holds"
    # eight wins of ten is under nine tenths, though the medians separate
    s = bench.summarize(PARENT, CHANGE[:8] + [97, 98], "higher", 0.25)
    assert s["wins"] == 8 and s["verdict"] == "holds"
    # every pair won, by less than the parent's IQR of 1.5
    s = bench.summarize(PARENT, [x + 1 for x in PARENT], "higher", 0.25)
    assert s["wins"] == 10 and s["verdict"] == "holds"


def test_ties_count_for_neither_side():
    s = bench.summarize([1.0] * 6, [1.0] * 6, "higher", 0.01)
    assert s["wins"] == 0 and s["worse_by"] == 0
    assert s["verdict"] == "holds"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # medians 105 and 102.5, but the parent's IQR is 15, 14% of its
    # median, against a bound of 10%
    s = bench.summarize([100, 120, 90, 110], [105, 95, 125, 100],
                        "lower", 0.1)
    assert s["parent_iqr"] == 15 and s["wins"] == 2
    assert s["verdict"] == "unresolved"
    # unless every run of the change is better than every run of the
    # parent; here the gap of 20.5 is still within the parent's IQR of 30
    s = bench.summarize([100, 130, 100, 130], [131, 140, 131, 140],
                        "higher", 0.25)
    assert s["parent_iqr"] == 30 and s["wins"] == 4
    assert s["verdict"] == "holds"


def test_summarize_needs_paired_values():
    with pytest.raises(ValueError):
        bench.summarize([1, 2, 3], [1, 2], "higher", 0.25)
    with pytest.raises(ValueError):
        bench.summarize([1], [1], "higher", 0.25)


def test_metrics_are_the_benchmarks_end_to_end_list():
    spec = json.loads((BENCH.parents[1] / "BENCHMARK.json").read_text())
    assert [m[0] for m in bench.end_to_end_metrics()] == \
        [m["name"] for m in spec["end_to_end"]]
    assert ("ok_frac", "ratio", "higher", 0.01) in \
        bench.end_to_end_metrics()


def test_pairs_alternate_and_report_every_pair(monkeypatch, capsys,
                                               tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    order = []

    def run_once(checkout, args):
        order.append(checkout.name)
        k = len(order)
        if checkout == parent:
            return canned(cases_per_s=100 + k, case_p50_ms=1.0,
                          case_tail_ms=2.0, ok_frac=1.0, peak_rss_mb=20.0,
                          setup_s=0.05)
        return canned(failed=1 if k == 3 else 0, cases_per_s=100 + k,
                      case_p50_ms=1.0, case_tail_ms=2.0,
                      ok_frac=0.99 if k == 3 else 1.0, peak_rss_mb=20.0,
                      setup_s=0.05)

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["pairs", str(parent), str(change), "--workload",
                       "mixed", "--seed", "7", "--pairs", "4",
                       "--seconds", "20"]) == 0
    assert order == ["parent", "change", "change", "parent"] * 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "mixed, seed 7, 4 pairs of --seconds 20 --trace 0"
    assert "pair 2: the change run failed 1 of 100 cases" in out
    assert "  pair  1 (parent first): parent 101  change 102" in out
    assert "  pair  2 (change first): parent 104  change 103" in out
    verdicts = [line.rsplit(": ", 1)[1] for line in out
                if line.startswith("  median")]
    assert len(verdicts) == len(bench.end_to_end_metrics())
    # cases_per_s wins pairs 1 and 3 only; ok_frac 0.99 in one pair of
    # four leaves the median at 1.0
    assert verdicts[0] == "holds" and verdicts[3] == "holds"


@pytest.mark.parametrize("argv", [
    ["pairs", "a", "b", "--workload", "mixed", "--seed", "7",
     "--pairs", "1", "--seconds", "20"],
    ["pairs", "a", "a", "--workload", "mixed", "--seed", "7",
     "--pairs", "6", "--seconds", "20"],
])
def test_pairs_refuses_one_pair_or_one_checkout(argv):
    with pytest.raises(SystemExit) as info:
        bench.main(argv)
    assert info.value.code == 2
