"""Golden reports: the canonical bytes of the pipeline are pinned.

A refactor or optimization of any layer must leave these digests alone.
They were recorded from the initial implementation; a change that moves
one changes what the program reports, not how fast it reports it.
"""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gradedval
from gradedval.cli import bundled_scenario_bytes, bundled_scenario_names
from gradedval.scenarios import (
    Scenario,
    load_scenario,
    random_extension_bounded,
    run_pipeline,
)
from gradedval.serialize import canonical_dumps, load_json, sha256_hex

CORPUS_SHA256 = {
    "diag23.json":
        "d1a414b4030b23f63c8889fb0ec947badbc06902e0b314fb33b6f0d2250dd32c",
    "identity.json":
        "859da101128d1e39a9b7e26abb9aad71b1daa1f394e1c7a34d4bb376b375b642",
    "random_a.json":
        "73dea59f5e575837a98afa252c48071911b90aabe67a26117a362d0624f0e745",
    "random_b.json":
        "1052e413f362175453640f6a0e89c4a5fdc37b346d6e9828670087a78e8d8b99",
    "random_c.json":
        "613b4e5b4ab0aa06320cabd9d3b3b350a99ba2e8b900717bc9fa97719a7fb92a",
    "rank2_h1.json":
        "af7f3ba4003cb355c613ca305361c5d9bc34e95a1a59aa672b11613c67f98810",
    "rank2_h2.json":
        "bd25ccb6d7c8b100627b195286101868321377f4b9dbf3c320ca27c2056edd37",
    "section5.json":
        "309f89d9ac66cc8a75969d2c48432262d7893df9274fb76f16cf99ec2f94ebfd",
}

# seed 11, five cases: (n, e) = (10, 112), (2, 6), (8, 200), (6, 112),
# (5, 16)
LADDER_SHA256 = (
    "34750425969613d41390fe649813b845e44e414bcdd4d6332aae560df8270c35")


def corpus_report(name):
    raw = bundled_scenario_bytes(name)
    report = run_pipeline(load_scenario(load_json(raw)),
                          input_sha256=sha256_hex(raw))
    return canonical_dumps(report)


def ladder_scenario():
    rng = random.Random(11)
    extensions = tuple(
        (f"ladder[{k}]", random_extension_bounded(
            rng, e_max=1000, r_max=4, t_max=3, g_max=8))
        for k in range(5))
    return Scenario(name="ladder", extensions=extensions, residue_degree=1,
                    semigroup=None, records=(), expect={})


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_is_the_pinned_one():
    assert tuple(bundled_scenario_names()) == tuple(sorted(CORPUS_SHA256))


def test_corpus_reports_are_golden():
    for name, expected in CORPUS_SHA256.items():
        assert digest(corpus_report(name)) == expected, name


def test_ladder_report_is_golden():
    report = run_pipeline(ladder_scenario())
    assert report["ok"]
    assert [c["e"] for c in report["cases"]] == \
        ["112", "6", "200", "112", "16"]
    assert digest(canonical_dumps(report)) == LADDER_SHA256


def _corpus_under_hash_seed(seed):
    src = str(Path(gradedval.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import hashlib, json\n"
        "from gradedval.cli import bundled_scenario_bytes, "
        "bundled_scenario_names\n"
        "from gradedval.scenarios import load_scenario, run_pipeline\n"
        "from gradedval.serialize import canonical_dumps, load_json, "
        "sha256_hex\n"
        "out = {}\n"
        "for name in bundled_scenario_names():\n"
        "    raw = bundled_scenario_bytes(name)\n"
        "    report = run_pipeline(load_scenario(load_json(raw)),\n"
        "                          input_sha256=sha256_hex(raw))\n"
        "    out[name] = canonical_dumps(report)\n"
        "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout)


def test_corpus_bytes_independent_of_hash_seed():
    one = _corpus_under_hash_seed(1)
    two = _corpus_under_hash_seed(2)
    assert one == two
    assert {name: digest(text) for name, text in one.items()} == \
        CORPUS_SHA256


# the benchmark's generator and runner, loaded by path and never changed;
# they are not a package
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one sha256 over the per-case report sha256s (as `perfbench/run.py --role
# hashes` prints them) of a workload at seed 7
WORKLOAD_SHA256 = {
    "mixed":
        "3180173ad24f025f0a415f02663a58376612a9c8b210676e581114e91b861c55",
    "decomp":
        "8a2da5fce194794989f0404afa8832383e6262afb3b350cee85799260131850b",
}


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_digest(workload, seed=7):
    gen = _perfbench_module("gen")
    program = _perfbench_module("cases").Program()
    digests = []
    for case in gen.WORKLOADS[workload](seed, "full"):
        out, _ = program.run(case, program.decode(case))
        digests.append(hashlib.sha256(out).hexdigest())
    return digest("\n".join(digests))


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SHA256))
def test_workload_reports_are_golden(workload):
    assert workload_digest(workload) == WORKLOAD_SHA256[workload]
