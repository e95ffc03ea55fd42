"""Seeded contract fuzzing of the CLI over the bundled corpus.

Each run takes one input of one command, changes one or two of its nodes
(a leaf replaced, a key dropped, a container replaced by a scalar or a list
shortened) and calls cli.main in this process.  Whatever the input, the
contract holds: the exit code is 0, 1 or 2, no exception escapes main, an
exit 2 prints exactly one line on standard error, and the call ends within
CALL_SECONDS (enforced with an interval timer where the platform has one).

The inputs are the bundled corpus and, from the benchmark's mixed workload
at one fixed seed, its generated extension scenarios (one per size), its
semigroup sections and its ledger sections.

fuzz(seed, runs, seconds) is the whole loop, so a longer sweep is one call
of it from a script; the test runs a short one.
"""

import contextlib
import copy
import importlib.util
import io
import json
import random
import signal
import sys
import time
from pathlib import Path

from gradedval.cli import bundled_scenario_bytes, bundled_scenario_names, main

# wall bound of one CLI call
CALL_SECONDS = 10
# the benchmark's generator, loaded by path, and the seed of its inputs
GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
MIXED_SEED = 7
# what a changed leaf becomes: integer and rational strings, malformed
# strings, JSON numbers, booleans, null and containers.  The large prime
# and the product of two primes near 10**9 reach a ledger p that trial
# division would not decide within CALL_SECONDS.
VALUES = ("0", "1", "-1", "2", "3", "7", "1/2", "-3/2", "99999999999999999999",
          "100000000000000000039", "998244359987710471",
          "", "x", "true", "false", 0, 1, -1, 1.5, True, False, None, [],
          {}, ["1"], [["1"]])


class CallTimedOut(BaseException):
    """Raised by the interval timer; a BaseException, so no handler in
    the program can take it for an error of its own."""


def corpus():
    """(argv before --in, JSON object) for every command's inputs."""
    scenarios = [json.loads(bundled_scenario_bytes(name))
                 for name in bundled_scenario_names()]
    out = []
    for data in scenarios:
        out += [(["pipeline", "--scenario"], data),
                (["graded", "--scenario"], data)]
        if "extension" in data:
            ext = {"extension": data["extension"]}
            out += [(["cosets", "--in"], ext), (["monomialize", "--in"], ext),
                    (["snf", "--in"], {"matrix": data["extension"]["A"]})]
            trace = call(["monomialize", "--in"], ext)[1]
            out.append((["pipeline", "--replay"],
                        {k: trace[k] for k in ("initial", "steps", "final")}))
        out += section_inputs(data)
    return out + generated()


def section_inputs(data):
    """The inputs of semigroup and ledger in a scenario's sections."""
    out = []
    if "semigroups" in data:
        out.append((["semigroup", "--in"], data["semigroups"]))
    if "extension_records" in data:
        out.append((["ledger", "--in"],
                    {"records": data["extension_records"]}))
    return out


def generated():
    """(argv before --in, JSON object) for the scenarios the benchmark's
    mixed workload generates at MIXED_SEED: each semigroup and ledger
    scenario, through pipeline and through its section's command, and
    the first extension scenario of each (n, e): the 159 differ little
    and would crowd the other inputs out of the draws."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out, shapes = [], set()
    for case in gen.mixed(MIXED_SEED):
        shape = (case["n"], case["e"])
        if case["kind"] != "pipeline" or shape in shapes:
            continue
        data = json.loads(case["data"])
        if "extension" in data:
            shapes.add(shape)
        out += [(["pipeline", "--scenario"], data), *section_inputs(data)]
    return out


def call(argv, data):
    """(exit code, stdout as JSON or None, stderr) of main on data."""
    stdin = io.TextIOWrapper(io.BytesIO(json.dumps(data).encode()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _stdin(stdin):
        code = main([*argv, "-", "--json"])
    text = out.getvalue()
    return code, json.loads(text) if text else None, err.getvalue()


@contextlib.contextmanager
def _stdin(stream):
    saved, sys.stdin = sys.stdin, stream
    try:
        yield
    finally:
        sys.stdin = saved


def nodes(obj, path=()):
    """Every (path, node) below the top level, containers included."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from nodes(child, path + (key,))


def mutate(data, rng):
    """A deep copy of data with one or two of its nodes changed."""
    data = copy.deepcopy(data)
    for _ in range(rng.choice((1, 2))):
        found = list(nodes(data))
        if not found:
            break
        path, node = rng.choice(found)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = rng.random()
        if op < 0.15 and isinstance(parent, dict):
            del parent[key]
        elif op < 0.25 and isinstance(node, list) and node:
            del node[rng.randrange(len(node))]
        else:
            parent[key] = copy.deepcopy(rng.choice(VALUES))
    return data


def _alarm(signum, frame):
    raise CallTimedOut


def fuzz(seed, runs, seconds):
    """Run up to runs mutated calls, stopping after seconds; returns the
    number of calls made and the count of each exit code."""
    rng = random.Random(seed)
    inputs = corpus()
    codes = {0: 0, 1: 0, 2: 0}
    timer = hasattr(signal, "setitimer")
    if timer:
        previous = signal.signal(signal.SIGALRM, _alarm)
    deadline = time.monotonic() + seconds
    done = 0
    try:
        while done < runs and time.monotonic() < deadline:
            argv, base = rng.choice(inputs)
            data = mutate(base, rng)
            what = f"{argv} on {json.dumps(data)}"
            if timer:
                signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
            t0 = time.monotonic()
            try:
                code, _, err = call(argv, data)
            except CallTimedOut:
                raise AssertionError(f"over {CALL_SECONDS} s: {what}")
            finally:
                if timer:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            assert time.monotonic() - t0 < CALL_SECONDS, what
            assert code in codes, what
            assert "Traceback" not in err, what
            if code == 2:
                assert len(err.splitlines()) == 1, (what, err)
            codes[code] += 1
            done += 1
    finally:
        if timer:
            signal.signal(signal.SIGALRM, previous)
    return done, codes


def test_corpus_covers_every_command():
    commands = {tuple(argv) for argv, _ in corpus()}
    assert {argv[0] for argv in commands} == {
        "pipeline", "graded", "cosets", "monomialize", "semigroup",
        "ledger", "snf"}
    assert ("pipeline", "--replay") in commands
    for argv, data in corpus():
        assert call(argv, data)[0] == 0, argv


def test_mutated_inputs_keep_the_cli_contract():
    done, codes = fuzz(seed=14, runs=2000, seconds=30)
    # the loop ran, and the changes reach both parse and check failures
    assert done >= 100
    assert codes[2] > 0 and codes[0] + codes[1] > 0
