"""Golden CLI bytes: every subcommand on every bundled scenario.

For the 7 subcommands and `pipeline --replay`, on each bundled scenario
that holds input for them, cli.main's exit code, its exact standard error
and the sha256 of its standard output are pinned.  So are the paths the
contract treats on its own: an input file named by --in, --scenario or
--replay, standard input, --out, --json, --seed (which adds
effective_sha256), the --box-bound check and its refusal, and input
errors (a missing file, invalid JSON, a top level that is not an object).

The table was recorded from the implementation in which each command read,
decoded and hashed its own input; reading, hashing and the exit code are
now decided once, in main, and must give these bytes.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from gradedval.cli import bundled_scenario_bytes, bundled_scenario_names, main
from gradedval.serialize import canonical_dumps

# a file name that no call creates
MISSING = "no-such-input.json"


def run(argv, stdin=b""):
    """(exit code, sha256 of stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), \
        err.getvalue()


def scenario_calls(name, directory):
    """(key, argv, stdin bytes) of every call made on one scenario; input
    files are written into directory."""
    raw = bundled_scenario_bytes(name)
    data = json.loads(raw)
    path = directory / name
    path.write_bytes(raw)
    calls = [
        ("pipeline --scenario", ["pipeline", "--scenario", str(path)], b""),
        ("pipeline stdin --json", ["pipeline", "--in", "-", "--json"], raw),
        ("graded --scenario", ["graded", "--scenario", str(path)], b""),
        ("graded --in", ["graded", "--in", str(path)], b""),
    ]
    if "random" in data:
        calls.append(("pipeline --seed", ["pipeline", "--scenario", str(path),
                                          "--seed", "5"], b""))
    if "extension" in data:
        ext = canonical_dumps({"extension": data["extension"]}).encode()
        ext_path = directory / f"ext-{name}"
        ext_path.write_bytes(ext)
        matrix = canonical_dumps({"matrix": data["extension"]["A"]}).encode()
        calls += [
            ("monomialize", ["monomialize", "--in", str(ext_path)], b""),
            ("cosets", ["cosets", "--in", "-"], ext),
            ("cosets --box-bound", ["cosets", "--in", "-", "--box-bound",
                                    "2"], ext),
            ("snf", ["snf", "--in", "-"], matrix),
            ("pipeline --seed on a fixed scenario",
             ["pipeline", "--in", "-", "--seed", "5"], raw),
        ]
        trace = io.StringIO()
        saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(ext))
        try:
            with contextlib.redirect_stdout(trace), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(["monomialize", "--in", "-", "--json"])
        finally:
            sys.stdin = saved
        doc = json.loads(trace.getvalue())
        replay = canonical_dumps(
            {k: doc[k] for k in ("initial", "steps", "final")}).encode()
        replay_path = directory / f"replay-{name}"
        replay_path.write_bytes(replay)
        calls.append(("pipeline --replay",
                      ["pipeline", "--replay", str(replay_path)], b""))
    if "semigroups" in data:
        calls.append(("semigroup", ["semigroup", "--in", "-"],
                      canonical_dumps(data["semigroups"]).encode()))
    if "extension_records" in data:
        calls.append(("ledger", ["ledger", "--in", "-"], canonical_dumps(
            {"records": data["extension_records"]}).encode()))
    return calls


EDGE_CALLS = (
    ("box-bound 0 before reading", ["cosets", "--in", MISSING,
                                    "--box-bound", "0"], b""),
    ("snf missing file", ["snf", "--in", MISSING], b""),
    ("replay missing file", ["pipeline", "--replay", MISSING], b""),
    ("graded missing scenario", ["graded", "--scenario", MISSING], b""),
    ("ledger invalid json", ["ledger", "--in", "-"], b"{\"records\": ["),
    ("semigroup top-level list", ["semigroup", "--in", "-"], b"[1, 2]"),
    ("monomialize empty object", ["monomialize", "--in", "-"], b"{}"),
    ("pipeline seed on a non-object random", [
        "pipeline", "--in", "-", "--seed", "3"],
     b"{\"name\": \"x\", \"random\": 7}"),
    ("ledger no records", ["ledger"], b"{}"),
)

# (exit code, sha256 of stdout, stderr), recorded as the module docstring
# says
GOLDEN = {
    'box-bound 0 before reading':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'error: --box-bound must be at least 1\n'),
    'diag23.json: cosets':
        (0, 'ccd726b27a7e1ae4e1755de7c7e1a95ec3d791f1656b0f665c1c6cfd35d68834',
         'cosets: e = 6\n'),
    'diag23.json: cosets --box-bound':
        (0, '9d257b7559678b0d6b5f010551cd07b1d60e6d43ae5aa9c8bdfa8e1bf93b569c',
         'cosets: e = 6\n'),
    'diag23.json: graded --in':
        (0, '0a0c990b6923aaa0e552047255a2c0d03d69dcbeed8ebadf10d40dbe514e5b31',
         'graded: 1 case(s)\n'),
    'diag23.json: graded --scenario':
        (0, '0a0c990b6923aaa0e552047255a2c0d03d69dcbeed8ebadf10d40dbe514e5b31',
         'graded: 1 case(s)\n'),
    'diag23.json: ledger':
        (0, 'fccf42177a8566c70b7306120aa36f90b00c7aaacfbf40400c5a68353bbe7372',
         'ledger: 2 record(s)\n'),
    'diag23.json: monomialize':
        (0, 'bac8bd21bedf149b187f5e45c5d8303a9806d0675b228cf038e358540100f7b4',
         'monomialize: 0 steps\n'),
    'diag23.json: pipeline --replay':
        (0, '7b25893f0ecb472a4bf0ac6f039a8573af6b28c6ba32de0eaa82f1c38a40afe1',
         'replay: ok\n'),
    'diag23.json: pipeline --scenario':
        (0, 'd1a414b4030b23f63c8889fb0ec947badbc06902e0b314fb33b6f0d2250dd32c',
         'pipeline diag23: 1 case(s), ok\n'),
    'diag23.json: pipeline --seed on a fixed scenario':
        (0, 'd1a414b4030b23f63c8889fb0ec947badbc06902e0b314fb33b6f0d2250dd32c',
         'pipeline diag23: 1 case(s), ok\n'),
    'diag23.json: pipeline stdin --json':
        (0, 'd1a414b4030b23f63c8889fb0ec947badbc06902e0b314fb33b6f0d2250dd32c',
         ''),
    'diag23.json: snf':
        (0, '121c340c63d10a7878fe7c1c0ff2e7ec7829288ab5cb3e2136977ef87246e9ab',
         'snf: diagonal (1, 6), det 6\n'),
    'graded missing scenario':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         "error: [Errno 2] No such file or directory: 'no-such-input.json'\n"),
    'identity.json: cosets':
        (0, '16d0fc2dbdcd35cce8732232e39764cfb5dbf30bff193652c6a14d8f1609fa40',
         'cosets: e = 1\n'),
    'identity.json: cosets --box-bound':
        (0, 'd3703419ba97a8bba41493a403271c562c395dadc2dc00ed17f7f71798473aeb',
         'cosets: e = 1\n'),
    'identity.json: graded --in':
        (0, '5bf0434ac79bbf1c821e575415caa3a1b7d0a507a95001ec6da914cc6be62673',
         'graded: 1 case(s)\n'),
    'identity.json: graded --scenario':
        (0, '5bf0434ac79bbf1c821e575415caa3a1b7d0a507a95001ec6da914cc6be62673',
         'graded: 1 case(s)\n'),
    'identity.json: monomialize':
        (0, '5534ca750aa92b67070cc5e9624143761d56499cadf7775d3d803faafc65a54e',
         'monomialize: 0 steps\n'),
    'identity.json: pipeline --replay':
        (0, '160f608dec23bbf502e68115e5aef4eca71d0add914c508de78f9eaccc098d7e',
         'replay: ok\n'),
    'identity.json: pipeline --scenario':
        (0, '859da101128d1e39a9b7e26abb9aad71b1daa1f394e1c7a34d4bb376b375b642',
         'pipeline identity: 1 case(s), ok\n'),
    'identity.json: pipeline --seed on a fixed scenario':
        (0, '859da101128d1e39a9b7e26abb9aad71b1daa1f394e1c7a34d4bb376b375b642',
         'pipeline identity: 1 case(s), ok\n'),
    'identity.json: pipeline stdin --json':
        (0, '859da101128d1e39a9b7e26abb9aad71b1daa1f394e1c7a34d4bb376b375b642',
         ''),
    'identity.json: snf':
        (0, 'b1e248614b30912cf7881cfb41f765a86d68cdedd6e921e49bec1f883c6374a9',
         'snf: diagonal (1, 1), det 1\n'),
    'ledger invalid json':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'error: invalid JSON at line 1 column 14: Expecting value\n'),
    'ledger no records':
        (0, 'b75fffbdc94efe2b1c6c648ac1580e36941ab2fb96621d0d3b4f51e747b3b2bb',
         'ledger: 0 record(s)\n'),
    # these two name the field since every input field is read through
    # serialize.field; the rest of the table is as first recorded
    'monomialize empty object':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         "error: missing field 'blocks'\n"),
    'pipeline seed on a non-object random':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'error: random section must be a JSON object, not int\n'),
    'random_a.json: graded --in':
        (0, '2c02dc421df00b1f2185addf6336c3c1b0928e4300e90a94aa47ccaaf7bccf93',
         'graded: 5 case(s)\n'),
    'random_a.json: graded --scenario':
        (0, '2c02dc421df00b1f2185addf6336c3c1b0928e4300e90a94aa47ccaaf7bccf93',
         'graded: 5 case(s)\n'),
    'random_a.json: pipeline --scenario':
        (0, '73dea59f5e575837a98afa252c48071911b90aabe67a26117a362d0624f0e745',
         'pipeline random_a: 5 case(s), ok\n'),
    'random_a.json: pipeline --seed':
        (0, '190adbf76aa97ef789eaa015f2cdbbe66178ad9b8f7459c1706b230050c8b9b0',
         'pipeline random_a: 5 case(s), ok\n'),
    'random_a.json: pipeline stdin --json':
        (0, '73dea59f5e575837a98afa252c48071911b90aabe67a26117a362d0624f0e745',
         ''),
    'random_b.json: graded --in':
        (0, '73a419028b4a9b61a0377c9572ff756e52cf09e8bb2e76767c26709b3cf12d1f',
         'graded: 5 case(s)\n'),
    'random_b.json: graded --scenario':
        (0, '73a419028b4a9b61a0377c9572ff756e52cf09e8bb2e76767c26709b3cf12d1f',
         'graded: 5 case(s)\n'),
    'random_b.json: pipeline --scenario':
        (0, '1052e413f362175453640f6a0e89c4a5fdc37b346d6e9828670087a78e8d8b99',
         'pipeline random_b: 5 case(s), ok\n'),
    'random_b.json: pipeline --seed':
        (0, '536bdc1ea0bc1485c4fb0180545e8e1e4d9cff3ec687ad28f6edce1bf8c943be',
         'pipeline random_b: 5 case(s), ok\n'),
    'random_b.json: pipeline stdin --json':
        (0, '1052e413f362175453640f6a0e89c4a5fdc37b346d6e9828670087a78e8d8b99',
         ''),
    'random_c.json: graded --in':
        (0, '16d97407a2b0b151445b7f66f9956bc57c1d8972b7a13a92d762d03956017fbb',
         'graded: 8 case(s)\n'),
    'random_c.json: graded --scenario':
        (0, '16d97407a2b0b151445b7f66f9956bc57c1d8972b7a13a92d762d03956017fbb',
         'graded: 8 case(s)\n'),
    'random_c.json: pipeline --scenario':
        (0, '613b4e5b4ab0aa06320cabd9d3b3b350a99ba2e8b900717bc9fa97719a7fb92a',
         'pipeline random_c: 8 case(s), ok\n'),
    'random_c.json: pipeline --seed':
        (0, '68940589391f29ca4c86f53080c3eba1894e189822489667055d4ddddc3a76ad',
         'pipeline random_c: 8 case(s), ok\n'),
    'random_c.json: pipeline stdin --json':
        (0, '613b4e5b4ab0aa06320cabd9d3b3b350a99ba2e8b900717bc9fa97719a7fb92a',
         ''),
    'rank2_h1.json: cosets':
        (0, 'a10aced2d599017fea7db87f9d1a1e9604632563f8717687098085691e7635c1',
         'cosets: e = 1\n'),
    'rank2_h1.json: cosets --box-bound':
        (0, 'dbb22915773ebba4cc824f6b660a6f5acc2ed4828468c36e14efcdfec922d217',
         'cosets: e = 1\n'),
    'rank2_h1.json: graded --in':
        (0, '7876da82888066456011366551c0de650ba1ace8be05f77c093455cec49d9cee',
         'graded: 1 case(s)\n'),
    'rank2_h1.json: graded --scenario':
        (0, '7876da82888066456011366551c0de650ba1ace8be05f77c093455cec49d9cee',
         'graded: 1 case(s)\n'),
    'rank2_h1.json: monomialize':
        (0, 'b17512ef09cce23da05b44bc696e679650e0fbfc4a2b31d74693345ec4c7c9ce',
         'monomialize: 2 steps\n'),
    'rank2_h1.json: pipeline --replay':
        (0, '53601801f6a4b0685438311b568fffef727d633421130eb943ebd1f5701fb7d8',
         'replay: ok\n'),
    'rank2_h1.json: pipeline --scenario':
        (0, 'af7f3ba4003cb355c613ca305361c5d9bc34e95a1a59aa672b11613c67f98810',
         'pipeline rank2_h1: 1 case(s), ok\n'),
    'rank2_h1.json: pipeline --seed on a fixed scenario':
        (0, 'af7f3ba4003cb355c613ca305361c5d9bc34e95a1a59aa672b11613c67f98810',
         'pipeline rank2_h1: 1 case(s), ok\n'),
    'rank2_h1.json: pipeline stdin --json':
        (0, 'af7f3ba4003cb355c613ca305361c5d9bc34e95a1a59aa672b11613c67f98810',
         ''),
    'rank2_h1.json: snf':
        (0, '2bc6ca65651efe4954a3f7e46fff7c769b8ab8b79b05e8d643d697cee3b8efdf',
         'snf: diagonal (1, 1, 1), det 1\n'),
    'rank2_h2.json: cosets':
        (0, '598f489c13f1bc2e1255f91430ab7433de6e6608ceb7c0d5e292683e51174f05',
         'cosets: e = 2\n'),
    'rank2_h2.json: cosets --box-bound':
        (0, '20d67de6c0f7d63a75c4f10ef5ef96ac5151894a901dcf45ad44146a7424ca4c',
         'cosets: e = 2\n'),
    'rank2_h2.json: graded --in':
        (0, 'b6f180eeff88444c011cf98c34f05941c62293d516a89767b49ea5ba7561b900',
         'graded: 1 case(s)\n'),
    'rank2_h2.json: graded --scenario':
        (0, 'b6f180eeff88444c011cf98c34f05941c62293d516a89767b49ea5ba7561b900',
         'graded: 1 case(s)\n'),
    'rank2_h2.json: monomialize':
        (0, 'c8f80ac297192a4eb3ad70bb1405e199798458bf8fa9965b05f618a8779c526b',
         'monomialize: 3 steps\n'),
    'rank2_h2.json: pipeline --replay':
        (0, '3ea25d667e25572dca26231d35262e5046ae58365fa850571b7495029bbb6c10',
         'replay: ok\n'),
    'rank2_h2.json: pipeline --scenario':
        (0, 'bd25ccb6d7c8b100627b195286101868321377f4b9dbf3c320ca27c2056edd37',
         'pipeline rank2_h2: 1 case(s), ok\n'),
    'rank2_h2.json: pipeline --seed on a fixed scenario':
        (0, 'bd25ccb6d7c8b100627b195286101868321377f4b9dbf3c320ca27c2056edd37',
         'pipeline rank2_h2: 1 case(s), ok\n'),
    'rank2_h2.json: pipeline stdin --json':
        (0, 'bd25ccb6d7c8b100627b195286101868321377f4b9dbf3c320ca27c2056edd37',
         ''),
    'rank2_h2.json: snf':
        (0, '7465f21d70ac5b4c4c6528353727f0b67019be8ca9b9130931fe811d48aae28b',
         'snf: diagonal (1, 1, 2), det 2\n'),
    'replay missing file':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         "error: [Errno 2] No such file or directory: 'no-such-input.json'\n"),
    'section5.json: graded --in':
        (0, '7de4d440343924935081d2ed153711845b957b7cc734dc2b0257323105aaa0c9',
         'graded: 0 case(s)\n'),
    'section5.json: graded --scenario':
        (0, '7de4d440343924935081d2ed153711845b957b7cc734dc2b0257323105aaa0c9',
         'graded: 0 case(s)\n'),
    'section5.json: pipeline --scenario':
        (0, '309f89d9ac66cc8a75969d2c48432262d7893df9274fb76f16cf99ec2f94ebfd',
         'pipeline section5: 0 case(s), ok\n'),
    'section5.json: pipeline stdin --json':
        (0, '309f89d9ac66cc8a75969d2c48432262d7893df9274fb76f16cf99ec2f94ebfd',
         ''),
    'section5.json: semigroup':
        (0, 'c0e4f8f558ae363651f015b7d547906cd11169abafded7a06499733fdc3a283c',
         'semigroup: 1 witness(es)\n'),
    'semigroup top-level list':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'error: top level must be a JSON object, not list\n'),
    'snf missing file':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         "error: [Errno 2] No such file or directory: 'no-such-input.json'\n"),
}


def observed(tmp_path):
    table = {}
    for name in bundled_scenario_names():
        for key, argv, stdin in scenario_calls(name, tmp_path):
            table[f"{name}: {key}"] = run(argv, stdin)
    for key, argv, stdin in EDGE_CALLS:
        table[key] = run(argv, stdin)
    return table


def test_cli_bytes_are_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = observed(tmp_path)
    assert sorted(table) == sorted(GOLDEN)
    for key, expected in GOLDEN.items():
        assert table[key] == expected, key


@pytest.mark.parametrize("command", ["snf", "cosets", "pipeline"])
def test_out_writes_the_stdout_bytes(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    name = "diag23.json"
    data = json.loads(bundled_scenario_bytes(name))
    stdin = {"snf": {"matrix": data["extension"]["A"]},
             "cosets": {"extension": data["extension"]},
             "pipeline": data}[command]
    stdin = canonical_dumps(stdin).encode()
    code, digest, err = run([command, "--in", "-"], stdin)
    out = tmp_path / "report.json"
    assert run([command, "--in", "-", "--out", str(out)], stdin) == \
        (code, hashlib.sha256(b"").hexdigest(), err)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
