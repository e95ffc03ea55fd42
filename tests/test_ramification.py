import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gradedval
from gradedval.errors import (
    CharMismatch,
    EnumerationOverflow,
    Inconsistent,
    MissingIndex,
)
from gradedval.ramification import (
    _PRIME_BOUND,
    ExtensionRecord,
    _is_prime,
    compose_tower,
    ostrowski_defect,
    trivial_record,
    unramified_criterion,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def test_defect_char_zero():
    assert ostrowski_defect(6, 2, 3, 0) == 0


def test_defect_positive_char():
    assert ostrowski_defect(4, 2, 1, 2) == 1
    assert ostrowski_defect(54, 2, 1, 3) == 3
    assert ostrowski_defect(6, 2, 3, 5) == 0


def test_defect_inconsistent():
    with pytest.raises(Inconsistent):
        ostrowski_defect(5, 2, 2, 3)
    with pytest.raises(Inconsistent):
        ostrowski_defect(12, 2, 3, 0)  # char 0 with N != e*f
    with pytest.raises(Inconsistent):
        ostrowski_defect(12, 2, 3, 3)  # leftover 2 is not a power of 3
    with pytest.raises(Inconsistent):
        ostrowski_defect(8, 2, 1, 6)  # 6 is not prime


def test_defect_roundtrip_random():
    rng = random.Random(99)
    for _ in range(200):
        e = rng.randint(1, 9)
        f = rng.randint(1, 9)
        p = rng.choice(PRIMES)
        delta = rng.randint(0, 4)
        assert ostrowski_defect(e * f * p ** delta, e, f, p) == delta


def test_record_derives_defect():
    rec = ExtensionRecord(N=8, e=2, f=2, p=2)
    assert rec.delta == 1
    with pytest.raises(Inconsistent):
        ExtensionRecord(N=8, e=2, f=2, p=2, delta=2)


def test_record_char_zero_forces_zero_defect():
    rec = ExtensionRecord(N=6, e=2, f=3, p=0)
    assert rec.delta == 0
    with pytest.raises(Inconsistent):
        ExtensionRecord(N=12, e=2, f=3, p=0)


def test_r_integrality_enforced():
    rec = ExtensionRecord(N=2, e=2, f=1, p=0, d=Fraction(4), g=Fraction(2))
    assert rec.r == 2
    with pytest.raises(Inconsistent):
        ExtensionRecord(N=2, e=2, f=1, p=0, d=Fraction(3), g=Fraction(2))


def test_missing_index():
    rec = ExtensionRecord(N=2, e=2, f=1, p=0)
    with pytest.raises(MissingIndex):
        rec.r
    with pytest.raises(MissingIndex):
        unramified_criterion(rec)
    with pytest.raises(MissingIndex):
        ExtensionRecord(N=2, e=2, f=1, p=0, d=Fraction(2))


def test_compose_tower_products():
    a = ExtensionRecord(N=2, e=2, f=1, p=3, d=Fraction(2), g=Fraction(2))
    b = ExtensionRecord(N=3, e=1, f=3, p=3, d=Fraction(3), g=Fraction(1))
    c = compose_tower(a, b)
    assert (c.N, c.e, c.f, c.delta) == (6, 2, 3, 0)
    assert (c.d, c.g, c.r) == (6, 2, 3)


def test_compose_tower_defect_adds():
    a = ExtensionRecord(N=4, e=2, f=1, p=2)
    b = ExtensionRecord(N=8, e=1, f=2, p=2)
    assert compose_tower(a, b).delta == 3


def test_compose_tower_identity_and_associativity():
    rng = random.Random(4)
    for _ in range(30):
        p = rng.choice(PRIMES)

        def rand_rec():
            e = rng.randint(1, 4)
            f = rng.randint(1, 4)
            delta = rng.randint(0, 2)
            g = Fraction(rng.randint(1, 4))
            r = rng.randint(1, 4)
            return ExtensionRecord(N=e * f * p ** delta, e=e, f=f, p=p,
                                   d=g * r, g=g)
        a, b, c = rand_rec(), rand_rec(), rand_rec()
        ident = trivial_record(p)
        assert compose_tower(ident, a) == a
        assert compose_tower(a, ident) == a
        assert compose_tower(compose_tower(a, b), c) == \
            compose_tower(a, compose_tower(b, c))


def test_compose_tower_char_mismatch():
    a = ExtensionRecord(N=2, e=2, f=1, p=2)
    b = ExtensionRecord(N=3, e=3, f=1, p=5)
    with pytest.raises(CharMismatch):
        compose_tower(a, b)


def test_unramified_criterion():
    assert unramified_criterion(
        ExtensionRecord(N=2, e=1, f=2, p=0, d=Fraction(2), g=Fraction(2)))
    assert not unramified_criterion(
        ExtensionRecord(N=2, e=2, f=1, p=0, d=Fraction(2), g=Fraction(1)))



def trial_division_is_prime(p):
    """The primality test the ledger ran before Miller-Rabin, kept as the
    oracle: trial division by 2 and the odd numbers up to sqrt(p)."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    k = 3
    while k * k <= p:
        if p % k == 0:
            return False
        k += 2
    return True


def test_is_prime_matches_trial_division_below_1e5():
    assert [p for p in range(-3, 10 ** 5) if _is_prime(p)] == \
        [p for p in range(-3, 10 ** 5) if trial_division_is_prime(p)]


def test_is_prime_on_large_primes_and_strong_pseudoprimes():
    mersenne61 = 2 ** 61 - 1
    assert _is_prime(mersenne61)
    assert _is_prime(100000000000000000039)
    assert not _is_prime(mersenne61 * 1000003)
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first 12
    # primes: only a later base shows them composite
    assert not _is_prime(3215031751)
    assert not _is_prime(318665857834031151167461)
    assert not _is_prime(1000000007 * 998244353)


def test_is_prime_refuses_past_its_bound():
    assert not _is_prime(_PRIME_BOUND - 1)      # even
    for p in (_PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(EnumerationOverflow):
            _is_prime(p)
    with pytest.raises(EnumerationOverflow):
        ExtensionRecord(N=1, e=1, f=1, p=2 ** 89 - 1)


def test_large_prime_ledger_record_ends_at_once():
    # trial division of this p ran until a 3 s timeout killed it; the run
    # gets a wall bound of its own process, under -O when this is
    data = {"records": [{"N": "1", "e": "1", "f": "1",
                         "p": "100000000000000000039"}]}
    env = dict(os.environ)
    src_dir = str(Path(gradedval.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-m", "gradedval.cli",
         "ledger", "--json"], input=json.dumps(data), env=env,
        capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 20
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["records"] == [{"delta": "0", "ok": True}]
