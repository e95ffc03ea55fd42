"""Lossless JSON encoding for every domain object.

All numbers are string-encoded (integers as "5", rationals as "3/2") so no
precision is lost and output bytes are reproducible: canonical_dumps fixes
key order and separators, and reports embed the SHA-256 of their exact
input bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from functools import partial

from .errors import DimensionMismatch, ParseError
from .exact_lattice import ExactMatrix
from .monomial_extension import BlockStructure, MonomialExtension
from .monomialization import STEP_KINDS, CosetSystem, TransformStep
from .ordered_groups import Block, GroupStructure


REQUIRED = object()        # the default of a field that must be present


def field(data, key, default=REQUIRED, what=None):
    """data[key], or default when key is absent; a ParseError names a
    REQUIRED key that is absent, or data (what) when it is no JSON object."""
    if not isinstance(data, dict):
        what = what or f"the object holding {key!r}"
        raise ParseError(f"{what} must be a JSON object, not "
                         f"{type(data).__name__}")
    if default is REQUIRED and key not in data:
        raise ParseError(f"missing field {key!r}")
    return data.get(key, default)


def enc_int(n):
    return str(int(n))


def dec_int(s):
    """Integer from its string encoding; a JSON number, bool or any other
    type is rejected, so the number 1.5 is never truncated to 1."""
    if not isinstance(s, str):
        raise ParseError(f"not an integer string: {s!r}")
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"not an integer: {s!r}")


def dec_bool(data, key):
    """The flag data[key]: JSON true or false, and false when absent.  A
    string, number or null is rejected, so "false" never reads as true."""
    flag = field(data, key, False)
    if not isinstance(flag, bool):
        raise ParseError(f"{key} must be true or false, not {flag!r}")
    return flag


def enc_ratio(x, L):
    """str(Fraction(x, L)) for integers x and L > 0, without the Fraction."""
    g = math.gcd(x, L)
    return str(x // g) if g == L else f"{x // g}/{L // g}"


def dec_frac(s):
    """Rational from its string encoding ("3/2"); non-strings are
    rejected like in dec_int."""
    if not isinstance(s, str):
        raise ParseError(f"not a rational string: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational: {s!r}")


def enc_matrix(m: ExactMatrix):
    return [[enc_int(x) for x in row] for row in m.entries]


def dec_matrix(data):
    if not isinstance(data, list) or not all(
            isinstance(row, list) for row in data):
        raise ParseError("matrix must be a list of rows")
    try:
        return ExactMatrix.from_rows([[dec_int(x) for x in row]
                                      for row in data])
    except DimensionMismatch:
        raise ParseError("matrix rows differ in length")


def enc_structure(s: GroupStructure):
    return {"blocks": [{"quad": b.quad} for b in s.blocks]}


def _dec_block(data):
    """A block, whose quad is null, an integer string, or the bare JSON
    integer enc_structure writes; a float, a bool or a non-integer string
    is rejected, so 2.5 is never truncated to 2."""
    q = field(data, "quad", None)
    if not (q is None or (isinstance(q, int) and not isinstance(q, bool))):
        q = dec_int(q)
    return Block(quad=q)


def dec_structure(data):
    return GroupStructure(
        dec_list(field(data, "blocks"), "blocks", _dec_block))


def enc_element(el):
    L = el.L
    return [[enc_ratio(x, L) for x in comp]
            for comp in el.structure.split(el.row)]


class _Encoded(dict):
    """encode(x) for each key x, made on its first lookup, so equal keys
    share one value."""

    def __init__(self, encode):
        super().__init__()
        self.encode = encode

    def __missing__(self, x):
        s = self[x] = self.encode(x)
        return s


def enc_coset_system(cs: CosetSystem):
    """The e, invariant factors, lattice points and coset labels of a coset
    system: the report fields of a pipeline case and of `gradedval cosets`.

    Encoded straight from the integer rows, each distinct integer once:
    equal integers share one str.  A label entry x is enc_ratio(x, L),
    split into the blocks of the big group; when L = 1 that is str(x).
    """
    ints = _Encoded(str).__getitem__
    L = cs.denominator
    ratio = ints if L == 1 else _Encoded(partial(enc_ratio, L=L)).__getitem__
    spans = cs.big_group.structure.spans
    return {
        "e": ints(cs.e),
        "invariant_factors": list(map(ints, cs.invariant_factors)),
        "lattice_points": [list(map(ints, p)) for p in cs.lattice_points],
        "coset_labels": [[list(map(ratio, row[span])) for span in spans]
                         for row in cs.label_rows],
    }


def dec_list(data, what, decode):
    """The items of data, each decoded; data must be a JSON list, so the
    string "11" never reads as ["1", "1"]."""
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a list, not {type(data).__name__}")
    return tuple(map(decode, data))


def dec_element(structure, data):
    block = partial(dec_list, what="element block", decode=dec_frac)
    return structure.element(dec_list(data, "group element", block))


def enc_extension(me: MonomialExtension):
    return {
        "blocks": {
            "r": enc_int(me.blocks.r),
            "t": [enc_int(x) for x in me.blocks.t],
            "s": [enc_int(x) for x in me.blocks.s],
        },
        "structure": enc_structure(me.structure),
        "A": enc_matrix(me.A),
        "unit_markers": list(me.unit_markers),
        "y_values": [enc_element(v) for v in me.y_values],
    }


def _dec_marker(m):
    """A unit marker: a JSON string, never a number, bool or null."""
    if not isinstance(m, str):
        raise ParseError(f"unit marker must be a string, not {m!r}")
    return m


def dec_extension(data):
    """A monomial extension.  blocks.t, blocks.s, A, unit_markers and
    y_values must be JSON lists and each unit marker a string; anything
    else is a ParseError, never coerced."""
    blocks = field(data, "blocks")
    bs = BlockStructure(
        r=dec_int(field(blocks, "r")),
        t=dec_list(field(blocks, "t"), "blocks.t", dec_int),
        s=dec_list(field(blocks, "s"), "blocks.s", dec_int),
    )
    structure = dec_structure(field(data, "structure"))
    A = dec_matrix(field(data, "A"))
    markers = dec_list(field(data, "unit_markers"), "unit_markers",
                       _dec_marker)
    values = dec_list(field(data, "y_values"), "y_values",
                      partial(dec_element, structure))
    return MonomialExtension(blocks=bs, A=A, unit_markers=markers,
                             y_values=values)


def enc_step(step: TransformStep):
    out = {"kind": step.kind, "row": enc_int(step.row)}
    if step.target is not None:
        out["target"] = enc_int(step.target)
    if step.blocks is not None:
        out["blocks"] = [enc_int(x) for x in step.blocks]
    if step.exponents:
        out["exponents"] = [[enc_int(r), enc_int(e)]
                            for r, e in step.exponents]
    return out


def _dec_exponent(pair):
    """An exponent pair of an "r" step: a JSON list of two integers, so
    the string "12" never reads as the pair (1, 2)."""
    pair = dec_list(pair, "exponent pair", dec_int)
    if len(pair) != 2:
        raise ParseError(f"exponent pair must have 2 entries, not {pair}")
    return pair


def dec_step(data):
    kind = field(data, "kind")
    if kind not in STEP_KINDS:
        raise ParseError(f"unknown step kind {kind!r}")
    return TransformStep(
        kind=kind,
        row=dec_int(field(data, "row")),
        target=dec_int(field(data, "target")) if "target" in data else None,
        blocks=(dec_list(field(data, "blocks"), "blocks", dec_int)
                if "blocks" in data else None),
        exponents=dec_list(field(data, "exponents", []), "exponents",
                           _dec_exponent),
    )


def enc_trace(trace):
    return {
        "initial": enc_extension(trace.initial),
        "steps": [enc_step(s) for s in trace.steps],
        "final": enc_extension(trace.final.extension),
    }


def dec_semigroup_section(data):
    """The semigroup section of a scenario or of `gradedval semigroup`,
    every field decoded."""
    structure = dec_structure(field(data, "structure"))
    element = partial(dec_element, structure)
    return {
        "structure": structure,
        "small": dec_list(field(data, "small"), "small", element),
        "big": dec_list(field(data, "big"), "big", element),
        "bound": dec_frac(field(data, "bound", "4")),
        "expect_growth": dec_bool(data, "expect_growth"),
    }


def _dec_record(data):
    fields = {
        "N": dec_int(field(data, "N")),
        "e": dec_int(field(data, "e")),
        "f": dec_int(field(data, "f")),
        "p": dec_int(field(data, "p", "0")),
        "delta": dec_int(field(data, "delta")) if "delta" in data else None,
        "d": dec_frac(field(data, "d")) if "d" in data else None,
        "g": dec_frac(field(data, "g")) if "g" in data else None,
    }
    unramified = (dec_bool(data, "unramified")
                  if "unramified" in data else None)
    return fields, dec_bool(data, "expect_error"), unramified


def dec_ledger_records(records):
    """(ExtensionRecord fields, expect_error, unramified or None) for each
    ledger record, every field decoded before any record is checked: a
    malformed field is a ParseError, never the error a record expects."""
    return dec_list(records, "records", _dec_record)


def canonical_dumps(obj):
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_hex(data: bytes):
    return hashlib.sha256(data).hexdigest()


def load_json(text):
    """The JSON document text; malformed or too deeply nested JSON (the
    decoder's RecursionError) is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}")
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply")


def load_object(text):
    """load_json for documents whose top level must be a JSON object."""
    data = load_json(text)
    if not isinstance(data, dict):
        raise ParseError(
            f"top level must be a JSON object, not {type(data).__name__}")
    return data
