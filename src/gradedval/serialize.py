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
from itertools import islice

from .errors import DimensionMismatch, ParseError
from .exact_lattice import ExactMatrix
from .monomial_extension import BlockStructure, MonomialExtension
from .monomialization import STEP_KINDS, CosetSystem, TransformStep
from .ordered_groups import Block, GroupStructure


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
    flag = data.get(key, False)
    if not isinstance(flag, bool):
        raise ParseError(f"{key} must be true or false, not {flag!r}")
    return flag


def enc_frac(x):
    return str(Fraction(x))


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


def _dec_quad(q):
    """A block's quad: null, an integer string, or the bare JSON integer
    enc_structure writes; a float, a bool or a non-integer string is
    rejected, so 2.5 is never truncated to 2."""
    if q is None or (isinstance(q, int) and not isinstance(q, bool)):
        return q
    return dec_int(q)


def dec_structure(data):
    try:
        blocks = tuple(Block(quad=_dec_quad(b.get("quad")))
                       for b in data["blocks"])
    except (TypeError, KeyError, AttributeError):
        raise ParseError("malformed group structure")
    return GroupStructure(blocks)


def enc_element(el):
    return [[enc_frac(c) for c in comp] for comp in el.coords]


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
    widths = [b.rational_rank for b in cs.big_group.structure.blocks]
    labels = []
    for row in cs.label_rows:
        it = map(ratio, row)
        labels.append([list(islice(it, w)) for w in widths])
    return {
        "e": ints(cs.e),
        "invariant_factors": list(map(ints, cs.invariant_factors)),
        "lattice_points": [list(map(ints, p)) for p in cs.lattice_points],
        "coset_labels": labels,
    }


def _dec_list(data, what):
    """data, which must be a JSON list: a string, number or object is
    rejected, so the string "11" never reads as ["1", "1"]."""
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a list, not {type(data).__name__}")
    return data


def dec_element(structure, data):
    coords = tuple(tuple(map(dec_frac, _dec_list(comp, "element block")))
                   for comp in _dec_list(data, "group element"))
    return structure.element(coords)


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
    try:
        blocks = data["blocks"]
        bs = BlockStructure(
            r=dec_int(blocks["r"]),
            t=tuple(map(dec_int, _dec_list(blocks["t"], "blocks.t"))),
            s=tuple(map(dec_int, _dec_list(blocks["s"], "blocks.s"))),
        )
        structure = dec_structure(data["structure"])
        A = dec_matrix(data["A"])
        markers = tuple(map(_dec_marker,
                            _dec_list(data["unit_markers"], "unit_markers")))
        values = tuple(dec_element(structure, v)
                       for v in _dec_list(data["y_values"], "y_values"))
    except (TypeError, KeyError):
        raise ParseError("malformed monomial extension")
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


def dec_step(data):
    try:
        kind = data["kind"]
        if kind not in STEP_KINDS:
            raise ParseError(f"unknown step kind {kind!r}")
        return TransformStep(
            kind=kind,
            row=dec_int(data["row"]),
            target=dec_int(data["target"]) if "target" in data else None,
            blocks=(tuple(dec_int(x) for x in data["blocks"])
                    if "blocks" in data else None),
            exponents=tuple((dec_int(r), dec_int(e))
                            for r, e in data.get("exponents", [])),
        )
    except (TypeError, KeyError, ValueError):
        raise ParseError("malformed transform step")


def enc_trace(trace):
    return {
        "initial": enc_extension(trace.initial),
        "steps": [enc_step(s) for s in trace.steps],
        "final": enc_extension(trace.final.extension),
    }


def canonical_dumps(obj):
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_hex(data: bytes):
    return hashlib.sha256(data).hexdigest()


def load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}")


def load_object(text):
    """load_json for documents whose top level must be a JSON object."""
    data = load_json(text)
    if not isinstance(data, dict):
        raise ParseError(
            f"top level must be a JSON object, not {type(data).__name__}")
    return data
