"""Outside-in tracing of gradedval, with no edit to its source.

Each traced function is replaced, while the tracer is installed, by a
wrapper that records one span per call: name, start, end, parent span and
case id.  Functions are rebound in every gradedval module that holds them
(so `from .exact_lattice import determinant` in another module is traced
too); methods are rebound on their class.  Uninstalling restores the
originals, so traced and untraced passes run in one process.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, attribute path) of every traced callable
TARGETS = (
    ("exact_lattice", "smith_normal_form"),
    ("exact_lattice", "hermite_row_basis"),
    ("exact_lattice", "determinant"),
    ("exact_lattice", "solve_rational"),
    ("exact_lattice", "solve_integer"),
    ("exact_lattice", "unimodular_inverse"),
    ("exact_lattice", "quotient_invariants"),
    ("ordered_groups", "coset_label"),
    ("ordered_groups", "ValueGroup.coordinates"),
    ("ordered_groups", "subgroup_index"),
    ("ordered_groups", "quotient_invariant_factors"),
    ("affine_monoids", "parallelepiped_points"),
    ("affine_monoids", "verify_disjoint_decomposition"),
    ("affine_monoids", "AffineMonoid.contains"),
    ("affine_monoids", "in_rational_cone"),
    ("monomial_extension", "validate"),
    ("monomial_extension", "adjoint_relations"),
    ("monomial_extension", "induced_x_values"),
    ("monomialization", "strong_monomialize"),
    ("monomialization", "replay"),
    ("monomialization", "coset_system"),
    ("graded_algebra", "invariant_part"),
    ("graded_algebra", "is_sigma_trivial"),
    ("graded_algebra", "fixed_by_all_characters"),
    ("value_semigroups", "semigroup_difference"),
    ("value_semigroups", "semigroup_membership"),
    ("value_semigroups", "enumerate_elements"),
    ("ramification", "ExtensionRecord.__init__"),
    ("serialize", "canonical_dumps"),
    ("scenarios", "load_scenario"),
    ("scenarios", "run_pipeline"),
    ("cli", "main"),
)


def span_name(module, path):
    # a construction is counted under the class name
    return f"{module}.{path.removesuffix('.__init__')}"


SPAN_NAMES = tuple(span_name(m, p) for m, p in TARGETS)


def _count_steps(counters, args, result):
    counters["monomialization.strong_monomialize.steps"] += len(result.steps)


def _count_box(counters, args, result):
    basis = args[0]
    counters["affine_monoids.box_points"] += result.box_bound ** basis.dim
    counters["affine_monoids.checked_points"] += result.checked_points


def _count_witnesses(counters, args, result):
    counters["value_semigroups.witnesses"] += len(result)


def _count_enumerated(counters, args, result):
    counters["value_semigroups.enumerated"] += len(result)


def _count_bytes(counters, args, result):
    counters["serialize.report_bytes"] += len(result)


def _count_exit(counters, args, result):
    counters[f"cli.main.exit_{result}"] += 1


# counters read from return values, which the spans alone do not show
HOOKS = {
    "monomialization.strong_monomialize": _count_steps,
    "affine_monoids.verify_disjoint_decomposition": _count_box,
    "value_semigroups.semigroup_difference": _count_witnesses,
    "value_semigroups.enumerate_elements": _count_enumerated,
    "serialize.canonical_dumps": _count_bytes,
    "cli.main": _count_exit,
}


class Tracer:
    """Span recorder; install() before a traced pass, uninstall() after."""

    def __init__(self):
        self._patches = []      # (owner, attribute, original)
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = Counter()
        self.case_id = -1
        self._stack = [-1]

    def reset(self):
        """Drop recorded spans and counters; the wrappers keep working."""
        for column in (self.name, self.parent, self.case, self.start,
                       self.end):
            del column[:]
        self.counters.clear()

    def _wrap(self, fn, sid, hook):
        names, parents, cases = self.name, self.parent, self.case
        starts, ends, stack = self.start, self.end, self._stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1])
            cases.append(self.case_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self):
        owners = [importlib.import_module(f"gradedval.{module}")
                  for module, _ in TARGETS]
        modules = [m for name, m in list(sys.modules.items())
                   if name == "gradedval" or name.startswith("gradedval.")]
        for sid, (owner, (_, path)) in enumerate(zip(owners, TARGETS)):
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            name = SPAN_NAMES[sid]
            wrapper = self._wrap(original, sid, HOOKS.get(name))
            if cls:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost of nested spans with the
        same name; self time is duration minus the durations of child
        spans.  Also counts solve_rational calls made directly by
        strong_monomialize, which are its lift candidates.
        """
        n = len(self.name)
        child = [0] * n
        calls = [0] * len(SPAN_NAMES)
        incl = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        lift = 0
        solve = SPAN_NAMES.index("exact_lattice.solve_rational")
        monomialize = SPAN_NAMES.index("monomialization.strong_monomialize")
        # children are recorded after their parent, so walking backwards
        # finishes a span's children before the span itself
        for i in range(n - 1, -1, -1):
            sid, p = self.name[i], self.parent[i]
            dur = self.end[i] - self.start[i]
            calls[sid] += 1
            self_ns[sid] += dur - child[i]
            if p >= 0:
                child[p] += dur
                if sid == solve and self.name[p] == monomialize:
                    lift += 1
            # inclusive time: only when no ancestor carries the same name
            while p >= 0 and self.name[p] != sid:
                p = self.parent[p]
            if p < 0:
                incl[sid] += dur
        out = {}
        for sid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[sid]
            out[f"{name}.s"] = incl[sid] / 1e9
            out[f"{name}.self_s"] = self_ns[sid] / 1e9
        out["monomialization.strong_monomialize.lift_candidates"] = lift
        return out

    def spans(self):
        """The recorded spans as columns, ready to write as JSON."""
        return {
            "names": list(SPAN_NAMES),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "case": self.case.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }
