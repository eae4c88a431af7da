"""Spans around the calls into each k3cert layer, recorded from outside.

``install`` wraps the public functions named in ``TARGETS`` after the
program is imported.  A wrapped function is replaced wherever it is bound:
on its class, in its defining module, and in every ``k3cert`` module that
bound it with ``from .x import f``.  The program's source is not modified.

Each call becomes a span (name, start, end, parent).  A span's self time is
its duration minus the durations of its direct children, so nested calls
(``QuadExt.__sub__`` calling ``__add__``, ``compose`` constructing an
``Isometry``) are charged once.  Spans of one CLI invocation share its
index.  Spans are kept in memory and written out when the round ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__", "__pow__")

# (span name, module, class or None, attributes wrapped under that name)
TARGETS = (
    ("quadfield.QuadExt.arith", "k3cert.quadfield", "QuadExt", _ARITH),
    ("quadfield.QuadExt.sign", "k3cert.quadfield", "QuadExt", ("sign",)),
    ("lattice.smith_normal_form", "k3cert.lattice", None,
     ("smith_normal_form",)),
    ("lattice.discriminant_group", "k3cert.lattice", None,
     ("discriminant_group",)),
    ("lattice.DiscriminantGroup.element_order", "k3cert.lattice",
     "DiscriminantGroup", ("element_order",)),
    ("lattice.DiscriminantGroup.coordinates_of", "k3cert.lattice",
     "DiscriminantGroup", ("coordinates_of",)),
    ("lattice.IntegerLattice.inner", "k3cert.lattice", "IntegerLattice",
     ("inner",)),
    ("lattice.solve_pairing_norm", "k3cert.lattice", None,
     ("solve_pairing_norm",)),
    ("lattice.solve_norm_system", "k3cert.lattice", None,
     ("solve_norm_system",)),
    ("isometry.Isometry.init", "k3cert.isometry", "Isometry", ("__init__",)),
    ("isometry.compose", "k3cert.isometry", None, ("compose",)),
    ("isometry.Isometry.power", "k3cert.isometry", "Isometry", ("power",)),
    ("isometry.discriminant_action", "k3cert.isometry", None,
     ("discriminant_action",)),
    ("isometry.order_of", "k3cert.isometry", None, ("order_of",)),
    ("isometry.reflection_in", "k3cert.isometry", None, ("reflection_in",)),
    ("chamber.Chamber.init", "k3cert.chamber", "Chamber", ("__init__",)),
    ("chamber.reduce_to_chamber", "k3cert.chamber", None,
     ("reduce_to_chamber",)),
    ("chamber.orbit_of_anchor", "k3cert.chamber", None,
     ("orbit_of_anchor",)),
    ("chamber.pingpong_certify", "k3cert.chamber", None,
     ("pingpong_certify",)),
    ("quartic.build_context", "k3cert.quartic", None, ("build_context",)),
    ("quartic.enumerate_sections", "k3cert.quartic", None,
     ("enumerate_sections",)),
    ("quartic.enumerate_Q_bruteforce", "k3cert.quartic", None,
     ("enumerate_Q_bruteforce",)),
    ("quartic.enumerate_Q_bound_argument", "k3cert.quartic", None,
     ("enumerate_Q_bound_argument",)),
    ("quartic.classify_polarization", "k3cert.quartic", None,
     ("classify_polarization",)),
    ("pell.build_context", "k3cert.pell", None, ("build_context",)),
    ("pell.isometry_search", "k3cert.pell", None, ("isometry_search",)),
    ("pell.check_representation", "k3cert.pell", None,
     ("check_representation",)),
    ("pell.check_discriminant", "k3cert.pell", None,
     ("check_discriminant",)),
    ("pell.check_alpha_homomorphism", "k3cert.pell", None,
     ("check_alpha_homomorphism",)),
    ("pell.takahashi_obstruction", "k3cert.pell", None,
     ("takahashi_obstruction",)),
    ("weierstrass.RationalMap.init", "k3cert.weierstrass", "RationalMap",
     ("__init__",)),
    ("weierstrass.RationalMap.apply", "k3cert.weierstrass", "RationalMap",
     ("apply",)),
    ("weierstrass.RationalMap.compose", "k3cert.weierstrass", "RationalMap",
     ("compose",)),
    ("weierstrass.invert_translation_map", "k3cert.weierstrass", None,
     ("invert_translation_map",)),
    ("weierstrass.finite_automorphism", "k3cert.weierstrass", None,
     ("finite_automorphism",)),
    ("weierstrass.restriction_agreement", "k3cert.weierstrass", None,
     ("restriction_agreement",)),
    ("weierstrass.chord_tangent_add", "k3cert.weierstrass", None,
     ("chord_tangent_add",)),
    # the sympy entry points k3cert calls, charged together
    ("sympy", "sympy", None,
     ("cancel", "together", "simplify", "expand", "factor", "fraction")),
    ("sympy", "sympy.core.basic", "Basic", ("subs",)),
    ("report.timed_item", "k3cert.report", None, ("timed_item",)),
    ("report.Report.dumps", "k3cert.report", "Report", ("dumps",)),
    ("cli.main", "k3cert.cli", None, ("main",)),
    ("cli.build_parser", "k3cert.cli", None, ("build_parser",)),
)

# counters taken from results the wrappers see
COUNTERS = ("lattice.disc_elements_scanned", "chamber.reduce_steps",
            "pell.search.bound_used_max", "pell.search.escalations",
            "pell.search.raw_isometries", "pell.search.accepted",
            "report.elapsed_ms_sum")


class Tracer:
    def __init__(self):
        self.invocation = 0
        self.spans = []     # (invocation, id, parent id, name, start, end)
        self._stack = []    # ids of the open spans
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.invocation, sid, parent, name, start, end))
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return wrapper

    def rollup(self):
        """Per-name call count and self time in seconds."""
        child = {}
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0) + end - start
        out = {}
        for _, sid, _, name, start, end in self.spans:
            calls, self_ns = out.get(name, (0, 0))
            out[name] = (calls + 1, self_ns + end - start - child.get(sid, 0))
        return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("invocation,id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%d,%d\n" % span)


def _counter_hooks(tracer):
    c = tracer.counters
    search_sig = inspect.signature(sys.modules["k3cert.pell"].isometry_search)

    def scanned_order(result, args, kwargs):
        c["lattice.disc_elements_scanned"] += result

    def reduce_steps(result, args, kwargs):
        c["chamber.reduce_steps"] += len(result.word)

    def search(result, args, kwargs):
        bound = search_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        entry = bound.arguments["entry_bound"]
        c["pell.search.bound_used_max"] = max(
            c["pell.search.bound_used_max"], result.bound_used)
        c["pell.search.escalations"] += round(
            math.log2(result.bound_used / entry))
        c["pell.search.raw_isometries"] += (len(result.accepted)
                                            + len(result.filtered_out))
        c["pell.search.accepted"] += len(result.accepted)

    def elapsed(result, args, kwargs):
        c["report.elapsed_ms_sum"] += result.elapsed_ms

    return {"lattice.DiscriminantGroup.element_order": scanned_order,
            "chamber.reduce_to_chamber": reduce_steps,
            "pell.isometry_search": search,
            "report.timed_item": elapsed}


def _count_elements(tracer, fn):
    """DiscriminantGroup.elements is a generator: count what it yields."""
    c = tracer.counters

    @functools.wraps(fn)
    def elements(*args, **kwargs):
        for item in fn(*args, **kwargs):
            c["lattice.disc_elements_scanned"] += 1
            yield item
    return elements


def install(tracer):
    """Wrap every target; returns a function that restores the originals."""
    hooks = _counter_hooks(tracer)
    k3 = [m for n, m in sys.modules.items()
          if n == "k3cert" or n.startswith("k3cert.")]
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for name, modname, clsname, attrs in TARGETS:
        mod = sys.modules[modname]
        owner = getattr(mod, clsname) if clsname else mod
        for attr in attrs:
            orig = vars(owner)[attr]
            wrapper = tracer.wrap(name, orig, hooks.get(name))
            rebind(owner, attr, wrapper)
            if clsname is None:
                for m in k3:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            rebind(m, key, wrapper)
    group = sys.modules["k3cert.lattice"].DiscriminantGroup
    rebind(group, "elements", _count_elements(tracer, group.elements))

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return restore
