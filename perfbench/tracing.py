"""Spans around the public functions of each friedzeta module.

The benchmark's job process installs these wrappers before it calls the
CLI.  Each wrapper rebinds a name in every ``friedzeta`` module that holds
the original function, so calls through ``from .x import f`` and through
``module.f`` are both seen.  Spans (name, start, end, parent) stay in
memory until the job ends; :meth:`Recorder.aggregate` then reduces them to
per-name inclusive seconds, self seconds, call counts and work counts.

A name that no longer exists in the package is skipped and listed in
``Recorder.absent``; a work counter that no longer fits its function's
arguments drops only that count.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time


def _policy(args, kwargs):
    return next(a for a in (*args, *kwargs.values()) if hasattr(a, "j_max"))


def _terms(args, kwargs, result):
    return {"terms": len(args[0]) * _policy(args, kwargs).j_max}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fixed_point_count(matrix, n: int) -> int:
    """``|det(A^n - I)|`` in exact integer arithmetic."""
    (a, b), (c, d) = ((int(matrix[0][0]), int(matrix[0][1])), (int(matrix[1][0]), int(matrix[1][1])))
    p = ((1, 0), (0, 1))
    for _ in range(n):
        p = ((p[0][0] * a + p[0][1] * c, p[0][0] * b + p[0][1] * d),
             (p[1][0] * a + p[1][1] * c, p[1][0] * b + p[1][1] * d))
    return abs((p[0][0] - 1) * (p[1][1] - 1) - p[0][1] * p[1][0])


def _kernel_counts(args, kwargs, result):
    """Work of one Birkhoff-sum call.

    ``useful_point_steps`` is what one base point per primitive orbit would
    need: the input points themselves when they are the whole fixed-point
    set of ``A^steps`` (every orbit of period p | steps has p points there),
    otherwise one full orbit per input point.
    """
    n = len(result)
    steps = int(_arg(args, kwargs, 4, "steps"))
    roof = _arg(args, kwargs, 5, "roof")
    time_change = kwargs.get("time_change", args[6] if len(args) > 6 else None)
    tau = kwargs.get("tau", args[7] if len(args) > 7 else 0.0)
    terms = len(roof.terms)
    if time_change is not None and tau != 0.0:
        terms += len(time_change.terms)
    point_steps = n * steps
    whole_set = n == _fixed_point_count(_arg(args, kwargs, 3, "matrix"), steps)
    return {
        "point_steps": point_steps,
        "trig_evals": 2 * terms * point_steps,  # one cos and one sin per term
        "bytes_computed": 24 * n,  # int64 numerators in, float64 sums out
        "useful_point_steps": n if whole_set else point_steps,
    }


# (metric prefix, module, attribute, work counter or None)
TARGETS = (
    ("toral.fixed_points", "friedzeta.toral", "fixed_points", lambda a, k, r: {"points": r.count}),
    ("toral.primitive_orbits", "friedzeta.toral", "primitive_orbits", lambda a, k, r: {"orbits": len(r)}),
    ("toral.homology_class", "friedzeta.toral", "homology_class", None),
    ("toral.orbit_records", "friedzeta.toral", "orbit_records", lambda a, k, r: {"records": len(r)}),
    ("toral.write_orbit_dump", "friedzeta.toral", "write_orbit_dump",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("toral.read_orbit_dump", "friedzeta.toral", "read_orbit_dump", lambda a, k, r: {"records": len(r)}),
    ("kernels.birkhoff_sums", "friedzeta._kernels", "birkhoff_sums", _kernel_counts),
    ("zetas.ruelle_log_zeta", "friedzeta.zetas", "ruelle_log_zeta", _terms),
    ("zetas.graded_log_zeta", "friedzeta.zetas", "graded_log_zeta", _terms),
    ("zetas.selberg_log_zeta", "friedzeta.zetas", "selberg_log_zeta", _terms),
    ("zetas.factorization_check", "friedzeta.zetas", "factorization_check", _terms),
    ("zetas.factorization_residual_curve", "friedzeta.zetas", "factorization_residual_curve", None),
    ("variation.variation_rhs", "friedzeta.variation", "variation_rhs", None),
    ("variation.direct_quotient", "friedzeta.variation", "direct_quotient", None),
    ("continuation.trace_sums", "friedzeta.continuation", "trace_sums", None),
    ("continuation.dynamical_determinant", "friedzeta.continuation", "dynamical_determinant",
     lambda a, k, r: {"coefficients": len(r.coefficients)}),
    ("continuation.zeta_at_zero", "friedzeta.continuation", "zeta_at_zero", None),
    ("torsion.fried_check", "friedzeta.torsion", "fried_check", None),
    ("torsion.mapping_torus_torsion", "friedzeta.torsion", "mapping_torus_torsion", None),
    ("kleinian.poincare_data", "friedzeta.kleinian", "poincare_data", None),
    ("kleinian.read_spectrum", "friedzeta.kleinian", "read_spectrum", lambda a, k, r: {"records": len(r)}),
    ("characters.homogeneous_sums", "friedzeta.characters", "homogeneous_sums", None),
    ("characters.char_label", "friedzeta.characters", "char_label", None),
)

ENUMERATIONS = ("toral.primitive_orbits", "toral.orbit_records")


class Recorder:
    """Records one span per wrapped call; single-threaded, like the CLI."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.counter_errors: set[str] = set()

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(args, kwargs, result)
                except Exception:  # the function changed shape; drop only its counts
                    self.counter_errors.add(name)
            return result

        return wrapper

    def install(self):
        """Rebind every target name in every loaded friedzeta module."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "friedzeta" and m]
        for metric, module_name, attr, counter in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(metric)
                continue
            wrapper = self.wrap(metric, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def aggregate(self) -> dict[str, float]:
        """This job's totals as flat per-layer metric values.

        ``<name>.s`` counts a span nested in a span of the same name once;
        ``<name>.self_s`` excludes the time of child spans.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, float] = {"variation.orbit_enumerations": 0, "continuation.trace_sums.points": 0}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, start, end, parent, counts) in enumerate(spans):
            ancestors = self._ancestors(parent)
            if name not in ancestors:
                add(f"{name}.s", (end - start) / 1e9)
            add(f"{name}.self_s", (end - start - child_ns[i]) / 1e9)
            add(f"{name}.calls", 1)
            for key, value in (counts or {}).items():
                add(f"{name}.{key}", value)
            if name in ENUMERATIONS and any(a.startswith("variation.") for a in ancestors) \
                    and not any(a in ENUMERATIONS for a in ancestors):
                add("variation.orbit_enumerations", 1)
            if name == "toral.fixed_points" and parent >= 0 and spans[parent][0] == "continuation.trace_sums":
                add("continuation.trace_sums.points", counts["points"] if counts else 0)
        return out

    def _ancestors(self, index: int) -> list[str]:
        names = []
        while index >= 0:
            names.append(self.spans[index][0])
            index = self.spans[index][3]
        return names
