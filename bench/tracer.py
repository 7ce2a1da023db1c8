"""Per-layer trace of char3iso, recorded from outside the program.

install() replaces the public functions and methods of each module with
wrappers and uninstall() puts the originals back, so untraced jobs run
the unmodified program. A span is recorded for each wrapped call as
(name, parent span, start, end) on a clock that excludes the host-speed
kernel; the hottest scalar methods (FieldElement.__mul__ and __init__),
p_add and apply_map are only counted, so span times stay close to
untraced ones. Spans stay in memory; self times are computed from them
when the run ends. A target missing from the program is reported on
stderr and its metrics read 0.
"""

from __future__ import annotations

import sys


def _terms(operand):
    """Number of terms of a series operand; a scalar counts as one."""
    series = sys.modules["char3iso.series"].LaurentSeries
    return len(operand.coeffs) if isinstance(operand, series) else 1


# (module, attribute path, span name or None, counter or None, hook)
# A hook turns (args, result) into an amount for its counter.
TARGETS = [
    ("gf3field", "FieldElement.__mul__", None, "gf3field.mul_calls", None),
    ("gf3field", "FieldElement.__rmul__", None, "gf3field.mul_calls", None),
    ("gf3field", "FieldElement.__init__", None, "gf3field.elements_made", None),
    ("gf3field", "FieldElement.inverse", "gf3field.inverse", None, None),
    ("gf3field", "sqrt", "gf3field.sqrt", None, None),
    ("gf3field", "FieldParams.__init__", "gf3field.fieldparams", None, None),
    ("series", "LaurentSeries.__mul__", "series.mul", "series.mul_terms",
     lambda args, result: len(args[0].coeffs) * _terms(args[1])),
    ("series", "LaurentSeries.__rmul__", "series.mul", "series.mul_terms",
     lambda args, result: len(args[0].coeffs) * _terms(args[1])),
    ("series", "LaurentSeries.divide", "series.divide", "series.divide_terms",
     lambda args, result: len(result.coeffs) * _terms(args[1])),
    ("series", "LaurentSeries.__add__", "series.addsub", None, None),
    ("series", "LaurentSeries.__radd__", "series.addsub", None, None),
    ("series", "LaurentSeries.__sub__", "series.addsub", None, None),
    ("series", "LaurentSeries.__rsub__", "series.addsub", None, None),
    ("series", "LaurentSeries.__neg__", "series.addsub", None, None),
    ("series", "LaurentSeries.cube", "series.cube", None, None),
    ("ratrec", "pade", "ratrec.pade", "ratrec.pade_certified",
     lambda args, result: result is not None),
    ("ratrec", "Polynomial.__divmod__", "ratrec.divmod", None, None),
    ("ratrec", "poly_gcd", "ratrec.gcd", None, None),
    ("ratrec", "RationalFunction.expand", "ratrec.expand", None, None),
    ("isocore", "construct_with_report", "isocore.construct", "isocore.solutions",
     lambda args, result: len(result[1])),
    ("isocore", "Seed.expand", "isocore.seed_expand", None, None),
    ("isocore", "beta_from_alpha", "isocore.partner", None, None),
    ("isocore", "alpha_from_beta", "isocore.partner", None, None),
    ("isocore", "compute_psi", "isocore.psi", None, None),
    ("isocore", "solve_gamma", "isocore.solve_gamma", None, None),
    ("isocore", "verify_functional_equation", "isocore.verify", None, None),
    ("isocore", "check_cubic_membership", "isocore.verify", None, None),
    ("curve", "enumerate_points", "curve.enumerate", None, None),
    ("curve", "check_map", "curve.check_map", "curve.pairs_checked",
     lambda args, result: result.pairs_checked),
    ("curve", "identify_scalar", "curve.identify_scalar", None, None),
    ("curve", "p_add", None, "curve.p_add_calls", None),
    ("curve", "apply_map", None, "curve.apply_map_calls", None),
    ("exprparse", "parse_field_element", "exprparse.parse", None, None),
    ("exprparse", "parse_rational_function", "exprparse.parse", None, None),
    ("exprparse", "parse_polynomial", "exprparse.parse", None, None),
]

ROOT = "cli.main"

# Reported per job: counters, span call counts and span self times.
COUNT_METRICS = [
    "gf3field.mul_calls", "gf3field.elements_made", "gf3field.inverse_calls",
    "gf3field.sqrt_calls",
    "series.mul_calls", "series.mul_terms", "series.divide_calls", "series.divide_terms",
    "ratrec.pade_calls", "ratrec.pade_certified", "ratrec.divmod_calls", "ratrec.gcd_calls",
    "isocore.solve_gamma_calls", "isocore.solutions",
    "curve.enumerate_calls", "curve.pairs_checked", "curve.p_add_calls", "curve.apply_map_calls",
    "exprparse.parse_calls",
    "cli.output_bytes",
]
TIME_METRICS = [
    "gf3field.inverse_s", "gf3field.sqrt_s", "gf3field.fieldparams_s",
    "series.mul_s", "series.divide_s", "series.addsub_s", "series.cube_s",
    "ratrec.pade_s", "ratrec.divmod_s", "ratrec.gcd_s", "ratrec.expand_s",
    "isocore.construct_s", "isocore.seed_expand_s", "isocore.partner_s", "isocore.psi_s",
    "isocore.solve_gamma_s", "isocore.verify_s",
    "curve.enumerate_s", "curve.check_map_s", "curve.identify_scalar_s",
    "exprparse.parse_s",
    "cli.self_s",
]


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.names = [ROOT]
        self.spans = []             # (name index, parent index, start, end)
        self.stack = [-1]
        self.counters = {}
        self.jobs = []              # (index of the root span, time scale)
        self._patches = self._build_patches()

    def _name(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _cell(self, counter):
        return self.counters.setdefault(counter, [0])

    def _build_patches(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "char3iso" or name.startswith("char3iso.")}
        patches = []
        for module, path, span, counter, hook in TARGETS:
            owner = modules.get(f"char3iso.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                print(f"trace: char3iso.{module}.{path} not found", file=sys.stderr)
                continue
            wrapper = self._wrap(original, span, counter, hook)
            if outer:
                patches.append((owner, attr, original, wrapper))
            else:
                patches += [(mod, name, original, wrapper) for mod in modules.values()
                            for name, value in vars(mod).items() if value is original]
        return patches

    def _wrap(self, fn, span, counter, hook):
        cell = self._cell(counter) if counter else None
        if span is None:
            def count(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return count
        name, spans, stack, clock = self._name(span), self.spans, self.stack, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, clock())
                stack.pop()
            if hook is not None:
                cell[0] += hook(args, result)
            return result
        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_job(self, call):
        """call() under a root span, with the wrappers installed; end_job()
        then completes the job's record. A job that raises leaves no spans."""
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.install()
        start = self.clock()
        try:
            result = call()
        except BaseException:
            del self.spans[index:]
            raise
        finally:
            end = self.clock()
            self.uninstall()
            self.stack.pop()
        self.spans[index] = (0, -1, start, end)
        self.jobs.append((index, None))
        return result

    def end_job(self, scale, output_bytes):
        """Record the finished job's time scale and output size."""
        self.jobs[-1] = (self.jobs[-1][0], scale)
        self._cell("cli.output_bytes")[0] += output_bytes

    def metrics(self):
        """Per-job means of every count and self time."""
        n = len(self.jobs)
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        span_calls = [0] * len(self.names)
        span_self = [0.0] * len(self.names)
        bounds = [j[0] for j in self.jobs] + [len(self.spans)]
        for (first, scale), last in zip(self.jobs, bounds[1:]):
            for i in range(first, last):
                name, _, start, end = self.spans[i]
                span_calls[name] += 1
                span_self[name] += (end - start - child[i]) * scale
        values = {counter: cell[0] / n for counter, cell in self.counters.items()}
        for i, name in enumerate(self.names):
            values[f"{name}_calls"] = span_calls[i] / n
            values["cli.self_s" if name == ROOT else f"{name}_s"] = span_self[i] / n
        return {m: values.get(m, 0) for m in COUNT_METRICS + TIME_METRICS}

    def first_job_spans(self):
        if not self.jobs:
            return []
        first = self.jobs[0][0]
        last = self.jobs[1][0] if len(self.jobs) > 1 else len(self.spans)
        return [(self.names[n], p - first if p >= 0 else -1, s, e)
                for n, p, s, e in self.spans[first:last]]
