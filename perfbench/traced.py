"""Run one rydtrap CLI invocation with timing shims around its layers.

Usage: python -X importtime perfbench/traced.py SPANS.json -- ARGV...

The shims are rebound both in the module that defines each function and in
every rydtrap module that imported it by name (rydtrap.cli.decompose,
rydtrap.potential.interpolated_reduced_element, ...), so calls are caught
whichever name they go through. Spans (name, start, end, parent, extra)
are kept in memory and written to SPANS.json when the command returns;
run.py reduces them to calls and self time.
"""

import sys
import time

# functions that get a span, by defining module
SPANNED = {
    "rydtrap.beam": ("decompose", "brute_force_average",
                     "TensorField.from_json", "TensorField.to_json"),
    "rydtrap.radial": ("hydrogen_radial", "radial_integral",
                       "interpolated_reduced_element", "numerov_radial"),
    "rydtrap.angular": ("angular_factor", "angular_table"),
    "rydtrap.potential": ("ponderomotive_shift",),
    "rydtrap.spectroscopy": ("fit_ritz", "fit_threshold"),
    "rydtrap.loss": ("fit_photoionization",),
    "rydtrap.coherence": ("ramsey_contrast", "echo_contrast"),
    "rydtrap.cli": ("main",),
}
MEMORY_TRACED = ("coherence.ramsey_contrast", "coherence.echo_contrast")


class Tracer:
    """Spans and counters of one process, and the shims that record them."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, extra]
        self.stack = []
        self.calls = {}
        self.counts = {"radial.element_memo.lookups": 0,
                       "radial.element_memo.misses": 0}
        self.missing = []

    def wrap(self, name, fn):
        import functools
        import tracemalloc
        spans, stack, calls = self.spans, self.stack, self.calls
        memory = name in MEMORY_TRACED

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            if memory:
                # atoms x times x 16 B: one live complex128 (atoms, times)
                # array, computed from the arguments
                scenario, times = args[0], args[1]
                span[4]["computed_bytes"] = scenario.n_atoms * len(times) * 16
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if memory:
                    span[4]["traced_peak_bytes"] = \
                        tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
        return shim

    def count_points(self, fn):
        """Intensity evaluations, credited to the innermost open span."""
        import functools
        import numpy as np
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def shim(beam, points):
            if stack:
                extra = spans[stack[-1]][4]
                extra["points"] = extra.get("points", 0) \
                    + np.asarray(points).size // 3
            return fn(beam, points)
        return shim

    def count_memo(self, fn):
        """Element-memo lookups, and those that ran a new radial_integral."""
        import functools
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            before = calls.get("radial.radial_integral", 0)
            try:
                return fn(*args, **kwargs)
            finally:
                counts["radial.element_memo.lookups"] += 1
                if calls.get("radial.radial_integral", 0) > before:
                    counts["radial.element_memo.misses"] += 1
        return shim

    def install(self):
        rydtrap_modules = [m for n, m in sorted(sys.modules.items())
                           if n == "rydtrap" or n.startswith("rydtrap.")]
        for module_name, names in SPANNED.items():
            module = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            for name in names:
                label = "%s.%s" % (short, name)
                if "." in name:
                    self._wrap_method(module, name, label)
                    continue
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(label)
                    continue
                _rebind(rydtrap_modules, original, self.wrap(label, original))
        beam_cls = getattr(sys.modules["rydtrap.beam"], "TweezerBeam", None)
        if beam_cls is not None and "intensity" in vars(beam_cls):
            beam_cls.intensity = self.count_points(beam_cls.intensity)
        else:
            self.missing.append("beam.TweezerBeam.intensity")
        memo = getattr(sys.modules["rydtrap.radial"], "_element_at_integer_n",
                       None)
        if memo is not None:
            _rebind(rydtrap_modules, memo, self.count_memo(memo))
        else:
            self.missing.append("radial._element_at_integer_n")

    def _wrap_method(self, module, dotted, label):
        cls_name, attr = dotted.split(".")
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            self.missing.append(label)
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(label, raw.__func__)))
        else:
            setattr(cls, attr, self.wrap(label, raw))

    def dump(self, path):
        import json
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, fh)


def _rebind(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    spans_path, argv = sys.argv[1], sys.argv[3:]
    # imported before anything else so that -X importtime charges every
    # module the CLI needs to rydtrap, as in `python -m rydtrap.cli`
    import rydtrap.cli
    tracer = Tracer()
    tracer.install()
    try:
        return rydtrap.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
