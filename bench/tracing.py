"""Span tracing of the library's public functions, from outside the package.

``Tracer.installed()`` replaces each traced name where its callers look
it up (a class attribute, or a module global such as
``quiverseq.laurent.poly_gcd``) with a wrapper that records a span
(name, request, parent, start, end) in flat arrays and updates a few
counters, and puts the originals back on exit.  Nothing under src/ is
changed.  A name that no longer exists is reported as missing and its
metrics come out as null; the untraced run never installs a wrapper.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# (metric, unit, better) for every per-layer metric, in output order.
METRICS = (
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.s", "s", "lower"),
    ("poly.mul.term_products", "count", "lower"),
    ("poly.exact_div.calls", "count", "lower"),
    ("poly.exact_div.s", "s", "lower"),
    ("poly.exact_div.ok_ratio", "ratio", "higher"),
    ("poly.gcd.calls", "count", "lower"),
    ("poly.gcd.s", "s", "lower"),
    ("poly.gcd.trivial_ratio", "ratio", "lower"),
    ("poly.self_s", "s", "lower"),
    ("laurent.steps", "count", "higher"),
    ("laurent.nonlaurent_steps", "count", "lower"),
    ("laurent.reduced.s", "s", "lower"),
    ("laurent.normalize.s", "s", "lower"),
    ("laurent.unreduced_terms", "count", "lower"),
    ("laurent.self_s", "s", "lower"),
    ("dualnum.div.calls", "count", "lower"),
    ("dualnum.div.s", "s", "lower"),
    ("dualnum.mul.calls", "count", "lower"),
    ("dualnum.mul.s", "s", "lower"),
    ("dualnum.format.calls", "count", "lower"),
    ("dualnum.format.s", "s", "lower"),
    ("dualnum.format.digits", "count", "lower"),
    ("dualnum.max_bits", "bits", "lower"),
    ("seqgen.run.calls", "count", "lower"),
    ("seqgen.run.s", "s", "lower"),
    ("seqgen.decompose.s", "s", "lower"),
    ("seqgen.terms", "count", "higher"),
    ("seqgen.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("quiver.s", "s", "lower"),
    ("periodicity.s", "s", "lower"),
    ("trace.requests", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return x.bit_length() if isinstance(x, int) else 0


def _dual_bits(v) -> int:
    return max(_bits(getattr(v, "body", 0)), _bits(getattr(v, "slope", 0)))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.span_name = array("l")
        self.span_request = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.layers.append(name.split(".", 1)[0])
        return len(self.names) - 1

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args)`` runs before the call and ``after(args, result)``
        after a successful one, both outside the span.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        sid = self._name_id(name)
        names, requests, parents = self.span_name, self.span_request, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(sid)
            requests.append(self.request)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextmanager
    def installed(self, sink_class):
        """Wrap the traced names for the duration of the block."""
        mod = {
            n: importlib.import_module(f"quiverseq.{n}")
            for n in ("cli", "dualnum", "laurent", "periodicity", "poly", "quiver", "seqgen")
        }
        add = self.add
        poly, laurent, dualnum = mod["poly"], mod["laurent"], mod["dualnum"]

        def mul_products(args, result):
            a, b = args
            add("poly.mul.term_products", len(a.terms) * (len(b.terms) if hasattr(b, "terms") else int(b != 0)))

        def max_bits(args, result):
            bits = max(_dual_bits(args[0]), _dual_bits(args[1]))
            if bits > self.counts.get("dualnum.max_bits", 0):
                self.counts["dualnum.max_bits"] = bits

        def laurent_steps(args, reports):
            add("laurent.steps", len(reports))
            add("laurent.nonlaurent_steps", sum(not r.is_laurent for r in reports))

        cli = mod["cli"]
        self.wrap(cli, "main", "cli.main")
        self.wrap(sink_class, "write", "bench.sink")
        self.wrap(poly.Poly, "__mul__", "poly.mul", after=mul_products)
        self.wrap(poly.Poly, "__rmul__", "poly.mul", after=mul_products)
        self.wrap(poly.Poly, "exact_div", "poly.exact_div",
                  after=lambda args, r: add("poly.exact_div.ok", r is not None))
        self.wrap(laurent, "poly_gcd", "poly.gcd", after=lambda args, r: add("poly.gcd.trivial", r.is_one()))
        self.wrap(laurent.RationalDualExpr, "reduced", "laurent.reduced",
                  before=lambda args: add("laurent.unreduced_terms", args[0].term_count))
        self.wrap(laurent, "normalize", "laurent.normalize")
        self.wrap(laurent, "verify_laurent_run", "laurent.run", after=laurent_steps)
        self.wrap(dualnum.DualScalar, "__mul__", "dualnum.mul", after=max_bits)
        self.wrap(dualnum.DualScalar, "__truediv__", "dualnum.div", after=max_bits)
        self.wrap(cli, "format_scalar", "dualnum.format",
                  after=lambda args, r: add("dualnum.format.digits", len(r)))
        self.wrap(mod["seqgen"], "run", "seqgen.run", after=lambda args, r: add("seqgen.terms", len(r.terms)))
        self.wrap(mod["seqgen"], "decompose_basis", "seqgen.decompose")
        # Not reported on its own; keeps grid set-up out of cli.self_s.
        self.wrap(mod["seqgen"], "integrality_scan", "seqgen.scan")
        self.wrap(cli, "load_quiver", "quiver.load")
        for cls in (mod["quiver"].Quiver, mod["quiver"].WeightedQuiver):
            self.wrap(cls, "mutate", "quiver.mutate")
            self.wrap(cls, "rotate", "quiver.rotate")
        periodicity = mod["periodicity"]
        for fn in ("solve_weight", "weight_exists", "closing_residual", "weight_period"):
            self.wrap(periodicity, fn, f"periodicity.{fn}")
        self.wrap(mod["seqgen"], "weight_trace", "periodicity.weight_trace")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict[str, float | int | None]:
        """Per-layer totals over every span recorded.

        ``<name>.s`` sums the spans of a name that are not nested in a
        span of the same name; ``<layer>.s`` does the same per layer.
        ``<layer>.self_s`` sums, over the layer's spans, each span's
        duration minus its direct children's: that is the time the
        layer's spans cover minus the time its child spans of other
        layers cover.
        """
        nspans = len(self.span_start)
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        names, layers, parent = self.names, self.layers, self.span_parent
        children = [0.0] * nspans
        for i in range(nspans):
            if parent[i] >= 0:
                children[parent[i]] += durations[i]
        calls: dict[str, int] = {}
        outer_s: dict[str, float] = {}
        layer_s: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i in range(nspans):
            sid = self.span_name[i]
            name, layer = names[sid], layers[sid]
            calls[name] = calls.get(name, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + durations[i] - children[i]
            p = parent[i]
            same_name = same_layer = False
            while p >= 0 and not same_name:
                pid = self.span_name[p]
                same_name = names[pid] == name
                same_layer = same_layer or layers[pid] == layer
                p = parent[p]
            if not same_name:
                outer_s[name] = outer_s.get(name, 0.0) + durations[i]
            if not same_layer:
                layer_s[layer] = layer_s.get(layer, 0.0) + durations[i]

        c = self.counts
        mul_calls = calls.get("poly.mul", 0)
        div_calls = calls.get("poly.exact_div", 0)
        gcd_calls = calls.get("poly.gcd", 0)
        # metric -> (value, the traced names it needs)
        values = {
            "poly.mul.calls": (mul_calls, "poly.mul"),
            "poly.mul.s": (outer_s.get("poly.mul", 0.0), "poly.mul"),
            "poly.mul.term_products": (c.get("poly.mul.term_products", 0), "poly.mul"),
            "poly.exact_div.calls": (div_calls, "poly.exact_div"),
            "poly.exact_div.s": (outer_s.get("poly.exact_div", 0.0), "poly.exact_div"),
            "poly.exact_div.ok_ratio": (c.get("poly.exact_div.ok", 0) / div_calls if div_calls else 0.0, "poly.exact_div"),
            "poly.gcd.calls": (gcd_calls, "poly.gcd"),
            "poly.gcd.s": (outer_s.get("poly.gcd", 0.0), "poly.gcd"),
            "poly.gcd.trivial_ratio": (c.get("poly.gcd.trivial", 0) / gcd_calls if gcd_calls else 0.0, "poly.gcd"),
            "poly.self_s": (self_s.get("poly", 0.0),),
            "laurent.steps": (c.get("laurent.steps", 0), "laurent.run"),
            "laurent.nonlaurent_steps": (c.get("laurent.nonlaurent_steps", 0), "laurent.run"),
            "laurent.reduced.s": (outer_s.get("laurent.reduced", 0.0), "laurent.reduced"),
            "laurent.normalize.s": (outer_s.get("laurent.normalize", 0.0), "laurent.normalize"),
            "laurent.unreduced_terms": (c.get("laurent.unreduced_terms", 0), "laurent.reduced"),
            "laurent.self_s": (self_s.get("laurent", 0.0),),
            "dualnum.div.calls": (calls.get("dualnum.div", 0), "dualnum.div"),
            "dualnum.div.s": (outer_s.get("dualnum.div", 0.0), "dualnum.div"),
            "dualnum.mul.calls": (calls.get("dualnum.mul", 0), "dualnum.mul"),
            "dualnum.mul.s": (outer_s.get("dualnum.mul", 0.0), "dualnum.mul"),
            "dualnum.format.calls": (calls.get("dualnum.format", 0), "dualnum.format"),
            "dualnum.format.s": (outer_s.get("dualnum.format", 0.0), "dualnum.format"),
            "dualnum.format.digits": (c.get("dualnum.format.digits", 0), "dualnum.format"),
            "dualnum.max_bits": (c.get("dualnum.max_bits", 0), "dualnum.mul", "dualnum.div"),
            "seqgen.run.calls": (calls.get("seqgen.run", 0), "seqgen.run"),
            "seqgen.run.s": (outer_s.get("seqgen.run", 0.0), "seqgen.run"),
            "seqgen.decompose.s": (outer_s.get("seqgen.decompose", 0.0), "seqgen.decompose"),
            "seqgen.terms": (c.get("seqgen.terms", 0), "seqgen.run"),
            "seqgen.self_s": (self_s.get("seqgen", 0.0),),
            "cli.self_s": (self_s.get("cli", 0.0), "cli.main"),
            "cli.out_bytes": (c.get("cli.out_bytes", 0),),
            "quiver.s": (layer_s.get("quiver", 0.0),),
            "periodicity.s": (layer_s.get("periodicity", 0.0),),
        }
        return {
            metric: None if self.missing.intersection(needs) else value
            for metric, (value, *needs) in values.items()
        }

    def write_spans(self, path) -> None:
        """All spans as gzip'd CSV: request, span, parent, name, start, end."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("request,span,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_request[i]},{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i] - t0:.9f},{self.span_end[i] - t0:.9f}\n"
                )
