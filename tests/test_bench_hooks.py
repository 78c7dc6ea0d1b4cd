"""The benchmark's span tracer still finds every name it wraps.

``bench/tracing.py`` wraps library functions by name and reports a
renamed one as missing, which turns its metrics into nulls; this test
makes such a rename fail the suite instead.  A call rerouted around a
wrapped name would instead read 0, so the numeric commands' division
and run counts, and the symbolic command's product, division and gcd
counts, are checked too.  One request of each laurent pool is run and
checked against the benchmark's expected rows, as the benchmark does.
"""

import io
import json
from pathlib import Path

import pytest

from quiverseq import cli, laurent, poly

BENCH = Path(__file__).resolve().parent.parent / "bench"


class _Sink:
    def write(self, data):
        return len(data)


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(_Sink):
        assert laurent.poly_gcd is not poly.poly_gcd
    assert tracer.missing == set()
    assert laurent.poly_gcd is poly.poly_gcd


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "--family", "somos4", "--deform", "m2:1", "--terms", "12"],
        ["decompose", "--family", "somos4", "--terms", "12"],
        ["scan", "--family", "fordy-marsh-s4", "--p", "1", "--q", "0..1", "--horizon", "12", "--deform", "m1:1"],
    ],
)
def test_numeric_commands_reach_traced_division(monkeypatch, argv):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(_Sink):
        assert cli.main(argv, out=io.StringIO()) == 0
    metrics = tracer.metrics()
    assert metrics["dualnum.div.calls"] > 0
    assert metrics["seqgen.run.calls"] > 0


@pytest.mark.parametrize(
    "rows, flags",
    [
        ([[0, 1, -2, 1], [-1, 0, 3, -2], [2, -3, 0, 1], [-1, 2, -1, 0]], ["--weights", "1,0,0,-1"]),
        ([[0, -1, -1], [1, 0, -1], [1, 1, 0]], ["--weights", "1,0,-1", "--hold-weights"]),
    ],
    ids=["somos4", "p31-held"],
)
def test_laurent_reaches_traced_poly_kernels(monkeypatch, tmp_path, rows, flags):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"b": rows}))
    tracer = tracing.Tracer()
    with tracer.installed(_Sink):
        argv = ["laurent", "--quiver", str(path), *flags, "--steps", "4"]
        assert cli.main(argv, out=io.StringIO()) == 0
    metrics = tracer.metrics()
    assert metrics["poly.mul.calls"] > 0
    assert metrics["poly.exact_div.calls"] > 0
    if "--hold-weights" in flags:
        # Certificates and reduction stay where the tracer wraps them, and
        # held steps divide each body once: dividing it again on every use
        # made 20 divisions in this run.
        assert metrics["poly.gcd.calls"] > 0
        assert list(tracer.span_name).count(tracer.names.index("laurent.reduced")) == 4
        assert metrics["poly.exact_div.calls"] < 20


@pytest.mark.parametrize(
    "workload, weights", [("laurent-somos4", "1,0,0,-1"), ("laurent-held", "1,0,-1")]
)
def test_laurent_rows_match_the_benchmark_expectation(monkeypatch, tmp_path, workload, weights):
    # The benchmark compares every laurent request's rows with
    # bench/laurent_expected.json; one request of each pool, checked the
    # same way, makes a change that would fail that check fail the suite.
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    built = workloads.build(workload, 0)
    request = next(r for r in built.requests if r.params["weights"] == weights)
    built.write_files(tmp_path)
    checker = built.checker(request, workloads.load_expected_laurent())
    out = io.StringIO()
    assert cli.main(request.materialize(tmp_path), out=out) == 0
    for line in out.getvalue().splitlines():
        checker.feed(line)
    checker.finish()
