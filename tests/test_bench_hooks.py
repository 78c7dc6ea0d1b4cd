"""The benchmark's span tracer still finds every name it wraps.

``bench/tracing.py`` wraps library functions by name and reports a
renamed one as missing, which turns its metrics into nulls; this test
makes such a rename fail the suite instead.  A call rerouted around a
wrapped name would instead read 0, so the numeric commands' division
and run counts are checked too.
"""

import io
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
