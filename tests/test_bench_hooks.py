"""The benchmark's span tracer still finds every name it wraps.

``bench/tracing.py`` wraps library functions by name and reports a
renamed one as missing, which turns its metrics into nulls; this test
makes such a rename fail the suite instead.
"""

from pathlib import Path

from quiverseq import laurent, poly

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
