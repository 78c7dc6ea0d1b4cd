#!/usr/bin/env python3
"""Record the expected rows of the two laurent workloads.

Runs every request of the fixed weight pools once through the CLI and
writes the rows (step, laurent, denominator, term counts) to
laurent_expected.json, which the benchmark's laurent checker compares
against.  Re-record only when a change is meant to alter those rows.

    python3 bench/record_laurent.py
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from quiverseq import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    expected: dict[str, dict[str, list]] = {}
    with workloads.workdir() as workdir:
        for name in ("laurent-somos4", "laurent-held"):
            workload = workloads.build(name, 0)
            workload.write_files(workdir)
            for request in workload.requests:
                out = io.StringIO()
                if cli.main(request.materialize(workdir), out=out) != 0:
                    raise SystemExit(f"{name} {request.params}: non-zero exit")
                rows = [json.loads(line) for line in out.getvalue().splitlines()]
                expected.setdefault(request.params["table"], {})[request.params["weights"]] = rows
                print(name, request.params["weights"], len(rows), "rows", file=sys.stderr)
    workloads.EXPECTED_LAURENT.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
