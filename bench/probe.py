"""One fresh process doing exactly the benchmark's set-up, for setup_s.

Imports quiverseq, builds the seeded request list, writes the quiver
files, then prints the request-list digest and exits.  run.py times it
from spawning the process to reading that line, and checks that the
digest equals its own, so every run also proves that the seed alone
fixes the request list.

    python3 bench/probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import quiverseq.cli  # noqa: E402,F401

import workloads  # noqa: E402


def main() -> int:
    workload = workloads.build(sys.argv[1], int(sys.argv[2]))
    with workloads.workdir() as path:
        workload.write_files(path)
        print(workload.digest(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
