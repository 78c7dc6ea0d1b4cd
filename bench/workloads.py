"""Seeded request lists for the benchmark's four workloads.

Building a workload is pure: the seed fixes the quiver files and the
request list, and ``digest`` hashes both, so the same seed always yields
the same digest.  In an argv, ``@name`` stands for the quiver file
``name`` once it is written to a work directory.  Values that may start
with "-" are passed as ``--opt=value`` so argparse does not read them as
options.  Why each workload exists is written up in README.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from checks import DecomposeChecker, RowsChecker, SeqChecker, scan_rows

SOMOS4_QUIVER = {"b": [[0, 1, -2, 1], [-1, 0, 3, -2], [2, -3, 0, 1], [-1, 2, -1, 0]]}
P31_QUIVER = {"b": [[0, -1, -1], [1, 0, -1], [1, 1, 0]]}  # periodicity.primitive(3, 1)
SOMOS4_STEPS = 11
HELD_STEPS = 7
# laurent-somos4 weights are m·(1,0,0,-1); term counts do not depend on m.
SOMOS4_MULTIPLIERS = (1, -1, 2, -2, 3, -3)
# Non-genuine weight vectors for P(3,1) held fixed; all give the same rows
# and the same poly_gcd call tree, so they cost the same.
HELD_POOL = ("1,0,-1", "2,0,-2", "3,0,-3", "-1,0,1", "-2,0,2", "-3,0,3", "1,0,-2", "-1,0,2")
SMALL_WEIGHTS = (1, -1, 2, -2, 3, -3)
EXPECTED_LAURENT = Path(__file__).with_name("laurent_expected.json")
WORK_ROOT = Path(__file__).resolve().parent.parent / ".bench_work"


@dataclass
class Request:
    kind: str  # "seq", "decompose", "scan" or "laurent"
    argv: tuple[str, ...]
    params: dict

    def materialize(self, workdir: Path) -> list[str]:
        return [str(workdir / a[1:]) if a.startswith("@") else a for a in self.argv]


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    requests: list[Request]
    # Requests per second of --seconds that a traced run replays; fixed per
    # workload so a traced run's counts repeat exactly for a given seed.
    trace_rate: float
    # A run sends whole cycles of this many requests (see _seq_long).
    cycle: int = 1
    scan_cache: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(
            [self.files, [[r.kind, list(r.argv), r.params] for r in self.requests]],
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def write_files(self, workdir: Path) -> None:
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")

    def checker(self, request: Request, expected_laurent: dict | None):
        p = request.params
        if request.kind == "seq":
            return SeqChecker(p["terms"], p["deform"], p["init_b"])
        if request.kind == "decompose":
            return DecomposeChecker(p["terms"])
        if request.kind == "scan":
            return RowsChecker(scan_rows(p["p"], p["q"], p["horizon"], p["deform"], self.scan_cache))
        return RowsChecker(expected_laurent[p["table"]][p["weights"]])


# seq-long cycles through 16 requests: one seq per 25-term stratum of
# 155..454 and one decompose per 75-term stratum of 185..484, each T
# jittered by 0..4 within its stratum.  The order is fixed and mixes
# small and large sizes, so any run length sees nearly the same size mix
# whatever the seed; the seed draws the jitter, c and b.  No stratum
# comes within 4 terms of the 4300-digit limit (first hit at T=314), so
# every seed has the same requests failing.  A run sends whole cycles.
SEQ_STRATA = (0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11)
DECOMPOSE_STRATA = (0, 2, 1, 3)


def _seq_long(rng: random.Random) -> list[Request]:
    requests = []
    for _cycle in range(8):
        for block in range(4):
            for j in SEQ_STRATA[3 * block : 3 * block + 3]:
                terms = 155 + 25 * j + rng.randint(0, 4)
                c = rng.choice(SMALL_WEIGHTS)
                init_b = [rng.randint(-9, 9) for _ in range(4)]
                argv = (
                    "seq", "--family", "somos4", f"--deform=m2:{c}",
                    "--init-b=" + ",".join(map(str, init_b)), "--terms", str(terms),
                )
                requests.append(Request("seq", argv, {"terms": terms, "deform": c, "init_b": init_b}))
            terms = 185 + 75 * DECOMPOSE_STRATA[block] + rng.randint(0, 4)
            argv = ("decompose", "--family", "somos4", "--terms", str(terms))
            requests.append(Request("decompose", argv, {"terms": terms}))
    return requests


def _scan_grid(rng: random.Random) -> list[Request]:
    requests = []
    for _ in range(4096):
        p = rng.randint(1, 3)
        q0 = rng.randint(0, 5)
        q1 = rng.randint(q0, 5)
        horizon = rng.randint(10, 14)
        placement = rng.choice(("none", "m1", "m2"))
        deform = "none" if placement == "none" else f"{placement}:{rng.choice(SMALL_WEIGHTS)}"
        argv = (
            "scan", "--family", "fordy-marsh-s4", "--p", str(p), "--q", f"{q0}..{q1}",
            "--horizon", str(horizon), f"--deform={deform}",
        )
        params = {"p": p, "q": [q0, q1], "horizon": horizon, "deform": deform}
        requests.append(Request("scan", argv, params))
    return requests


def _laurent(rng: random.Random, table: str, pool, extra: tuple[str, ...], steps: int) -> list[Request]:
    # One seeded permutation of the pool, cycled: every stretch of requests
    # covers the pool as evenly as its length allows.
    order = list(pool)
    rng.shuffle(order)
    requests = []
    for weights in order:
        argv = (
            "laurent", "--quiver", f"@{table}.json", f"--weights={weights}", *extra,
            "--steps", str(steps), "--format", "json",
        )
        requests.append(Request("laurent", argv, {"table": table, "weights": weights}))
    return requests


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "seq-long":
        return Workload(name, {}, _seq_long(rng), trace_rate=0.8, cycle=16)
    if name == "scan-grid":
        return Workload(name, {}, _scan_grid(rng), trace_rate=60.0)
    if name == "laurent-somos4":
        pool = [f"{m},0,0,{-m}" for m in SOMOS4_MULTIPLIERS]
        requests = _laurent(rng, "somos4", pool, (), SOMOS4_STEPS)
        return Workload(name, {"somos4.json": json.dumps(SOMOS4_QUIVER)}, requests, trace_rate=0.08)
    if name == "laurent-held":
        requests = _laurent(rng, "p31", HELD_POOL, ("--hold-weights",), HELD_STEPS)
        return Workload(name, {"p31.json": json.dumps(P31_QUIVER)}, requests, trace_rate=0.25)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("seq-long", "scan-grid", "laurent-somos4", "laurent-held")


def load_expected_laurent() -> dict:
    with open(EXPECTED_LAURENT, encoding="utf-8") as fh:
        return json.load(fh)


@contextmanager
def workdir():
    """A fresh directory under .bench_work for one process's quiver files."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another process still has its directory there
            pass
