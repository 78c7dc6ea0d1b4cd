#!/usr/bin/env python3
"""Closed-loop benchmark of the quiverseq command line.

    python3 bench/run.py --workload seq-long --seed 1 --seconds 20 --trace 0

One client sends one request at a time from this process: a request is
the argv of one CLI call, passed to ``quiverseq.cli.main(argv, out=sink)``.
The sink checks each output row as it arrives and keeps no output; the
time spent checking is taken out of the request's time.  Requests are
sent until their timed seconds add up to ``--seconds``.

``--workload all`` runs the four workloads one after another, each in
its own process.  With ``--trace 0`` the run reports the end-to-end metrics: setup_s,
job_s.p50, ok_jobs_per_s and peak_rss_mb.  With ``--trace 1`` it replays
a fixed number of requests untraced and then traced, and reports the
per-layer metrics of tracing.METRICS, the tracing overhead, and writes
every span to .bench_out/.  The last line of stdout is one JSON object;
the lines before it say the same for a reader.  README.md says why the
workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from checks import CheckFailed, DecomposeChecker, RowsChecker, SeqChecker, scan_rows
from tracing import METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
# Wall-clock cap on the measuring loop, so that a much slower program still
# ends the run well inside the three minutes a run may take.
MEASURE_LIMIT_S = 120.0
OUT_DIR = ROOT / ".bench_out"
END_TO_END_UNITS = {"setup_s": "s", "job_s.p50": "s", "ok_jobs_per_s": "1/s", "peak_rss_mb": "MB"}


class CheckingSink:
    """Text stream for ``cli.main(out=...)`` that checks lines as they arrive."""

    def __init__(self, checker):
        self.checker = checker
        self.pending = ""
        self.error: str | None = None
        self.spent = 0.0
        self.out_bytes = 0

    def write(self, text: str) -> int:
        start = perf_counter()
        self.out_bytes += len(text)
        if self.error is None:
            self.pending += text
            if "\n" in text:
                *lines, self.pending = self.pending.split("\n")
                try:
                    for line in lines:
                        self.checker.feed(line)
                except CheckFailed as exc:
                    self.error, self.pending = str(exc), ""
        self.spent += perf_counter() - start
        return len(text)

    def flush(self) -> None:
        pass

    def finish(self) -> str | None:
        """Close the check; the first problem found, or None."""
        if self.error is None:
            try:
                if self.pending:
                    raise CheckFailed(f"unterminated last line {self.pending[:60]!r}")
                self.checker.finish()
            except CheckFailed as exc:
                self.error = str(exc)
        return self.error


@dataclass
class Outcome:
    seconds: float
    error: str | None = None  # why the request failed, None if it succeeded
    wrong: bool = False  # it completed, but its output failed the check
    out_bytes: int = 0


def run_request(cli, checker, argv: list[str]) -> Outcome:
    sink = CheckingSink(checker)
    start = perf_counter()
    try:
        code = cli.main(argv, out=sink)
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a raise is a failed request, not a harness crash
        return Outcome(perf_counter() - start - sink.spent, f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start - sink.spent
    if code != 0:
        return Outcome(seconds, f"exit status {code}", out_bytes=sink.out_bytes)
    problem = sink.finish()
    if problem is not None:
        return Outcome(seconds, f"wrong output: {problem}", wrong=True, out_bytes=sink.out_bytes)
    return Outcome(seconds, out_bytes=sink.out_bytes)


class Runner:
    """Sends the workload's requests, by index, against its written quiver files."""

    def __init__(self, cli, workload, workdir: Path, expected_laurent: dict):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.expected_laurent = expected_laurent

    def run(self, index: int) -> Outcome:
        request = self.workload.requests[index % len(self.workload.requests)]
        checker = self.workload.checker(request, self.expected_laurent)
        return run_request(self.cli, checker, request.materialize(self.workdir))


def measure_setup(name: str, seed: int, digest: str) -> list[float]:
    """Seconds from spawning a fresh set-up process to its ready line."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), name, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != digest:
            raise RuntimeError(
                f"set-up probe exited {proc.returncode} with digest {line.strip()!r}, expected {digest}"
            )
    return times


def _bump_digit(text: str) -> str:
    """``text`` with its last digit changed."""
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


def self_test(cli, expected_laurent: dict) -> list[str]:
    """Each checker must reject real output with one field corrupted.

    Raises RuntimeError when a checker accepts a corrupted copy, which is
    a fault of the benchmark.  Returns the checkers that reject the
    uncorrupted output, which is a fault of the program.
    """

    def lines_of(argv):
        out = io.StringIO()
        if cli.main(argv, out=out) != 0:
            raise RuntimeError(f"self-test request {argv} failed")
        return out.getvalue().splitlines()

    def corrupt(lines, index, key, change):
        row = json.loads(lines[index])
        if key == "values":
            row[key][-1] = change(row[key][-1])
        else:
            row[key] = change(row[key])
        return lines[:index] + [json.dumps(row)] + lines[index + 1 :]

    seq = lines_of(["seq", "--family", "somos4", "--deform=m2:2", "--init-b=1,-2,3,-4", "--terms", "24"])
    dec = lines_of(["decompose", "--family", "somos4", "--terms", "20"])
    scan_argv = ["scan", "--family", "fordy-marsh-s4", "--p", "2", "--q", "0..5", "--horizon", "12", "--deform=m1:1"]
    scan = lines_of(scan_argv)
    fraction_row = next(i for i, line in enumerate(scan) if json.loads(line)["first_fraction_value"])
    laurent_rows = next(iter(expected_laurent["somos4"].values()))
    laurent = [json.dumps(row) for row in laurent_rows]
    cases = [
        ("seq", lambda: SeqChecker(24, 2, [1, -2, 3, -4]), seq, corrupt(seq, 20, "body", _bump_digit)),
        ("decompose", lambda: DecomposeChecker(20), dec, corrupt(dec, 1, "values", _bump_digit)),
        (
            "scan",
            lambda: RowsChecker(scan_rows(2, [0, 5], 12, "m1:1", {})),
            scan,
            corrupt(scan, fraction_row, "first_fraction_value", _bump_digit),
        ),
        (
            "laurent",
            lambda: RowsChecker(laurent_rows),
            laurent,
            corrupt(laurent, len(laurent) - 1, "body_terms", lambda n: n + 1),
        ),
    ]
    wrong = []
    for name, make, good, bad in cases:
        if _check_lines(make(), bad) is None:
            raise RuntimeError(f"self-test: {name} checker accepts a corrupted output")
        problem = _check_lines(make(), good)
        if problem is not None:
            wrong.append(f"self-test {name} output: {problem}")
    return wrong


def _check_lines(checker, lines) -> str | None:
    try:
        for line in lines:
            checker.feed(line)
        checker.finish()
    except CheckFailed as exc:
        return str(exc)
    return None


def _summary(outcomes: list[Outcome]) -> tuple[int, int, bool, Counter]:
    failures = Counter(o.error[:100] for o in outcomes if o.error)
    return len(outcomes), sum(failures.values()), not any(o.wrong for o in outcomes), failures


def run_end_to_end(runner: Runner, seconds: float, setup: list[float]) -> tuple[dict, list[Outcome]]:
    outcomes: list[Outcome] = []
    timed = 0.0
    deadline = perf_counter() + MEASURE_LIMIT_S
    while (timed < seconds or len(outcomes) % runner.workload.cycle) and perf_counter() < deadline:
        outcome = runner.run(len(outcomes))
        outcomes.append(outcome)
        timed += outcome.seconds
    times = [o.seconds for o in outcomes]
    ok = sum(o.error is None for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s.p50": statistics.median(times),
        "ok_jobs_per_s": ok / timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    probes = " ".join(f"{t:.4f}" for t in setup)
    print(f"setup_s {metrics['setup_s']:.6f} s (median of {len(setup)} fresh processes: {probes})")
    print(f"job_s.p50 {metrics['job_s.p50']:.6f} s (n={len(times)}, failed requests included)")
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[8]
        print(f"job_s.p90 {p90:.6f} s (n={len(times)})")
    print(f"ok_jobs_per_s {metrics['ok_jobs_per_s']:.6f} 1/s ({ok} ok in {timed:.3f} timed s)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.3f} MB")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, outcomes


def run_traced(runner: Runner, seconds: float, name: str, seed: int) -> tuple[dict, list[Outcome]]:
    count = max(1, round(seconds * runner.workload.trace_rate))
    deadline = perf_counter() + MEASURE_LIMIT_S / 2
    untraced = []
    while len(untraced) < count and perf_counter() < deadline:
        untraced.append(runner.run(len(untraced)))
    count = len(untraced)
    deadline = perf_counter() + MEASURE_LIMIT_S / 2
    tracer = Tracer()
    traced = []
    with tracer.installed(CheckingSink):
        for i in range(count):
            if perf_counter() > deadline:
                break
            tracer.request = i
            outcome = runner.run(i)
            tracer.add("cli.out_bytes", outcome.out_bytes)
            traced.append(outcome)
    values = tracer.metrics()
    values["trace.requests"] = len(traced)
    values["trace.overhead_s"] = statistics.median(o.seconds for o in traced) - statistics.median(
        o.seconds for o in untraced
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write_spans(spans)
    print(
        f"traced {len(traced)} requests after the same {count} untraced; "
        f"{len(tracer.span_start)} spans in {spans.relative_to(ROOT)}"
    )
    if tracer.missing:
        print(f"missing traced names (metrics null): {', '.join(sorted(tracer.missing))}")
    metrics = {}
    for metric, unit, _ in METRICS:
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"{metric} {values[metric]} {unit}")
    return metrics, untraced + traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of its own.

    A fresh process per workload keeps peak_rss_mb per workload.  Each
    workload prints its own report and JSON line.
    """
    status = 0
    for name in workloads.NAMES:
        print(f"== {name}", flush=True)
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "quiverseq" / "__init__.py").is_file():
        print(f"error: no quiverseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from quiverseq import cli

    workload = workloads.build(args.workload, args.seed)
    digest = workload.digest()
    expected_laurent = workloads.load_expected_laurent()
    try:
        self_test_wrong = self_test(cli, expected_laurent)
        setup = measure_setup(args.workload, args.seed, digest)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} "
        f"requests-digest {digest} int_max_str_digits {sys.get_int_max_str_digits()}"
    )
    print("self-test: every checker rejects a corrupted copy of real output")
    for problem in self_test_wrong:
        print(f"wrong output: {problem}")
    with workloads.workdir() as path:
        workload.write_files(path)
        runner = Runner(cli, workload, path, expected_laurent)
        if args.trace:
            metrics, outcomes = run_traced(runner, args.seconds, args.workload, args.seed)
        else:
            metrics, outcomes = run_end_to_end(runner, args.seconds, setup)
    attempted, failed, correct, failures = _summary(outcomes)
    correct = correct and not self_test_wrong
    print(f"attempted {attempted} failed {failed} correct {str(correct).lower()}")
    for message, n in failures.most_common():
        print(f"  {n} x {message}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
