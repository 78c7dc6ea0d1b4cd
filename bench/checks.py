"""Independent checkers for the CLI output of the benchmark's requests.

A checker is fed the output one line at a time while the request runs
and keeps only residues or small parsed rows, never the output itself,
so the benchmark process's peak memory is the program's.  ``feed`` and
``finish`` raise ``CheckFailed`` on the first wrong line.

Big numbers are never parsed with ``int()`` whole: a decimal string is
reduced modulo ``MODULUS`` eighteen digits at a time, so checking works
on terms of any length and the interpreter's int-string limit stays as
the program sees it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# Product of three Mersenne primes: a wrong term passes an identity
# check with probability about 1/2^61.
MODULUS = (2**61 - 1) * (2**89 - 1) * (2**127 - 1)

_INTEGER = re.compile(r"-?[0-9]+")
_CHUNK = 18
_CHUNK_SCALE = 10**_CHUNK


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's oracle."""


def residue(text: str) -> int:
    """``text`` ("n" or "p/q" in decimal) modulo MODULUS."""
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return residue(num) * pow(residue(den), -1, MODULUS) % MODULUS
        except ValueError as exc:  # denominator shares a prime with MODULUS
            raise CheckFailed(f"cannot reduce {text[:40]!r}: {exc}") from exc
    if not _INTEGER.fullmatch(text):
        raise CheckFailed(f"not a decimal number: {text[:40]!r}")
    negative = text.startswith("-")
    digits = text[1:] if negative else text
    head = len(digits) % _CHUNK or _CHUNK
    r = int(digits[:head])
    for i in range(head, len(digits), _CHUNK):
        r = (r * _CHUNK_SCALE + int(digits[i : i + _CHUNK])) % MODULUS
    return -r % MODULUS if negative else r % MODULUS


def _row(line: str, keys: set[str]) -> dict:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"not a JSON line: {line[:60]!r}") from exc
    if not isinstance(row, dict) or set(row) != keys:
        raise CheckFailed(f"unexpected row shape: {line[:80]!r}")
    return row


class SeqChecker:
    """``seq --family somos4 --deform m2:c --init-b b`` rows.

    Checks the initial block (bodies 1, slopes b) and, from the fifth
    term on, both parts of the deformed dual Somos-4 relation
        A4·A0 = A1·A3 + A2²·(1 + c·ε)
    modulo MODULUS, which fixes every term because A0 is invertible.
    """

    KEYS = {"index", "paper_index", "body", "slope", "integral"}

    def __init__(self, terms: int, deform: int, init_b: list[int]):
        self.terms = terms
        self.c = deform
        self.init_b = init_b
        self.window: list[tuple[int, int]] = []
        self.count = 0

    def feed(self, line: str) -> None:
        n = self.count
        row = _row(line, self.KEYS)
        if row["index"] != n or row["paper_index"] != n + 1:
            raise CheckFailed(f"row {n}: index {row['index']}/{row['paper_index']}")
        body, slope = row["body"], row["slope"]
        if row["integral"] != ("/" not in body and "/" not in slope):
            raise CheckFailed(f"row {n}: integral flag {row['integral']}")
        a, b = residue(body), residue(slope)
        if n < 4:
            if (a, b) != (1, self.init_b[n] % MODULUS):
                raise CheckFailed(f"row {n}: initial term {body} + {slope}ε")
        else:
            (a0, b0), (a1, b1), (a2, b2), (a3, b3) = self.window
            if (a * a0 - a1 * a3 - a2 * a2) % MODULUS:
                raise CheckFailed(f"row {n}: body breaks the Somos-4 relation")
            lhs = a * b0 + b * a0
            rhs = a1 * b3 + b1 * a3 + 2 * a2 * b2 + self.c * a2 * a2
            if (lhs - rhs) % MODULUS:
                raise CheckFailed(f"row {n}: slope breaks the deformed relation")
            self.window.pop(0)
        self.window.append((a, b))
        self.count += 1

    def finish(self) -> None:
        if self.count != self.terms:
            raise CheckFailed(f"{self.count} rows, expected {self.terms}")


def somos4_bodies(terms: int) -> list[int]:
    """Somos-4 from (1, 1, 1, 1), straight-line modulo MODULUS."""
    a = [1, 1, 1, 1]
    while len(a) < terms:
        a.append((a[-3] * a[-1] + a[-2] * a[-2]) * pow(a[-4], -1, MODULUS) % MODULUS)
    return a[:terms]


class DecomposeChecker:
    """``decompose --family somos4`` rows: the four slope basis rows.

    Row i starts with the i-th unit vector, satisfies the linearized
    Somos-4 relation
        b4·a0 + a4·b0 = a1·b3 + b1·a3 + 2·a2·b2
    against independently computed bodies a, and the four rows sum to
    the bodies.
    """

    KEYS = {"basis", "values"}

    def __init__(self, terms: int):
        self.terms = terms
        self.bodies = somos4_bodies(terms)
        self.sums = [0] * terms
        self.count = 0

    def feed(self, line: str) -> None:
        i = self.count
        row = _row(line, self.KEYS)
        values = row["values"]
        if row["basis"] != i + 1 or not isinstance(values, list) or len(values) != self.terms:
            raise CheckFailed(f"basis row {i + 1}: header or length wrong")
        b = [residue(v) for v in values]
        if b[:4] != [int(j == i) for j in range(4)]:
            raise CheckFailed(f"basis row {i + 1}: not the unit start {values[:4]}")
        a = self.bodies
        for n in range(self.terms - 4):
            lhs = b[n + 4] * a[n] + a[n + 4] * b[n]
            rhs = a[n + 1] * b[n + 3] + b[n + 1] * a[n + 3] + 2 * a[n + 2] * b[n + 2]
            if (lhs - rhs) % MODULUS:
                raise CheckFailed(f"basis row {i + 1}: term {n + 4} breaks the linearized relation")
        self.sums = [(s + v) % MODULUS for s, v in zip(self.sums, b)]
        self.count += 1

    def finish(self) -> None:
        if self.count != 4:
            raise CheckFailed(f"{self.count} basis rows, expected 4")
        if self.sums != self.bodies:
            raise CheckFailed("basis rows do not sum to the bodies")


def fordy_marsh_cell(p: int, q: int, horizon: int, deform: str) -> dict:
    """Expected scan row for one Fordy–Marsh cell, by straight-line Fractions.

    A_{n+4}·A_n = A_{n+1}^p·A_{n+3}^p + A_{n+2}^q with one monomial
    optionally carrying (1 + w·ε); initial bodies 1, initial slopes 0.
    Bodies a and slopes b are carried separately, with the quotient rule
    (N + Mε)/(a + bε) = N/a + (M·a − N·b)/a²·ε.
    """
    placement, _, w = deform.partition(":")
    w = int(w) if w else 0
    a = [Fraction(1)] * 4
    b = [Fraction(0)] * 4
    degenerate = False
    for n in range(horizon - 4):
        if a[n] == 0:
            degenerate = True
            break
        x1, x2, x3 = a[n + 1], a[n + 2], a[n + 3]
        d1, d2, d3 = b[n + 1], b[n + 2], b[n + 3]
        m1 = x1**p * x3**p
        m1_slope = p * x1 ** (p - 1) * d1 * x3**p + p * x3 ** (p - 1) * d3 * x1**p
        m2 = x2**q
        m2_slope = q * x2 ** (q - 1) * d2 if q else Fraction(0)
        if placement == "m1":
            m1_slope += w * m1
        elif placement == "m2":
            m2_slope += w * m2
        num, num_slope = m1 + m2, m1_slope + m2_slope
        a.append(num / a[n])
        b.append((num_slope * a[n] - num * b[n]) / (a[n] * a[n]))
    first = None
    for i, (x, d) in enumerate(zip(a, b)):
        if x.denominator != 1 or d.denominator != 1:
            first = (i, d if d.denominator != 1 else x)
            break
    return {
        "params": {"p": p, "q": q},
        "clean": first is None and not degenerate,
        "degenerate": degenerate,
        "first_fraction_index": None if first is None else first[0],
        "first_fraction_paper_index": None if first is None else first[0],
        "first_fraction_value": None if first is None else str(first[1]),
    }


def scan_rows(p: int, q: list[int], horizon: int, deform: str, cache: dict) -> list[dict]:
    """Expected rows of ``scan --p P --q q0..q1``, one per q, memoized per cell."""
    rows = []
    for qq in range(q[0], q[1] + 1):
        key = (p, qq, horizon, deform)
        if key not in cache:
            cache[key] = fordy_marsh_cell(p, qq, horizon, deform)
        rows.append(cache[key])
    return rows


class RowsChecker:
    """JSON rows compared one by one with a list of expected rows.

    Used for ``scan`` (rows from the Fraction oracle) and ``laurent``
    (rows recorded for the workload's fixed pools).
    """

    def __init__(self, expected: list[dict]):
        self.expected = expected
        self.count = 0

    def feed(self, line: str) -> None:
        if self.count >= len(self.expected):
            raise CheckFailed(f"extra row {self.count}: {line[:120]!r}")
        row = _row(line, set(self.expected[self.count]))
        if row != self.expected[self.count]:
            raise CheckFailed(f"row {self.count}: {line[:120]!r}")
        self.count += 1

    def finish(self) -> None:
        if self.count != len(self.expected):
            raise CheckFailed(f"{self.count} rows, expected {len(self.expected)}")
