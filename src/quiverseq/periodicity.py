"""Primitive quivers, their combinations, and period-1 weight functions.

A quiver has *period 1* when mutating at vertex 1 and then shifting the
labels i+1 → i reproduces it; iterating that cycle generates a sequence
recurrence.  This module builds the primitive period-1 quivers P(n, t),
combines them with integer coefficients plus a caller-supplied correction
on vertices 2..n, and decides whether a period-1 quiver carries a weight
function that is itself restored by the mutation-plus-shift cycle.

Existence criterion: with the normalization w_1 = 1 the cycle condition
forces w_{i+1} = w_i − [b_{1,i+1}]_+ and finally w_n = −w_1, so a
(nonzero) solution exists exactly when the positive entries of row 1 sum
to 2.  The solution is then unique up to an integer multiple.
"""

from __future__ import annotations

from .errors import QuiverSeqError
from .quiver import Quiver, WeightedQuiver, pos_part


class BadStrideError(QuiverSeqError, ValueError):
    """Primitive stride outside 1..n/2."""


class CorrectionTouchesVertexOne(QuiverSeqError, ValueError):
    """Correction quivers must leave row/column 1 empty."""


class NotPeriodOneError(QuiverSeqError, ValueError):
    """Operation only meaningful for period-1 quivers."""


class NoWeightPeriodError(QuiverSeqError, ValueError):
    """The weights did not return within the cycle limit."""


def primitive(n: int, t: int) -> Quiver:
    """The primitive quiver P(n, t): one arrow per pair {i, i+t mod n}.

    Arrows run from the larger label to the smaller, so b[i][j] = +1 when
    i − j = t and −1 when j − i = t, closing cyclically.  For even n and
    t = n/2 each pair occurs once (a single arrow).
    """
    if not 1 <= t <= n // 2:
        raise BadStrideError(f"stride {t} outside 1..{n // 2} for n={n}")
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + t) % n
        hi, lo = max(i, j), min(i, j)
        b[hi][lo] = 1
        b[lo][hi] = -1
    return Quiver(b)


def combine(n: int, coeffs, correction: Quiver | None = None) -> Quiver:
    """Integer combination of primitives plus an optional correction.

    ``coeffs`` has length floor(n/2); coefficient c_t scales P(n, t), a
    negative coefficient reversing the orientation.  The correction quiver
    may only touch vertices 2..n; period-1-ness of the result is NOT
    implied and should be checked with ``is_period_one``.
    """
    coeffs = tuple(coeffs)
    r = n // 2
    if len(coeffs) != r:
        raise ValueError(f"expected {r} coefficients for n={n}, got {len(coeffs)}")
    b = [[0] * n for _ in range(n)]
    for t, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        p = primitive(n, t)
        for i in range(n):
            for j in range(n):
                b[i][j] += c * p.b[i][j]
    if correction is not None:
        if correction.n != n:
            raise ValueError(f"correction has {correction.n} vertices, expected {n}")
        for j in range(n):
            if correction.b[0][j] != 0 or correction.b[j][0] != 0:
                raise CorrectionTouchesVertexOne(
                    f"correction entry at (1,{j + 1}) must be 0"
                )
        for i in range(n):
            for j in range(n):
                b[i][j] += correction.b[i][j]
    return Quiver(b)


def _descend(q: Quiver) -> tuple[tuple[int, ...], int]:
    """Candidate weights from the row-1 recursion plus the closing residual.

    With w_1 = 1, w_{i+1} = w_i − [b_{1,i+1}]_+; residual = w_n + w_1.
    """
    w = [1]
    for j in range(1, q.n):
        w.append(w[-1] - pos_part(q.b[0][j]))
    return tuple(w), w[-1] + 1


def closing_residual(q: Quiver) -> int:
    """Residual w_n + w_1 of the candidate solution (0 iff a solution exists).

    It equals 2 − Σ_j [b_1j]_+.
    """
    if not q.is_period_one():
        raise NotPeriodOneError("weight criterion applies to period-1 quivers only")
    return _descend(q)[1]


def weight_exists(q: Quiver) -> bool:
    """Whether a period-1 weight function exists: row-1 positive parts sum to 2."""
    return closing_residual(q) == 0


def solve_weight(q: Quiver) -> tuple[int, ...] | None:
    """The period-1 weight function normalized to w_1 = 1, or None when none exists.

    The weights are fixed exactly by one mutate-at-1-then-rotate cycle,
    and every other period-1 weight function on the same quiver is an
    integer multiple of them.
    """
    if not q.is_period_one():
        raise NotPeriodOneError("weight solving applies to period-1 quivers only")
    w, residual = _descend(q)
    return w if residual == 0 else None


def _weight_orbit(wq: WeightedQuiver, max_cycles: int, what: str) -> tuple[int, ...] | None:
    """w_1 at each mutate-at-1-then-rotate cycle until the weights return.

    None when they do not return within max_cycles.
    """
    if not wq.quiver.is_period_one():
        raise NotPeriodOneError(f"{what} requires a period-1 quiver")
    trace: list[int] = []
    current = wq
    for _ in range(max_cycles):
        trace.append(current.weights[0])
        current = current.mutate(1).rotate()
        if current.weights == wq.weights:
            return tuple(trace)
    return None


def weight_period(wq: WeightedQuiver, max_cycles: int = 64) -> int | None:
    """Smallest number of mutate-at-1-then-rotate cycles fixing the weights.

    The quiver part must be period-1 (it returns after every cycle); the
    weights need not be.  Returns None when no period ≤ max_cycles is
    found.  One cycle is one mutation plus one label shift, so for two
    vertices a cycle is a single mutation step.
    """
    trace = _weight_orbit(wq, max_cycles, "weight period")
    return None if trace is None else len(trace)


def weight_trace(wq: WeightedQuiver, max_cycles: int = 64) -> tuple[int, ...]:
    """Values taken by w_1 over one full weight period, cycle by cycle.

    This is the deformation schedule that the quiver's recurrence applies.
    Raises NotPeriodOneError when the quiver is not period-1 and
    NoWeightPeriodError when the weights do not return within max_cycles.
    """
    trace = _weight_orbit(wq, max_cycles, "weight trace")
    if trace is None:
        raise NoWeightPeriodError(f"weights did not return within {max_cycles} cycles")
    return trace
