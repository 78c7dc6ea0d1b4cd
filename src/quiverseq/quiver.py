"""Quivers as skew-symmetric integer exchange matrices, plus vertex weights.

Entry ``b[i][j] > 0`` means that many arrows from vertex i+1 to vertex
j+1.  Matrices are stored 0-indexed; every *public* vertex argument is
1-indexed, matching the usual convention for exchange matrices.
Skew-symmetry forbids loops and 2-cycles by construction.

All values are immutable; mutation and rotation return fresh objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import QuiverSeqError


class QuiverFormatError(QuiverSeqError, ValueError):
    """Malformed quiver data (shape, entry types, or skew-symmetry)."""


class VertexIndexError(QuiverSeqError, IndexError):
    """Vertex index outside 1..n."""


def pos_part(c: int) -> int:
    """[c]_+ : c when c > 0, else 0."""
    return c if c > 0 else 0


def neg_part(c: int) -> int:
    """[c]_- : c when c < 0, else 0 (kept with its sign)."""
    return c if c < 0 else 0


def _row(i: int, row) -> tuple:
    try:
        return tuple(row)
    except TypeError:
        raise QuiverFormatError(f"row {i + 1} = {row!r} is not a list of entries") from None


def _validated_rows(rows) -> tuple[tuple[int, ...], ...]:
    b = tuple(_row(i, row) for i, row in enumerate(rows))
    n = len(b)
    for i, row in enumerate(b):
        if len(row) != n:
            raise QuiverFormatError(f"row {i + 1} has length {len(row)}, expected {n}")
        for j, entry in enumerate(row):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise QuiverFormatError(f"entry b[{i + 1}][{j + 1}] = {entry!r} is not an integer")
    for i in range(n):
        for j in range(i, n):
            if b[i][j] != -b[j][i]:
                raise QuiverFormatError(
                    f"not skew-symmetric at ({i + 1},{j + 1}): "
                    f"b[{i + 1}][{j + 1}] = {b[i][j]} but b[{j + 1}][{i + 1}] = {b[j][i]}"
                )
    return b


@dataclass(frozen=True)
class Quiver:
    """Immutable quiver on n vertices, encoded by its exchange matrix."""

    b: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _validated_rows(self.b))

    @property
    def n(self) -> int:
        return len(self.b)

    def _check_vertex(self, k: int) -> None:
        if not 1 <= k <= self.n:
            raise VertexIndexError(f"vertex {k} outside 1..{self.n}")

    def mutate(self, k: int) -> "Quiver":
        """Mutation at vertex k (1-indexed).

        Row and column k flip sign; every other entry picks up the
        composition term [b_ik]_+ [b_kj]_+ − [b_ik]_- [b_kj]_-, i.e. one
        new arrow i→j per path i→k→j, with 2-cycles cancelled.  Mutation
        is an involution.
        """
        self._check_vertex(k)
        c = k - 1
        b = self.b
        n = self.n
        new = [
            [
                -b[i][j]
                if (i == c or j == c)
                else b[i][j] + pos_part(b[i][c]) * pos_part(b[c][j]) - neg_part(b[i][c]) * neg_part(b[c][j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        return Quiver(tuple(tuple(row) for row in new))

    def rotate(self) -> "Quiver":
        """Shift vertex labels i+1 → i cyclically (vertex 1 becomes vertex n)."""
        n = self.n
        return Quiver(
            tuple(tuple(self.b[(i + 1) % n][(j + 1) % n] for j in range(n)) for i in range(n))
        )

    def is_period_one(self) -> bool:
        """True when mutation at vertex 1 followed by rotation is the identity."""
        return self.mutate(1).rotate() == self

    def to_dict(self) -> dict:
        return {"n": self.n, "b": [list(row) for row in self.b]}

    @classmethod
    def from_dict(cls, data: dict) -> "Quiver":
        if not isinstance(data, dict) or "b" not in data:
            raise QuiverFormatError('quiver data must be an object with a "b" matrix')
        rows = data["b"]
        if not isinstance(rows, list):
            raise QuiverFormatError('"b" must be a list of rows')
        q = cls(rows)
        if "n" in data and data["n"] != q.n:
            raise QuiverFormatError(f'"n" = {data["n"]} does not match matrix size {q.n}')
        return q


@dataclass(frozen=True)
class WeightedQuiver:
    """A quiver together with one integer weight per vertex."""

    quiver: Quiver
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != self.quiver.n:
            raise QuiverFormatError(
                f"{len(self.weights)} weights for {self.quiver.n} vertices"
            )
        for i, w in enumerate(self.weights):
            if not isinstance(w, int) or isinstance(w, bool):
                raise QuiverFormatError(f"weight w[{i + 1}] = {w!r} is not an integer")

    @property
    def n(self) -> int:
        return self.quiver.n

    def mutate(self, k: int) -> "WeightedQuiver":
        """Mutate quiver and weights at vertex k.

        Weight rule, read off the PRE-mutation matrix:
            w'_i = w_i + [b_ki]_+ · w_k   (i ≠ k),     w'_k = -w_k.
        Unlike matrix mutation this is generally not an involution.
        """
        self.quiver._check_vertex(k)
        c = k - 1
        row = self.quiver.b[c]
        new_w = tuple(
            -w if i == c else w + pos_part(row[i]) * self.weights[c]
            for i, w in enumerate(self.weights)
        )
        return WeightedQuiver(self.quiver.mutate(k), new_w)

    def rotate(self) -> "WeightedQuiver":
        n = self.n
        return WeightedQuiver(
            self.quiver.rotate(),
            tuple(self.weights[(i + 1) % n] for i in range(n)),
        )

    def to_dict(self) -> dict:
        d = self.quiver.to_dict()
        d["w"] = list(self.weights)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "WeightedQuiver":
        q = Quiver.from_dict(data)
        if "w" not in data:
            raise QuiverFormatError('weighted quiver data must contain "w"')
        w = data["w"]
        if not isinstance(w, list):
            raise QuiverFormatError('"w" must be a list of integers')
        return cls(q, tuple(w))


def _parse_json(text: str):
    # JSONDecodeError is a ValueError, as is an integer longer than the
    # int-digit limit; RecursionError means nesting too deep.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise QuiverFormatError(f"invalid JSON: {exc}") from exc


def load_quiver(text: str) -> Quiver | WeightedQuiver:
    """Parse quiver JSON; returns a WeightedQuiver when "w" is present."""
    data = _parse_json(text)
    if isinstance(data, dict) and "w" in data:
        return WeightedQuiver.from_dict(data)
    return Quiver.from_dict(data)
