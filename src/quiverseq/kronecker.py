"""Kronecker products of sparse Laurent polynomials on their exponent hull.

``kron_mul`` multiplies two term dicts (exponent tuple -> nonzero int)
by Kronecker substitution (Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", JSC 44, 2009): each operand becomes
one int, the two ints are multiplied once, and the product's terms are
read back from its digits.  In a symbolic run every support lies in a
translate of the row space of B, of rank 2 for the Somos-4 quiver and
P(3,1) (Grabowski, "Graded cluster algebras", J. Algebraic Combin. 42,
2015), so the ints need only cover a box in a few coordinates.  The
kernel assumes none of that.  It spans the differences e − e_0 within
each operand from a few terms, in reduced row echelon form.  Each term's
key then adds a check form g (``_hull_check``) that moves the key out of
range for any term off the hull.  Such a term is added to the span and
the pass repeats, so the result never rests on an unchecked term.

The result is exact for three reasons:
- The r pivot coordinates fix a point of the hull, so distinct product
  exponents take distinct slots in the mixed radix of the pivot box.  A
  pivot entry of 1 in every row makes the lift back to the full exponent
  tuple integral.
- Each operand is one int with a fixed-width slot per box point, its
  positive and negative coefficients packed apart and subtracted.  A
  product slot sums at most min(|a|, |b|) term pairs, so its value stays
  below the bound min(|a|, |b|)·max|c_a|·max|c_b|.  The slot is the
  narrowest of 16, 32 or 64 bits whose half exceeds that bound.
- Adding half a slot to every slot makes the balanced digits of the
  product plain unsigned slots, read back with an array.

``kron_mul`` returns None, and the caller's sparse kernel runs, when the
hull has full rank, when a pivot entry is not 1, when the bound passes
2^63, or when the box has more than ``BOX_CAP``·(|a| + |b|) slots.  The
cap keeps the packed ints in proportion to the operands.  A square packs
its operand once.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice
from math import gcd, lcm, prod
from operator import add, mul, sub

# The largest pivot box packed, in slots per operand term.
BOX_CAP = 8
# Slot widths, narrowest first: (array typecode, bits) of unsigned C ints.
_SLOTS = tuple((code, 8 * array(code).itemsize) for code in "HIQ")
_ORDER = sys.byteorder  # arrays hold native-order items


def _span_add(rows: list, v: list[int]) -> None:
    """Add the integer vector v to the span of rows.

    rows holds (pivot, row) pairs sorted by pivot: each row is primitive,
    its first nonzero entry is a positive one at its pivot, and it is zero
    at the other rows' pivots.  So each row divided by its pivot entry is
    the reduced row echelon form of the span, whatever the order in which
    vectors were added.
    """
    for p, row in rows:
        x = v[p]
        if x:
            y = row[p]
            v = [y * s - x * t for s, t in zip(v, row)]
    p = next((j for j, x in enumerate(v) if x), None)
    if p is None:
        return
    g = gcd(*v) if v[p] > 0 else -gcd(*v)
    v = [x // g for x in v]
    y = v[p]
    for i, (q, row) in enumerate(rows):
        x = row[p]
        if x:
            row = [y * t - x * s for t, s in zip(row, v)]
            g = gcd(*row)
            rows[i] = (q, [t // g for t in row])
    rows.append((p, v))
    rows.sort()


def _hull_check(rows: list, spread: list[int]) -> list[int]:
    """Coefficients of an integer linear form g for the span V of rows.

    Take vectors e, e′ whose i-th coordinates differ by at most spread[i].
    Then g(e) = g(e′) exactly when e − e′ lies in V.  With Y the lcm of the
    pivot entries, f_j(v) = Y·v_j − Σ_k (Y/row_k[p_k])·row_k[j]·v_(p_k)
    vanishes on V at every non-pivot j, and v in V is fixed by its pivot
    coordinates, so V is where every f_j vanishes.  g sums the f_j in a
    mixed radix wider than twice their largest values on e − e′.
    """
    pivots = [p for p, _ in rows]
    scale = lcm(*(row[p] for p, row in rows))
    check = [0] * len(spread)
    place = 1
    for j, width in enumerate(spread):
        if j in pivots:
            continue
        check[j] += place * scale
        largest = scale * width
        for p, row in rows:
            x = scale // row[p] * row[j]
            if x:
                check[p] -= place * x
                largest += abs(x) * spread[p]
        place *= 2 * largest + 1
    return check


def kron_mul(nvars: int, a: dict, b: dict, abounds: tuple, bbounds: tuple) -> dict | None:
    """The terms of a·b, or None where the caller's sparse kernel must run.

    Both operands have at least two terms, and b is a for a square.  Each
    bounds pair holds the per-variable minimum and maximum exponents of
    its operand's terms.
    """
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    for code, bits in _SLOTS:
        half = 1 << (bits - 1)
        if bound < half:
            break
    else:
        return None
    (alo, ahi), (blo, bhi) = abounds, bbounds
    spread = [max(h, k) - min(l, m) for l, h, m, k in zip(alo, ahi, blo, bhi)]
    operands = [(a, next(iter(a)), alo)]
    if b is not a:
        operands.append((b, next(iter(b)), blo))
    rows: list = []
    for terms, base, _ in operands:
        for e in (next(islice(terms, len(terms) // 2, None)), next(reversed(terms))):
            _span_add(rows, list(map(sub, e, base)))
    cap = BOX_CAP * (len(a) + len(b))
    # Each pass that finds a term off the hull adds it, so the rank rises.
    while True:
        if len(rows) == nvars:
            return None
        pivots = [p for p, _ in rows]
        lo = [alo[p] + blo[p] for p in pivots]
        widths = [ahi[p] + bhi[p] - low + 1 for p, low in zip(pivots, lo)]
        box = prod(widths)
        if box > cap:
            return None
        # key(e) = box·g(e) + the slot of e's pivot coordinates in the box
        place = [prod(widths[k + 1 :]) for k in range(len(widths))]
        check = _hull_check(rows, spread)
        weights = [box * g for g in check]
        for p, w in zip(pivots, place):
            weights[p] += w
        keyed = []
        for terms, base, tlo in operands:
            keys = [sum(map(mul, e, weights)) for e in terms]
            k0 = box * sum(map(mul, base, check)) + sum(tlo[p] * w for p, w in zip(pivots, place))
            size = max(keys) - k0 + 1
            if min(keys) < k0 or size > box:
                off = next(e for e, k in zip(terms, keys) if not 0 <= k - k0 < box)
                _span_add(rows, list(map(sub, off, base)))
                break
            keyed.append((terms, keys, k0, size))
        else:
            break
    if any(row[p] != 1 for p, row in rows):
        return None
    width = bits // 8
    packed = []
    for terms, keys, k0, size in keyed:
        pos = array(code, bytes(width * size))
        neg = array(code, bytes(width * size))
        for k, c in zip(keys, terms.values()):
            if c > 0:
                pos[k - k0] = c
            else:
                neg[k - k0] = -c
        packed.append((int.from_bytes(pos, _ORDER) - int.from_bytes(neg, _ORDER), size))
    (x, xsize), (y, ysize) = packed if len(packed) == 2 else packed * 2
    size = xsize + ysize - 1
    biased = x * y + int.from_bytes(half.to_bytes(width, _ORDER) * size, _ORDER)
    slots = array(code, biased.to_bytes(width * size, _ORDER))
    # e = origin + Σ_k e_(p_k)·row_k over the pivot coordinates of e
    origin = list(map(add, operands[0][1], operands[-1][1]))
    for p, row in rows:
        u = origin[p]
        origin = [o - u * t for o, t in zip(origin, row)]
    *head, (_, last) = rows
    lifts = [tuple(origin)]
    for (_, row), low, w in zip(head, lo, widths):
        lifts = [tuple(map(add, e, [u * t for t in row])) for e in lifts for u in range(low, low + w)]
    tail = [tuple([u * t for t in last]) for u in range(lo[-1], lo[-1] + widths[-1])]
    out = {}
    start = 0
    for head_lift in lifts:
        stop = start + len(tail)
        for tail_lift, c in zip(tail, slots[start:stop]):
            if c != half:
                out[tuple(map(add, head_lift, tail_lift))] = c - half
        start = stop
    return out
