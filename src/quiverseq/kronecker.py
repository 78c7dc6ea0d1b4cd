"""Kronecker substitution of sparse Laurent polynomials on their exponent hull.

Term dicts (exponent tuple -> nonzero int) become ints by Kronecker
substitution (Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", JSC 44, 2009): x^e goes to X^key(e) for a
linear key and X = 2^bits.  That is a ring homomorphism, so the ints
multiply, add and divide as the polynomials do, and terms are read back
from the digits.  In a symbolic run every support lies in a translate of
the row space of B, of rank 2 for the Somos-4 quiver and P(3,1)
(Grabowski, "Graded cluster algebras", J. Algebraic Combin. 42, 2015),
so the keys need only cover a box in a few coordinates.

The shared helpers assume none of that.
- ``_hull`` spans the differences e − e_0 within each operand from a few
  terms, and the differences between operands that the caller needs on
  one translate, in reduced row echelon form.  Each term's key adds a
  check form g (``_hull_check``) that moves the key out of range for any
  term off the hull.  Such a term is added to the span and the pass
  repeats, so no result rests on an unchecked term.  The r pivot
  coordinates fix a point of a translate, so distinct points of the box
  take distinct keys in the mixed radix of the pivot coordinates.
- ``_pack`` turns an operand into one int, with a slot of a whole number
  of bytes per key, and returns it as (v, o) for v·2^o, so that sums of
  packed ints only shift.
- ``_read`` reads the balanced digits of such a pair back as terms on a
  translate, lifting the pivot coordinates of each slot to the full
  exponent tuple; a pivot entry of 1 in every row makes the lift
  integral.  Adding half a slot to each digit makes it a plain unsigned
  slot, read with an array.  A digit outside the box it is asked to read
  is refused.

``kron_mul`` multiplies two term dicts with one int product.  A product
slot sums at most min(|a|, |b|) term pairs, so its digit stays below
min(|a|, |b|)·max|c_a|·max|c_b|, and the slot is the narrowest of 2, 4
or 8 bytes whose half exceeds that bound.  A square packs its operand
once.

``kron_exchange`` evaluates a whole Laurent exchange on one hull.  It
packs the bodies and s_0's of the factors and the divisor once, forms the
numerator's body N_b and s_0 N_s by integer powers, products and shifts,
divides Q = N_b / β and S = (N_s − Q·t) / β, where β and t are the
divisor's body and s_0, and reads back only Q and S.  The integer work
needs no proof, being a homomorphism; the read does:
- Bounds on max|N_b| and max|N_s| come from the factors' term counts and
  norms before any hull is built, since a product's max norm is at most
  min(l1(a)·max|b|, max|a|·l1(b)).  The slot is the fewest bytes, up to 8,
  whose half exceeds them with ``HEADROOM`` bits to spare.
- The box holds N_b, N_s and q·t, and the read takes q and s only from
  their quotient boxes, whose products with β stay inside it.
- Balanced digits below half a slot are unique.  So once the read q has
  min(|q|, |β|)·max|q|·max|β| below half a slot, q·β and N_b have the
  same digits on the same points, and q·β is N_b.  s is proved the same
  way against N_s − q·t, whose max norm is at most
  max|N_s| + min(|q|, |t|)·max|q|·max|t|.

Both return None, and the caller's sparse route runs, when the hull has
full rank, when a pivot entry is not 1, when a bound passes the 8-byte
slot, or when the box passes its cap: ``BOX_CAP`` slots per operand term,
and for an exchange also half the caller's term budget.  An exchange also
declines on a nonzero remainder, a nonzero digit outside a quotient box,
or a read quotient whose bounds pass half a slot.  Slots stop at 8 bytes
because CPython's long division is quadratic: at long sizes a division
packed on the hull ran up to 3× slower than the sparse one.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice
from math import gcd, lcm, prod
from operator import add, gt, mul, sub

# The largest pivot box packed, in slots per operand term.
BOX_CAP = 8
# For a slot of 1 to 8 bytes, the narrowest array item that holds it:
# (item size in bytes, typecode) of an unsigned C int.
_ITEMS = {w: min((array(c).itemsize, c) for c in "BHIQ" if array(c).itemsize >= w) for w in range(1, 9)}
_NATIVE = sys.byteorder == "little"  # ints are packed little-endian
# Bits that an exchange's slot keeps above its bounds on N_b and N_s for
# the quotients' bounds, which are known only once they are read.
HEADROOM = 4


def _bounds(terms) -> tuple[list[int], list[int]]:
    """Per-variable minimum and maximum exponents of a nonempty term dict."""
    cols = list(zip(*terms))
    return [min(c) for c in cols], [max(c) for c in cols]


def _slot(bound: int, widths) -> int | None:
    """The fewest bytes, among widths, of a slot whose half exceeds bound."""
    return next((w for w in widths if bound < 1 << (8 * w - 1)), None)


def _restride(data, size: int, old: int, new: int) -> bytearray:
    """size little-endian slots of old bytes as slots of new bytes: the low
    bytes of each slot are kept and the rest are zero."""
    out = bytearray(new * size)
    for j in range(min(old, new)):
        out[j::new] = data[j::old]
    return out


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


def _hull(nvars: int, operands: list, vectors: list, lo: list[int], hi: list[int], cap: int):
    """One hull for every operand, or None.

    operands holds (terms, tlo, thi) triples of nonempty term dicts with
    their bounds; the span takes each operand's own differences and every
    vector in vectors.  The box spans lo..hi, and each operand's extent,
    in the pivot coordinates.  Returns ((rows, widths, weights), keyed):
    the box's widths in the pivot coordinates, key(e) = Σ e·weights, and
    per operand (keys, least key, largest key).
    """
    rows: list = []
    for v in vectors:
        _span_add(rows, v)
    bases = [next(iter(terms)) for terms, _, _ in operands]
    for (terms, _, _), base in zip(operands, bases):
        for e in (next(islice(terms, len(terms) // 2, None)), next(reversed(terms))):
            _span_add(rows, list(map(sub, e, base)))
    # the largest difference of two exponents within one operand
    spread = [max(col) for col in zip(*(map(sub, thi, tlo) for _, tlo, thi in operands))]
    # Each pass that finds a term off the hull adds it, so the rank rises.
    while True:
        if len(rows) == nvars:
            return None
        pivots = [p for p, _ in rows]
        widths = [max(hi[p] - lo[p], spread[p]) + 1 for p in pivots]
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
        for (terms, tlo, _), base in zip(operands, bases):
            keys = [sum(map(mul, e, weights)) for e in terms]
            k0 = box * sum(map(mul, base, check)) + sum(tlo[p] * w for p, w in zip(pivots, place))
            low, high = min(keys), max(keys)
            if low < k0 or high - k0 >= box:
                off = next(e for e, k in zip(terms, keys) if not 0 <= k - k0 < box)
                _span_add(rows, list(map(sub, off, base)))
                break
            keyed.append((keys, low, high))
        else:
            break
    if any(row[p] != 1 for p, row in rows):
        return None
    return (rows, widths, weights), keyed


def _pack(width: int, terms: dict, keys: list[int], low: int, high: int) -> tuple[int, int]:
    """(v, o) with v·2^o = Σ c·X^key(e) over the terms c·x^e, X = 2^(8·width):
    v has a slot of width bytes for each key from low to high, and each
    coefficient lies below half a slot."""
    size = high - low + 1
    item, code = _ITEMS[width]
    pos, neg = array(code, bytes(item * size)), array(code, bytes(item * size))
    for k, c in zip(keys, terms.values()):
        if c > 0:
            pos[k - low] = c
        else:
            neg[k - low] = -c
    if not _NATIVE:
        pos.byteswap()
        neg.byteswap()
    if item > width:
        pos, neg = _restride(pos.tobytes(), size, item, width), _restride(neg.tobytes(), size, item, width)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little"), 8 * width * low


def _read(hull: tuple, width: int, packed: tuple[int, int], point, lo, hi) -> dict | None:
    """The terms whose image is packed, a pair (v, o) for v·2^o, or None.

    The terms are read from balanced digits of width bytes at the points
    of the translate through point whose pivot coordinates lie in lo..hi;
    None when a nonzero digit lies anywhere else.
    """
    (rows, widths, weights), (value, offset) = hull, packed
    bits = 8 * width
    half = 1 << (bits - 1)
    # e = origin + Σ_k e_(p_k)·row_k over the pivot coordinates of e
    origin = list(point)
    for p, row in rows:
        u = origin[p]
        origin = [o - u * t for o, t in zip(origin, row)]
    pivots = [p for p, _ in rows]
    corner = [lo[p] for p in pivots]
    used = [hi[p] - lo[p] + 1 for p in pivots]
    place = [prod(widths[k + 1 :]) for k in range(len(widths))]
    # the offset of the box point at corner, in bits
    base = bits * (sum(map(mul, origin, weights)) + sum(map(mul, corner, place)))
    if offset < base:
        if value & ((1 << (base - offset)) - 1):
            return None
        value >>= base - offset
    else:
        value <<= offset - base
    # The box's slots, or fewer when value's balanced digits end earlier.
    size = min(sum((u - 1) * x for u, x in zip(used, place)) + 1, (abs(value).bit_length() + 1) // bits + 2)
    bias = int.from_bytes(half.to_bytes(width, "little") * size, "little")
    try:
        data = (value + bias).to_bytes(width * size, "little")
    except OverflowError:
        return None
    item, code = _ITEMS[width]
    digits = array(code, data if item == width else _restride(data, size, width, item))
    if not _NATIVE:
        digits.byteswap()
    *head, (_, last) = rows
    lifts = [(tuple(origin), True)]
    for (_, row), low, w, u in zip(head, corner, widths, used):
        lifts = [
            (tuple(map(add, e, [x * t for t in row])), inside and x - low < u)
            for e, inside in lifts
            for x in range(low, low + w)
        ]
    tail = [tuple([x * t for t in last]) for x in range(corner[-1], corner[-1] + used[-1])]
    out = {}
    wide = widths[-1]
    for start, (head_lift, inside) in zip(range(0, size, wide), lifts):
        line = digits[start : start + wide]
        if not inside or len(line) > len(tail):
            rest = line[len(tail) :] if inside else line
            if rest.count(half) != len(rest):
                return None
        for tail_lift, c in zip(tail, line):
            if c != half:
                out[tuple(map(add, head_lift, tail_lift))] = c - half
    return out


def kron_mul(nvars: int, a: dict, b: dict, abounds: tuple, bbounds: tuple) -> dict | None:
    """The terms of a·b, or None where the caller's sparse kernel must run.

    Both operands have at least two terms, and b is a for a square.  Each
    bounds pair holds the per-variable minimum and maximum exponents of
    its operand's terms.
    """
    width = _slot(min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values())), (2, 4, 8))
    if width is None:
        return None
    (alo, ahi), (blo, bhi) = abounds, bbounds
    operands = [(a, alo, ahi)] if b is a else [(a, alo, ahi), (b, blo, bhi)]
    lo, hi = list(map(add, alo, blo)), list(map(add, ahi, bhi))
    found = _hull(nvars, operands, [], lo, hi, BOX_CAP * (len(a) + len(b)))
    if found is None:
        return None
    hull, keyed = found
    packed = [_pack(width, terms, *entry) for (terms, _, _), entry in zip(operands, keyed)]
    (x, i), (y, j) = packed if len(packed) == 2 else packed * 2
    return _read(hull, width, (x * y, i + j), map(add, next(iter(a)), next(iter(b))), lo, hi)


def _numerator(factors: list, w: int, one, algebra) -> tuple:
    """(N_b, N_s), the body and s_0 of ∏_(c>0) X^c + (1 + w·ε)·∏_(c<0) X^(−c).

    factors holds ((b, s), c) pairs of elements of the algebra, whose
    mul, add, scale and power act on them, with None for 0.  X^e is
    (b^e, e·b^(e−1)·s) and a product follows the Leibniz rule.
    """

    def times(x, y):
        return None if x is None or y is None else algebra.mul(x, y)

    def plus(x, y):
        return y if x is None else x if y is None else algebra.add(x, y)

    sides = []
    for sign in (1, -1):
        body, slope = one, None
        for (b, s), c in factors:
            e = sign * c
            if e <= 0:
                continue
            pb, ps = b, s
            if e > 1:
                lower = algebra.power(b, e - 1)
                pb, ps = algebra.mul(lower, b), times(lower, s)
                ps = None if ps is None else algebra.scale(e, ps)
            body, slope = algebra.mul(body, pb), plus(times(body, ps), times(slope, pb))
        sides.append((body, slope))
    (out, out_s), (into, into_s) = sides
    return algebra.add(out, into), plus(plus(out_s, into_s), algebra.scale(w, into) if w else None)


class _Norms:
    """Bounds (l1 norm, max norm, min exponents, max exponents) on a
    polynomial; a product's max norm is at most min(l1(a)·max|b|, max|a|·l1(b))."""

    @staticmethod
    def of(terms: dict) -> tuple | None:
        if not terms:
            return None
        return sum(map(abs, terms.values())), max(map(abs, terms.values())), *_bounds(terms)

    @staticmethod
    def mul(x, y):
        lo, hi = list(map(add, x[2], y[2])), list(map(add, x[3], y[3]))
        return x[0] * y[0], min(x[0] * y[1], x[1] * y[0]), lo, hi

    @staticmethod
    def add(x, y):
        return x[0] + y[0], x[1] + y[1], list(map(min, x[2], y[2])), list(map(max, x[3], y[3]))

    @staticmethod
    def scale(c, x):
        return abs(c) * x[0], abs(c) * x[1], x[2], x[3]

    @staticmethod
    def power(x, e):
        return x[0] ** e, x[0] ** (e - 1) * x[1], [e * v for v in x[2]], [e * v for v in x[3]]


class _Images:
    """Packed images (v, o), standing for the int v·2^o."""

    @staticmethod
    def mul(x, y):
        return x[0] * y[0], x[1] + y[1]

    @staticmethod
    def add(x, y):
        (a, i), (b, j) = x, y
        return ((a << (i - j)) + b, j) if i > j else (a + (b << (j - i)), i)

    @staticmethod
    def scale(c, x):
        return c * x[0], x[1]

    @staticmethod
    def power(x, e):
        return x[0] ** e, x[1] * e


def kron_exchange(nvars: int, factors: list, divisor: tuple, w: int, budget: int) -> tuple[dict, dict] | None:
    """The terms (q, s) of (N_b/β, (N_s − q·t)/β), or None where the caller's route must run.

    factors holds ((b, s), c) pairs of term dicts, the body and s_0 of X_j
    with c = b_1j ≠ 0; divisor is (β, t), with at least two terms in β.
    The route needs 2·box within budget.
    """
    beta, t = divisor
    parts = [part for (b, s), _ in factors for part in (b, s)] + [beta, t]
    if not all(parts[:-2:2]):
        return None
    norms = list(map(_Norms.of, parts))
    zero = [0] * nvars
    pairs = [((norms[2 * i], norms[2 * i + 1]), c) for i, (_, c) in enumerate(factors)]
    nb, ns = _numerator(pairs, w, (1, 1, zero, zero), _Norms)
    *_, beta_norm, t_norm = norms
    width = _slot(max(x[1] for x in (nb, ns, beta_norm, t_norm) if x) << HEADROOM, range(1, 9))
    if width is None:
        return None
    # Exponent bounds of q = N_b/β, of N_s − q·t and of s = (N_s − q·t)/β.
    qlo, qhi = list(map(sub, nb[2], beta_norm[2])), list(map(sub, nb[3], beta_norm[3]))
    snum = [x[2:] for x in (ns,) if x]
    if t_norm:
        snum.append((list(map(add, qlo, t_norm[2])), list(map(add, qhi, t_norm[3]))))
    if snum:
        slo = [min(col) - m for col, m in zip(zip(*(x[0] for x in snum)), beta_norm[2])]
        shi = [max(col) - m for col, m in zip(zip(*(x[1] for x in snum)), beta_norm[3])]
    if any(map(gt, qlo, qhi)) or snum and any(map(gt, slo, shi)):
        return None
    # N_b and N_s lie on the translate through the out-product's first
    # term, and q·t on N_s's, once the span holds these differences.
    bases = [next(iter(p), None) for p in parts]
    out, into = zero, zero
    for (_, c), base in zip(factors, bases[::2]):
        if c > 0:
            out = [x + c * e for x, e in zip(out, base)]
        else:
            into = [x - c * e for x, e in zip(into, base)]
    vectors = [list(map(sub, out, into))]
    vectors += [list(map(sub, bases[i + 1], bases[i])) for i in range(0, len(parts), 2) if bases[i + 1]]
    operands = [(p, x[2], x[3]) for p, x in zip(parts, norms) if p]
    boxes = [nb[2:], *snum]
    lo = [min(col) for col in zip(*(x[0] for x in boxes))]
    hi = [max(col) for col in zip(*(x[1] for x in boxes))]
    found = _hull(nvars, operands, vectors, lo, hi, min(BOX_CAP * sum(map(len, parts)), budget // 2))
    if found is None:
        return None
    hull, keyed = found
    images = iter([_pack(width, terms, *entry) for (terms, _, _), entry in zip(operands, keyed)])
    packed = [next(images) if p else None for p in parts]
    pairs = [((packed[2 * i], packed[2 * i + 1]), c) for i, (_, c) in enumerate(factors)]
    nbv, nsv = _numerator(pairs, w, (1, 0), _Images)
    (pv, po), tv = packed[-2:]
    qv, r = divmod(nbv[0], pv)
    if r:
        return None
    qv = (qv, nbv[1] - po)
    if tv:
        qt = _Images.scale(-1, _Images.mul(qv, tv))
        nsv = qt if nsv is None else _Images.add(nsv, qt)
    if nsv is not None:
        sv, r = divmod(nsv[0], pv)
        if r:
            return None
        sv = (sv, nsv[1] - po)
    point = list(map(sub, out, bases[-2]))
    q = _read(hull, width, qv, point, qlo, qhi)
    s = _read(hull, width, sv, point, slo, shi) if nsv is not None else {}
    if q is None or s is None:
        return None
    # max|N_b| and max|N_s| stay below half a slot by its choice.
    qn, sn = (max(map(abs, x.values()), default=0) for x in (q, s))
    bounds = [min(len(q), len(beta)) * qn * beta_norm[1], min(len(s), len(beta)) * sn * beta_norm[1]]
    if t:
        bounds.append((ns[1] if ns else 0) + min(len(q), len(t)) * qn * t_norm[1])
    return (q, s) if max(bounds) < 1 << (8 * width - 1) else None
