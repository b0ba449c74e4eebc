"""Exact rational flows and the arrow-flow tracing algorithm.

A flow assigns a nonnegative rational to every arrow so that at each internal
vertex the two relation pairs carry equal sums.  Repeatedly applying the
Forward/Back maps to an arrow-flow (signed arrow, value) walks out a marked
route or band; the interval of start values producing the same marked trail
gives its coefficient in the unique positive bundle combination realizing the
flow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .quiver import DomainError, FringedQuiver, Record, Value
from .trails import (
    Band,
    MarkedTrail,
    Route,
    SignedArrow,
    Trail,
    countercurrent_compare,
    markings_at,
    trail_key,
)

Q = Fraction
ZERO = Q(0)


def parse_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"not an exact rational: {x!r}") from None
    raise DomainError(f"not an exact rational: {x!r} (floats and booleans are not accepted)")


def format_rational(x: Fraction) -> str:
    return _format_ratio(x.numerator, x.denominator)


def _format_ratio(n: int, d: int) -> str:
    """The rational n/d (d > 0) as text in lowest terms: `p/q`, or `p` if q is 1."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    try:
        return f"{n}/{d}" if d != 1 else str(n)
    except ValueError:  # over the interpreter's limit on digits of an int as text
        raise DomainError(f"a rational of {n.bit_length()} bits is too long to print") from None


# -- intervals ----------------------------------------------------------------

class QInterval(Value):
    lo: Fraction
    hi: Fraction
    lo_open: bool
    hi_open: bool

    def __init__(self, lo, hi, lo_open=False, hi_open=False):
        self.__dict__.update(lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open, _key=(lo, hi, lo_open, hi_open))

    def is_empty(self) -> bool:
        return self.lo > self.hi or (self.lo == self.hi and (self.lo_open or self.hi_open))

    @property
    def length(self) -> Fraction:
        return Q(0) if self.is_empty() else self.hi - self.lo


# -- flows ----------------------------------------------------------------------

class Flow:
    """A nonnegative rational flow on a fringed quiver."""

    def __init__(self, f: FringedQuiver, values: dict[str, Fraction] | None = None):
        self.quiver = f
        vals = dict.fromkeys(f.arrows, ZERO)
        for a, x in (values or {}).items():
            if a not in vals:
                raise DomainError(f"flow value on unknown arrow {a}")
            vals[a] = parse_rational(x)
        self.values = vals
        self._validate()

    def start(self, a: str) -> SignedArrow:
        """The signed arrow whose arrow-flows tile [0, F(a)]."""
        return (a, 1)

    @cached_property
    def markings(self) -> dict[str, list[tuple[MarkedTrail, int, tuple]]]:
        """Per arrow a, the positive-length tiles of [0, F(a)] at start(a),
        as (traced marking, position of the marking in its codes, tile), with
        each tile (lo, lo_open, hi, hi_open) on ints in units of 1/(2 * den),
        den the common denominator of the flow (`tile_markings`)."""
        return tile_markings(self)

    def integer_tiles(self) -> dict[str, list[tuple[MarkedTrail, tuple]]]:
        """`markings` with each marking built as a MarkedTrail."""
        return {k: [(mt.at(j), t) for mt, j, t in ms] for k, ms in self.markings.items()}

    def tiles(self) -> dict[str, list[tuple[MarkedTrail, QInterval]]]:
        """Per arrow a, the positive-length marked-trail tiles of [0, F(a)] at start(a)."""
        unit = self.int_values[0]
        return {k: [(mt, QInterval(Q(lo, unit), Q(hi, unit), lo_open, hi_open))
                    for mt, (lo, lo_open, hi, hi_open) in ts]
                for k, ts in self.integer_tiles().items()}

    @cached_property
    def int_values(self) -> tuple[int, list[int]]:
        """(unit, the flow times unit) with unit = 2 * den, den the common
        denominator of the flow: the values the tracer steps on, listed by
        arrow rank (signed-arrow code >> 1).  Tiles and the midpoints tiling
        probes are integers in 1/unit units."""
        vals = [self.values[a] for a, _e in self.quiver.calculus.universe.signed[::2]]
        unit = 2 * lcm(*(x.denominator for x in vals), 1)
        return unit, [x.numerator * (unit // x.denominator) for x in vals]

    def _validate(self) -> None:
        for a, x in self.values.items():
            if x.numerator < 0:
                raise DomainError(f"negative flow on arrow {a}")
        _unit, vals = self.int_values
        at = dict(zip([a for a, _e in self.quiver.calculus.universe.signed[::2]], vals))
        for v, ((a1, a2), (b1, b2)) in self.quiver.relation_pairs.items():
            if at[a1] + at[a2] != at[b1] + at[b2]:
                raise DomainError(f"conservation of flow fails at vertex {v}")

    def __getitem__(self, a: str) -> Fraction:
        return self.values[a]

    @property
    def strength(self) -> Fraction:
        return sum((self[a] for a in self.quiver.fringe_arrows()), Q(0)) / 2

    def plus(self, other: "Flow", scale: Fraction = Q(1)) -> "Flow":
        vals = {a: self[a] + scale * other[a] for a in self.values}
        return Flow(self.quiver, vals)


def trail_counts(f: FringedQuiver, t: Trail) -> dict[str, int]:
    """Arrow-use counts of a trail on every arrow, as ints: a unit flow for
    routes, a vortex for bands, so conserved at every relation pair."""
    signed = f.calculus.universe.signed
    counts = dict.fromkeys(f.arrows, 0)
    for c in f.calculus.codes(t):
        counts[signed[c][0]] += 1
    for v, ((a1, a2), (b1, b2)) in f.relation_pairs.items():
        if counts[a1] + counts[a2] != counts[b1] + counts[b2]:
            raise DomainError(f"conservation of flow fails at vertex {v}")
    return counts


def indicator(f: FringedQuiver, t: Trail) -> Flow:
    """trail_counts as a Flow."""
    return Flow(f, trail_counts(f, t))


def flow_values(data) -> dict[str, Fraction]:
    """The values of a flow read from JSON: an object of exact rationals."""
    if not isinstance(data, dict):
        raise DomainError("a flow must be a JSON object mapping arrow ids to rationals")
    return {a: parse_rational(x) for a, x in data.items()}


# -- Forward / Back -------------------------------------------------------------

def _signed_code(F: Flow, sa: SignedArrow) -> int:
    """The code of a signed arrow of F's quiver in its trail universe."""
    a, eps = sa
    if a not in F.quiver.arrows:
        raise DomainError(f"unknown arrow {a}")
    if eps not in (1, -1):
        raise DomainError(f"the sign of an arrow is 1 or -1, not {eps!r}")
    return F.quiver.calculus.universe.code[sa]


def _rescaled(F: Flow, c: Fraction) -> tuple[int, list[int], int]:
    """(unit, flow values, c), all as ints in 1/unit units: F.int_values,
    scaled up when c needs a finer unit.  The trace is the same at every scale."""
    unit, vals = F.int_values
    if unit % c.denominator:
        k = c.denominator // gcd(unit, c.denominator)
        unit, vals = unit * k, [v * k for v in vals]
    return unit, vals, c.numerator * (unit // c.denominator)


def _apply(F: Flow, sa: SignedArrow, c, table: int) -> tuple[SignedArrow, Fraction]:
    """One step of the tracer's `_branch` on the calculus's step table steps[table]."""
    c = parse_rational(c)
    code = _signed_code(F, sa)
    entry = F.quiver.calculus.steps[table][code]
    if entry is None:
        raise DomainError("boundary reached")
    unit, vals, value = _rescaled(F, c)
    nxt, val, _key, _upper = _branch(vals, entry, code, value)
    return F.quiver.calculus.universe.signed[nxt], Q(val, unit)


def forward(F: Flow, sa: SignedArrow, c: Fraction) -> tuple[SignedArrow, Fraction]:
    """Forward at the head of sa on the arrow-flow (sa, c)."""
    return _apply(F, sa, c, 0)


def backward(F: Flow, sa: SignedArrow, c: Fraction) -> tuple[SignedArrow, Fraction]:
    """Back at the tail of sa on the arrow-flow (sa, c)."""
    return _apply(F, sa, c, 1)


def trace(F: Flow, sa: SignedArrow, c: Fraction) -> MarkedTrail:
    """The marked route or band walked out by the arrow-flow (sa, c)."""
    mt, _interval, _length = trace_interval(F, sa, c)
    if mt is None:
        raise DomainError(
            "the walk at this boundary value never closes (isolated non-trail point)")
    return mt


# The tracer steps on the signed-arrow codes of the quiver's trail universe
# (a^e has code 2i + (e == -1), i the rank of a) and on the flow scaled to
# integers, listed by arrow rank.  Each branch shifts every value of a walk
# by one constant, so a branch bounds the offset d shared by all of them; a
# bound is one int key: d <= b as 2b and d < b as 2b - 1 (upper keys, met by
# min), d >= b as 2b and d > b as 2b + 1 (lower keys, met by max).

def _branch(vals: list[int], entry, c: int, value: int):
    """One Forward (or Back) application on integers, from the code c at
    `value`, with the table entry of c.

    Returns (next code, next value, key, upper): the branch taken holds for
    the offsets d of `value` with d <= b (upper, key 2b), d < b (upper, 2b - 1),
    d > b (lower, 2b + 1) or d >= b (lower, 2b).
    """
    up, low, ia, ib = entry
    b = vals[ia] - value
    if c & 1 == 0:
        if b >= 0:
            return up, value, 2 * b, True
        return low, -b, 2 * b + 1, False
    fb = vals[ib]
    if b > fb:
        return up, value + fb, 2 * (b - fb) - 1, True
    return low, fb - b, 2 * (b - fb), False


def _sweep(vals: list[int], table, c0: int, start: int):
    """One direction of the trace of the code c0 at the value start.

    Returns (codes walked after c0, kind, lower key, upper key) where kind is
    "route" (left through the fringe), "band" (back at (c0, start)) or "rho"
    (revisited another state), and the keys bound the offsets of start
    taking the same branches.  Values stay integers in [0, max F], so there
    are finitely many states value * |codes| + code, and the visited set ends
    every walk; no step cap is needed.
    """
    n = len(table)
    low_key, up_key = -2 * start, 2 * (vals[c0 >> 1] - start)
    walk: list[int] = []
    c, value = c0, start
    first = start * n + c0
    visited = {first}
    while True:
        entry = table[c]
        if entry is None:
            return walk, "route", low_key, up_key
        c, value, key, upper = _branch(vals, entry, c, value)
        if upper:
            if key < up_key:
                up_key = key
        elif key > low_key:
            low_key = key
        state = value * n + c
        if state == first:
            return walk, "band", low_key, up_key
        if state in visited:
            return walk, "rho", low_key, up_key
        visited.add(state)
        walk.append(c)


def _trace_codes(vals: list[int], tables, c0: int, start: int):
    """Trace (c0, start) forward, then back.  Returns (code walk, index of
    c0, kind, lower key, upper key); kind is None when the walk never closes."""
    fwd, kind, low_key, up_key = _sweep(vals, tables[0], c0, start)
    if kind == "band":
        return (c0, *fwd), 0, "band", low_key, up_key
    if kind == "route":
        bwd, kind, back_low, back_up = _sweep(vals, tables[1], c0, start)
        low_key, up_key = max(low_key, back_low), min(up_key, back_up)
        if kind == "route":
            return (*reversed(bwd), c0, *fwd), len(bwd), "route", low_key, up_key
    # An eventually-periodic walk whose start is off the cycle, or a Back walk
    # re-entering a cycle (possibly through the start itself, when Back fails
    # to invert a boundary branch): this happens only at isolated values.
    if (up_key + 1) >> 1 > low_key >> 1:
        raise AssertionError("positive-measure non-closing walk in a rational flow")
    return None, 0, None, low_key, up_key


def trace_interval(F: Flow, sa: SignedArrow, c: Fraction):
    """Trace the arrow-flow (sa, c), pulling branch constraints back to the start.

    Returns (marked trail, interval of start values giving this marked trail,
    interval length); the marked trail holds the code walk traced (for a
    band, from sa) and is None at an isolated value whose walk never closes.
    Tracing runs on the flow scaled to integers: each Forward/Back branch
    shifts the value by a constant, so every branch constraint pulls back to
    exact bounds on the start value.
    """
    c = parse_rational(c)
    code = _signed_code(F, sa)
    if not (0 <= c <= F[sa[0]]):
        raise DomainError(f"value {c} outside [0, F({sa[0]})={F[sa[0]]}]")
    unit, vals, start = _rescaled(F, c)
    calc = F.quiver.calculus
    walk, index, kind, low_key, up_key = _trace_codes(vals, calc.steps, code, start)
    low_key, up_key = low_key + 2 * start, up_key + 2 * start     # keys on the start value
    interval = QInterval(Q(low_key >> 1, unit), Q((up_key + 1) >> 1, unit),
                         low_key & 1 == 1, up_key & 1 == 1)
    if kind is None:
        return None, interval, Q(0)
    trail = calc.universe.band(walk) if kind == "band" else calc.universe.route(walk)
    return MarkedTrail(trail, walk, index), interval, interval.length


# -- tiling: one trace per route, one per band orientation --------------------------

def tile_markings(F: Flow) -> dict[str, list[tuple[MarkedTrail, int, tuple]]]:
    """Per arrow a, the positive-length marked-trail tiles of [0, F(a)]
    traced from the signed arrow F.start(a), sorted along the interval, as
    (traced marking mt, position j of the marking, tile): the marking is
    mt.at(j).  Each tile is (lo, lo_open, hi, hi_open) on ints in units of
    1/(2 * den), den the flow's common denominator.

    Arrows are tiled in sorted order.  Each gap of [0, F(a)] left by the
    tiles known so far is probed with `trace_interval` at the odd point
    (lo + hi) // 2 | 1.  Along a traced walk every value is the start plus an
    even number (each branch adds or subtracts a flow value, even in 1/unit
    units), so every branch bound, and with it every tile end, is even; the
    gap's ends are tile ends, 0 or F(a), so the probe lies strictly inside
    the gap, off every tile end, and finds a positive-length trail.
    Single-point gaps are skipped, as isolated points carry zero length.
    Each probe yields, from one re-walk (`_marking_tiles`), the tiles of
    every marking of that trail at a start arrow: for a route in both
    orientations, so each route is traced once; for a band in the
    orientation traced, so each band orientation is traced once.  Every tile
    found is filed under its arrow and covers its stretch, which is never
    probed again.
    """
    unit, half = F.int_values
    calc = F.quiver.calculus
    tables, universe = calc.steps, calc.universe
    starts = {a: F.start(a) for a in sorted(F.values)}
    start_codes = {universe.code[sa] for sa in starts.values()}
    far = max(half, default=0) + 1
    found: dict[str, list] = {k: [] for k in starts}
    covered: dict[str, list[tuple[int, int]]] = {k: [] for k in starts}
    for k, sa in starts.items():
        cap = half[universe.code[sa] >> 1]
        while (gap := _first_gap(covered[k], cap)) is not None:
            mid = (gap[0] + gap[1]) // 2 | 1
            mt, interval, length = trace_interval(F, sa, Q(mid, unit))
            if length == 0:
                raise AssertionError("a probe off every tile end found no tile")
            lo, hi = interval.lo, interval.hi      # their denominators divide unit
            tile = (lo.numerator * (unit // lo.denominator), interval.lo_open,
                    hi.numerator * (unit // hi.denominator), interval.hi_open)
            band = isinstance(mt.trail, Band)
            inverse = None if band else mt.inverse()
            for mirrored, j, t in _marking_tiles(half, tables, mt.codes, mt.index, band,
                                                 tile, far, start_codes):
                if not mirrored and j == mt.index and t != tile:
                    raise AssertionError("re-walk disagrees with the traced tile")
                traced = inverse if mirrored else mt
                a = universe.signed[traced.codes[j]][0]
                found[a].append((traced, j, t))
                covered[a].append((t[0], t[2]))
    return {k: sorted(ts, key=lambda x: x[2][:2]) for k, ts in found.items()}


def _first_gap(covered: list[tuple[int, int]], cap: int):
    """The first positive-length stretch of [0, cap] outside the covered spans."""
    at = 0
    for lo, hi in sorted(covered):
        if lo > at:
            return at, lo
        at = max(at, hi)
    return (at, cap) if cap > at else None


def _marking_tiles(vals: list[int], tables, codes: tuple[int, ...], index: int, band: bool,
                   tile, far: int, starts: set[int]):
    """The interval of every marking at a start code of one traced trail,
    and for a route of its inverse too, from a single pass.

    `codes` is the traced code walk and `tile` the interval of its marking at
    `index`.  The values along the walk are taken at the tile's midpoint,
    where no branch is tight, and the walk is re-walked with Forward and with
    Back there.  Every branch bounds the offset shared by all values; the
    marking at j keeps its trail exactly for the offsets inside its cap
    [0, F(walk[j])], the Forward bounds after j and the Back bounds up to j
    (for a band, all Forward bounds of the cycle): suffix and prefix min/max
    of the keys.  `far` exceeds every value, so the keys +-2 * far bound
    nothing.

    Yields (mirrored, j, (lo, lo_open, hi, hi_open)) for the positive-length
    markings: (False, j, tile) for the marking of the walk at j when codes[j]
    is in `starts`; for a route, (True, n - 1 - j, mirrored tile) for the
    marking of the inverse walk at n - 1 - j when codes[j] ^ 1 is.  With cap
    the flow on the arrow, the tile (lo, lo_open, hi, hi_open) of p at j
    mirrors to (cap - hi, hi_open, cap - lo, lo_open) for p^-1 at n - 1 - j:
    - the tile of p at j is its cap cut by the Forward bounds after j and
      the Back bounds up to j;
    - Back along p is Forward along p^-1 with each value x on an arrow a
      read as F(a) - x, and the cap [0, F(a)] mirrors onto itself.  So each
      bound on p's offsets is a bound on p^-1's negated offsets: it keeps its
      closedness, and upper and lower bounds swap.  The Forward bounds after
      n - 1 - j on p^-1 are p's Back bounds up to j, mirrored, and its Back
      bounds up to n - 1 - j are p's Forward bounds after j, mirrored, so
      p^-1's tile at n - 1 - j is the mirror image;
    - no marking is yielded twice: a marking of p^-1 is one of p only if p
      is its own inverse walk, and then its middle would be a signed arrow
      followed by its inverse (or, at odd length, a signed arrow equal to its
      inverse), an immediate backtrack that no route has.
    A band's tile takes the Forward bounds of the whole cycle only.  Their
    mirror images are Back bounds along B^-1, not its Forward bounds, and
    the two can differ at the ends of a tile, so a band's inverse is traced
    itself.
    """
    fwd_table, bwd_table = tables
    n = len(codes)
    values: list[int | None] = [None] * n
    values[index] = (tile[0] + tile[2]) // 2

    def rewalk(table, ks, step: int, lows: list[int], ups: list[int]) -> None:
        for k in ks:
            j = (k + step) % n
            nxt, val, key, upper = _branch(vals, table[codes[k]], codes[k], values[k])
            if values[j] is None:
                values[j] = val
            if nxt != codes[j] or val != values[j]:
                raise AssertionError("re-walk leaves the traced trail")
            (ups if upper else lows)[k] = key

    fwd_lows, fwd_ups = [-2 * far] * n, [2 * far] * n
    if band:
        rewalk(fwd_table, range(n), 1, fwd_lows, fwd_ups)
        lows, ups = [max(fwd_lows)] * n, [min(fwd_ups)] * n
    else:
        back_lows, back_ups = fwd_lows[:], fwd_ups[:]
        rewalk(fwd_table, range(index, n - 1), 1, fwd_lows, fwd_ups)
        rewalk(bwd_table, range(index, 0, -1), -1, back_lows, back_ups)
        rewalk(fwd_table, range(index), 1, fwd_lows, fwd_ups)
        rewalk(bwd_table, range(index + 1, n), -1, back_lows, back_ups)
        lows, ups = fwd_lows, fwd_ups
        low, up = -2 * far, 2 * far
        for j in range(n - 1, -1, -1):          # suffix meets of the Forward keys
            if lows[j] > low:
                low = lows[j]
            if ups[j] < up:
                up = ups[j]
            lows[j], ups[j] = low, up
        low, up = -2 * far, 2 * far
        for j in range(n):                      # met with prefix meets of the Back keys
            if back_lows[j] > low:
                low = back_lows[j]
            if back_ups[j] < up:
                up = back_ups[j]
            if low > lows[j]:
                lows[j] = low
            if up < ups[j]:
                ups[j] = up
    for j, c in enumerate(codes):
        mirrored = c not in starts
        if mirrored and (band or c ^ 1 not in starts):
            continue
        cap = vals[c >> 1]
        v2 = 2 * values[j]
        low_key, up_key = lows[j] + v2, ups[j] + v2      # keys on the value at j
        if low_key < 0:
            low_key = 0
        if up_key > 2 * cap:
            up_key = 2 * cap
        lo, hi = low_key >> 1, (up_key + 1) >> 1
        if hi > lo:
            lo_open, hi_open = low_key & 1 == 1, up_key & 1 == 1
            if mirrored:
                yield True, n - 1 - j, (cap - hi, hi_open, cap - lo, lo_open)
            else:
                yield False, j, (lo, lo_open, hi, hi_open)


# -- bundle decomposition ---------------------------------------------------------

class BundleCombination(Record):
    coefficients: dict[Trail, Fraction]

    def __init__(self, coefficients):
        self.coefficients = coefficients

    @property
    def routes(self) -> dict[Route, Fraction]:
        return {t: x for t, x in self.coefficients.items() if isinstance(t, Route)}

    @property
    def bands(self) -> dict[Band, Fraction]:
        return {t: x for t, x in self.coefficients.items() if isinstance(t, Band)}

    @property
    def strength(self) -> Fraction:
        return sum(self.routes.values(), Q(0))

    def as_json(self):
        return {"routes": _terms(self.routes), "bands": _terms(self.bands)}


def _terms(coeffs: dict[Trail, Fraction]) -> list[dict]:
    """The trails and coefficients of a combination as JSON, in trail_key order."""
    return [{"trail": str(t), "coeff": format_rational(coeffs[t])}
            for t in sorted(coeffs, key=trail_key)]


def trail_coefficients(F: Flow) -> dict[Trail, Fraction]:
    """Each trail's coefficient: the common length of the tiles of its
    markings, checked to add up to the flow."""
    unit, vals = F.int_values
    lengths: dict[Trail, int] = {}            # in units of 1/unit, like the tiles
    for arrow_markings in F.markings.values():
        for mt, _j, (lo, _lo_open, hi, _hi_open) in arrow_markings:
            prev = lengths.setdefault(mt.trail, hi - lo)
            if prev != hi - lo:
                raise AssertionError(f"inconsistent coefficient for {mt.trail}: "
                                     f"{Q(prev, unit)} vs {Q(hi - lo, unit)}")
    _verify_combination(vals, lengths)
    return {t: Q(n, unit) for t, n in lengths.items()}


def decompose_bundle(F: Flow) -> BundleCombination:
    """The unique positive bundle combination realizing a rational flow."""
    return BundleCombination(trail_coefficients(F))


def _verify_combination(values: list[int], lengths: dict[Trail, int]) -> None:
    """Assert that the trails, with these coefficients, add up to the flow
    `values` (by arrow rank, both in one integer unit)."""
    total = [0] * len(values)
    for t, n in lengths.items():
        for c in t.codes:
            total[c >> 1] += n
    if total != values:
        raise AssertionError("bundle combination does not reconstruct the flow")


# -- vortex decomposition ----------------------------------------------------------

class VortexDecomposition(Record):
    routes: dict[Route, Fraction]   # the canonical clique combination K_F^+
    vortex: dict[Band, Fraction]    # the canonical vortex as a band combination

    def __init__(self, routes, vortex):
        self.routes, self.vortex = routes, vortex

    def as_json(self):
        return {"routes": _terms(self.routes), "vortex": _terms(self.vortex)}


def decompose_vortex(F: Flow) -> VortexDecomposition:
    """Split F into its canonical clique combination plus the canonical vortex.

    For rational flows the bundle and vortex decompositions coincide, so the
    band part of the bundle combination already expresses the canonical vortex.
    """
    combo = decompose_bundle(F)
    return VortexDecomposition(routes=combo.routes, vortex=combo.bands)


# -- blank spaces and splitting strength ---------------------------------------------

class BlankSpace(Record):
    arrow: str
    interval: QInterval
    below: Route | None   # None = the sentinel {0}
    above: Route | None   # None = the sentinel {F(arrow)}

    def __init__(self, arrow, interval, below, above):
        self.arrow, self.interval, self.below, self.above = arrow, interval, below, above

    @property
    def proper(self) -> bool:
        return self.interval.lo < self.interval.hi


def _blank_gaps(F: Flow, a: str):
    """(below, above, gap) per blank space of arrow a: the routes of
    consecutive route tiles at a (None for the sentinels {0} and {F(a)}) and
    the gap (lo, lo_open, hi, hi_open) between them, on ints in the tiles'
    unit (lo <= hi)."""
    _unit, vals = F.int_values
    cap = vals[F.quiver.calculus.universe.code[(a, 1)] >> 1]
    below, at, at_open = None, 0, False
    for mt, _j, (lo, lo_open, hi, hi_open) in F.markings[a]:
        if isinstance(mt.trail, Route):
            yield below, mt.trail, (at, not at_open, lo, not lo_open)
            below, at, at_open = mt.trail, hi, hi_open
    yield below, None, (at, not at_open, cap, True)


def blank_spaces(F: Flow) -> list[BlankSpace]:
    """Gaps between consecutive positive route intervals, per arrow at sign +1.

    Sentinels {0} and {F(a)} bound the outermost gaps, so every arrow carries
    one more blank space than it has marked routes in K_F^+.
    """
    unit = F.int_values[0]
    return [BlankSpace(a, QInterval(Q(lo, unit), Q(hi, unit), lo_open, hi_open), below, above)
            for a in sorted(F.quiver.arrows)
            for below, above, (lo, lo_open, hi, hi_open) in _blank_gaps(F, a)]


def blank_rows(F: Flow) -> list[dict]:
    """The JSON rows of `blank_spaces`, formatted from the integer gaps."""
    unit = F.int_values[0]
    return [{"arrow": a,
             "interval": {"lo": _format_ratio(lo, unit), "hi": _format_ratio(hi, unit),
                          "lo_open": lo_open, "hi_open": hi_open},
             "below": None if below is None else str(below),
             "above": None if above is None else str(above),
             "proper": lo < hi}
            for a in sorted(F.quiver.arrows)
            for below, above, (lo, lo_open, hi, hi_open) in _blank_gaps(F, a)]


def splitting_strength(F: Flow, b: Band) -> Fraction:
    """min |J| / N_{B,J} over the blank spaces J split by some marking of B."""
    calc = F.quiver.calculus
    b = calc.universe.band(calc.codes(b))
    route_part = {mt.trail for ms in F.markings.values() for mt, _j, _t in ms
                  if isinstance(mt.trail, Route)}
    for p in sorted(route_part, key=trail_key):
        if not calc.compatible(b, p):
            raise DomainError(f"band is incompatible with the route {p} of K_F^+")

    unit = F.int_values[0]
    best: Fraction | None = None
    for a in sorted({x for x, _e in b.walk}):
        lengths = [hi - lo for _below, _above, (lo, _lo_open, hi, _hi_open) in _blank_gaps(F, a)]
        routes = [mt.at(j) for mt, j, _t in F.markings[a] if isinstance(mt.trail, Route)]
        # count, per blank-space index, the markings of B splitting it
        counts = [0] * len(lengths)
        for marking in markings_at(b, a, 1):
            below = 0
            for mt in routes:
                if countercurrent_compare(F.quiver, mt, marking) < 0:
                    below += 1
            counts[below] += 1
        for j, n in enumerate(counts):
            if n > 0:
                ratio = Q(lengths[j], n * unit)
                if best is None or ratio < best:
                    best = ratio
    return best
