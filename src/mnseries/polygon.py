"""Newton polygons as nonincreasing piecewise-linear convex functions.

The polygon of a series is the nonincreasing lower convex hull of the
points (exponent, coefficient valuation).  It is +oo to the left of its
first node and constant beyond its last one, so its infimum Legendre
transform ``L(F)(s) = inf_x (F(x) + s*x)`` is attained at a node and is
exact rational arithmetic throughout.  The commuting-diagram checker
:func:`verify_npf` confirms that the Legendre transform of the polygon
reproduces the Gauss valuation and that the induced map is superadditive
and multiplicative on sample grids.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Callable, List, NamedTuple, Sequence, Tuple, Union

from .errors import ZeroSeriesError
from .series import Series, add, gauss_valuation, mul
from .values import INF, Value, _exact, as_gauss_param, format_value, is_finite

__all__ = [
    "PLConvexFn",
    "IndexPoints",
    "lower_hull",
    "newton_polygon",
    "legendre_eval",
    "tropical_min",
    "tropical_add",
    "sup_distance",
    "NPFReport",
    "verify_npf",
]

_COORDINATES = "polygon coordinates must be exact rationals"


@dataclass(frozen=True, slots=True)
class PLConvexFn:
    """Nonincreasing convex piecewise-linear function on [x_first, oo).

    ``nodes`` are the hull vertices with strictly increasing x.  The
    function is +oo on [0, x_first) and extends with constant value beyond
    the last node; consecutive slopes are nondecreasing and nonpositive.
    The polygon is held as its nodes' integer coordinates over one
    denominator per axis, in a field that takes no part in ``==``, ``hash``
    or ``repr``; :func:`legendre_eval` and the end points read them.  Nodes
    given to the constructor are checked on those integers (see
    :func:`_integer_coordinates`) and kept as given.  A hull's integers are
    convex by construction, and its nodes are built from them, as
    ``Fraction`` pairs, when they are first read.
    """

    nodes: Tuple[Tuple[Fraction, Fraction], ...]
    _scaled: _Scaled = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("a polygon needs at least one node")
        scaled = _integer_coordinates(self.nodes)
        xs, ys = scaled.xs, scaled.ys
        if any(x < 0 for x in xs):
            raise ValueError("node abscissae must be nonnegative")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("node abscissae must be strictly increasing")
        if any(b > a for a, b in zip(ys, ys[1:])):
            raise ValueError("node ordinates must be nonincreasing")
        # a falling slope, (y3-y2)/(x3-x2) < (y2-y1)/(x2-x1), cleared of the positive x gaps
        if any(
            (y3 - y2) * (x2 - x1) < (y2 - y1) * (x3 - x2)
            for x1, x2, x3, y1, y2, y3 in zip(xs, xs[1:], xs[2:], ys, ys[1:], ys[2:])
        ):
            raise ValueError("slopes must be nondecreasing (convexity)")
        object.__setattr__(self, "_scaled", scaled)

    @classmethod
    def _from_scaled(cls, scaled: _Scaled) -> "PLConvexFn":
        """The polygon on a hull sweep's integer coordinates, which hold by
        construction and are kept unchecked."""
        F = object.__new__(cls)
        object.__setattr__(F, "_scaled", scaled)
        return F

    def __getattr__(self, name):
        # reached only when a slot is unset: the nodes of a hull, before their first read
        if name != "nodes":
            raise AttributeError(name)
        xs, ys, dx, dy = self._scaled
        nodes = tuple((Fraction(X, dx), Fraction(Y, dy)) for X, Y in zip(xs, ys))
        object.__setattr__(self, "nodes", nodes)
        return nodes

    @property
    def x_first(self) -> Fraction:
        return Fraction(self._scaled.xs[0], self._scaled.dx)

    @property
    def x_last(self) -> Fraction:
        return Fraction(self._scaled.xs[-1], self._scaled.dx)

    @property
    def y_last(self) -> Fraction:
        return Fraction(self._scaled.ys[-1], self._scaled.dy)

    def value_at(self, x) -> Value:
        """Evaluate, bisecting for the segment; +oo left of the first node,
        constant beyond the last."""
        x = _exact(x, _COORDINATES)
        k = bisect_right(self.nodes, x, key=itemgetter(0))
        if k == 0:
            return INF
        if k == len(self.nodes):
            return self.y_last
        (x1, y1), (x2, y2) = self.nodes[k - 1], self.nodes[k]
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

    def translate(self, dx, dy) -> "PLConvexFn":
        dx, dy = _exact(dx, _COORDINATES), _exact(dy, _COORDINATES)
        return PLConvexFn(tuple((x + dx, y + dy) for x, y in self.nodes))


class _Scaled(NamedTuple):
    """A polygon's nodes on integer coordinates: node k is ``(xs[k]/dx, ys[k]/dy)``."""

    xs: Sequence[int]
    ys: Sequence[int]
    dx: int  # a common denominator of the abscissae
    dy: int  # a common denominator of the ordinates


def _integer_coordinates(points) -> _Scaled:
    """Rational coordinates scaled to integers by one common denominator per axis.

    Scaling an axis by a positive constant keeps every order, equality and
    cross-product sign, so hull, convexity and Legendre tests can run on the
    integers, with any common denominator.  Here it is the least one.
    A bool or a float coordinate is rejected, as an exponent is.
    """
    xr = [_exact(x, _COORDINATES).as_integer_ratio() for x, _ in points]
    yr = [_exact(y, _COORDINATES).as_integer_ratio() for _, y in points]
    dx = lcm(*(d for _, d in xr))
    dy = lcm(*(d for _, d in yr))
    return _Scaled([n * (dx // d) for n, d in xr], [n * (dy // d) for n, d in yr], dx, dy)


class IndexPoints:
    """The points ``(i, ys[i-1] / dy)`` at the indices i = 1..n, kept as integers.

    ``ys`` are ints, kept as a tuple, and ``dy`` is a positive common
    denominator: a decay profile's digits ``(i, q_i)`` on one p-power
    denominator, say.
    :func:`lower_hull` sweeps these integers as they are, so anything else
    (a bool or a float among them) raises ``ValueError`` here.
    """

    __slots__ = ("ys", "dy")

    def __init__(self, ys: Sequence[int], dy: int):
        if type(dy) is not int:
            raise ValueError(f"the denominator must be an int, got {dy!r}")
        if dy < 1:
            raise ValueError(f"the denominator must be positive, got {dy}")
        ys = tuple(ys)  # a copy: the caller's list may change after the check
        bad = [y for y in ys if type(y) is not int]
        if bad:
            raise ValueError(f"the ordinates must be ints, got {bad[0]!r}")
        self.ys, self.dy = ys, dy

    def __len__(self) -> int:
        return len(self.ys)


def lower_hull(points: Union[Sequence[Tuple[Fraction, Fraction]], IndexPoints]) -> PLConvexFn:
    """Nonincreasing lower convex hull of finite points with rational coords.

    One monotone-chain sweep (:func:`_hull_sweep`) on integer coordinates
    (see :func:`_integer_coordinates`), O(n log n) for the sort and O(n)
    after it.  :class:`IndexPoints` are swept on their own integers,
    already in order.  The sweep's nodes are convex and nonincreasing by
    construction, so only their sign is checked.
    """
    if not points:
        raise ValueError("need at least one point")
    if isinstance(points, IndexPoints):
        ordered, dx, dy = enumerate(points.ys, 1), 1, points.dy
    else:
        xs, ys, dx, dy = _integer_coordinates(points)
        ordered = sorted(zip(xs, ys))
    hx, hy = _hull_sweep(ordered)
    if hx[0] < 0:
        raise ValueError("node abscissae must be nonnegative")
    return PLConvexFn._from_scaled(_Scaled(hx, hy, dx, dy))


def _hull_sweep(points) -> Tuple[List[int], List[int]]:
    """Nodes' coordinates of the nonincreasing lower hull of integer points
    sorted by (x, y).  A point no lower than the last node is skipped; any
    other pops the nodes on or above its chord, so collinear interior
    points are dropped."""
    hx, hy = [], []
    for X, Y in points:
        if hy and Y >= hy[-1]:
            continue
        while len(hx) >= 2 and (hy[-1] - hy[-2]) * (X - hx[-2]) >= (Y - hy[-2]) * (hx[-1] - hx[-2]):
            del hx[-1], hy[-1]
        hx.append(X)
        hy.append(Y)
    return hx, hy


def newton_polygon(f: Series) -> PLConvexFn:
    """Polygon of a series: hull of (exponent, coefficient valuation).

    Terms whose coefficient valuation is infinite impose no constraint and
    are skipped; the series must have at least one finite-valuation term.
    """
    if f.is_zero:
        raise ZeroSeriesError("the zero series has no Newton polygon")
    pts = []
    for i, a in f.terms:
        v = f.domain._coeff_valuation(a)
        if is_finite(v):
            pts.append((i, v))
    if not pts:
        raise ZeroSeriesError("no term with finite coefficient valuation")
    return lower_hull(pts)


def legendre_eval(F: PLConvexFn, s) -> Fraction:
    """Infimum Legendre transform ``inf_x (F(x) + s*x)`` at the point s.

    The infimum of a convex piecewise-linear function plus a nonnegative
    linear term is attained at a hull node, so a node minimum is exact.
    Along the nodes, ``y + s*x`` moves by ``(x' - x) * (slope + s)`` from
    one node to the next; the slopes never fall, so once a step is >= 0
    every later one is, and the minimum sits at the first node whose next
    step is >= 0: a binary search, O(log n) per s.  It runs on the
    polygon's integer coordinates: with ``x = X/dx``, ``y = Y/dy`` and
    ``s = sn/sd``, a step is >= 0 when ``(Y' - Y)*dx*sd + sn*dy*(X' - X)``
    is.  The value at the node found, ``(Y*dx*sd + sn*dy*X) / (dy*dx*sd)``,
    is the one Fraction built.
    """
    s = as_gauss_param(s)
    xs, ys, dx, dy = F._scaled
    a, b = dx * s.denominator, s.numerator * dy
    k = bisect_left(
        range(len(xs) - 1),
        True,
        key=lambda j: (ys[j + 1] - ys[j]) * a + b * (xs[j + 1] - xs[j]) >= 0,
    )
    return Fraction(ys[k] * a + b * xs[k], dy * a)


def tropical_min(F: Callable[[Fraction], Value], G: Callable[[Fraction], Value]):
    """Pointwise minimum (tropical sum) of two value-level functions of s."""
    return lambda s: min(F(s), G(s))


def tropical_add(F: Callable[[Fraction], Value], G: Callable[[Fraction], Value]):
    """Pointwise sum (tropical product) of two value-level functions of s."""
    return lambda s: F(s) + G(s)


def sup_distance(F: PLConvexFn, G: PLConvexFn) -> Fraction:
    """Sup-distance of two polygons sharing the same starting abscissa."""
    if F.x_first != G.x_first:
        raise ValueError("polygons start at different abscissae")
    breakpoints = sorted({x for x, _ in F.nodes} | {x for x, _ in G.nodes})
    best = Fraction(0)
    for x in breakpoints:
        d = abs(F.value_at(x) - G.value_at(x))
        if d > best:
            best = d
    return best


@dataclass(frozen=True, slots=True)
class NPFReport:
    """Outcome of the commuting-diagram checks for one pair of series.

    Any failed check carries concrete witnesses (label, s, lhs, rhs) so a
    failure is reproducible from the report alone.
    """

    commutation: bool
    superadditive: bool
    multiplicative: bool
    witnesses: Tuple[Tuple[str, Fraction, str, str], ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.commutation and self.superadditive and self.multiplicative


def verify_npf(f: Series, g: Series, s_grid: Sequence) -> NPFReport:
    """Check diagram commutation, superadditivity and multiplicativity.

    For h in {f, g, f+g, fg} the Legendre transform of the polygon must
    reproduce the Gauss valuation at every grid point; the valuation map
    must satisfy ``min(v(f), v(g)) <= v(f+g)`` and ``v(f) + v(g) = v(fg)``.
    Each Gauss valuation is taken once per (h, s), in the commutation pass,
    and the other two checks read that table.  Failures are recorded as
    data, not raised; an inexact valuation on the grid raises ValueError.
    """
    grid = [as_gauss_param(s) for s in s_grid]
    h_sum = add(f, g)
    h_prod, _ = mul(f, g)
    labelled = [("f", f), ("g", g), ("f+g", h_sum), ("f*g", h_prod)]
    witnesses: List[Tuple[str, Fraction, str, str]] = []

    commutation = True
    table: List[List[Value]] = []  # Gauss valuations, one row per h, one column per s
    for label, h in labelled:
        F = None if h.is_zero else newton_polygon(h)
        row = []
        for s in grid:
            lhs = INF if F is None else legendre_eval(F, s)
            rhs, exact = gauss_valuation(h, s)
            if not exact:
                raise ValueError("inexact Gauss valuation on the sample grid")
            row.append(rhs)
            if lhs != rhs:
                commutation = False
                witnesses.append(
                    (f"commutation[{label}]", s, format_value(lhs), format_value(rhs))
                )
        table.append(row)
    v_f, v_g, v_sum, v_prod = table

    superadditive = True
    for s, a, b, hi in zip(grid, v_f, v_g, v_sum):
        lo = min(a, b)
        if not lo <= hi:
            superadditive = False
            witnesses.append(("superadditivity", s, format_value(lo), format_value(hi)))

    multiplicative = True
    for s, a, b, rhs in zip(grid, v_f, v_g, v_prod):
        lhs = a + b
        if lhs != rhs:
            multiplicative = False
            witnesses.append(("multiplicativity", s, format_value(lhs), format_value(rhs)))

    return NPFReport(commutation, superadditive, multiplicative, tuple(witnesses))
