"""Newton polygons, Legendre transforms, and the commuting diagram."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnseries import (
    INF,
    IndexPoints,
    Mode,
    PadicDigits,
    PerfectPoly,
    PLConvexFn,
    ProfileElement,
    Series,
    ZeroSeriesError,
    add,
    gauss_valuation,
    legendre_eval,
    lower_hull,
    materialize,
    mul,
    newton_polygon,
    sup_distance,
    tropical_add,
    tropical_min,
    verify_npf,
)
from mnseries.polygon import _legendre_node
from mnseries.verify import _rand_series

P3 = PerfectPoly(3)


def hull_by_exhaustion(points, grid_den=8):
    """Independent oracle: the maximal nonincreasing convex minorant, evaluated
    pointwise as the min over all chords and single points dominating x."""
    pts = sorted(points)

    def value(x):
        best = None
        for i, (x1, y1) in enumerate(pts):
            if x1 <= x:
                cand = min(y for xx, y in pts if xx <= x)  # nonincreasing cap
                best = cand if best is None else min(best, cand)
            for x2, y2 in pts[i + 1 :]:
                if x1 <= x <= x2 and x1 != x2:
                    chord = y1 + (y2 - y1) * (x - x1) / (x2 - x1)
                    # chords of envelope points bound the convex minorant
                    lo1 = min(y for xx, y in pts if xx <= x1)
                    lo2 = min(y for xx, y in pts if xx <= x2)
                    chord = lo1 + (lo2 - lo1) * (x - x1) / (x2 - x1)
                    best = chord if best is None else min(best, chord)
        return best

    return value


def test_hull_collinear_middle_point():
    pts = [(Q(0), Q(2)), (Q(1), Q(1)), (Q(2), Q(0))]
    assert lower_hull(pts).nodes == ((Q(0), Q(2)), (Q(2), Q(0)))


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, True, False])
def test_bool_and_float_polygon_coordinates_are_rejected(bad):
    # lower_hull([(0.5, 1.0), (1, True)]).nodes used to be ((0.5, 1.0),)
    F = PLConvexFn(((Q(0), Q(2)), (Q(2), Q(0))))
    for make in (lower_hull, PLConvexFn):
        for pts in (((bad, Q(1)),), ((Q(0), Q(2)), (Q(3), bad))):
            with pytest.raises(ValueError, match="exact rational"):
                make(pts)
    for call in (lambda: F.value_at(bad), lambda: F.translate(bad, 0), lambda: F.translate(0, bad)):
        with pytest.raises(ValueError, match="exact rational"):
            call()
    # the exact spellings of the same values stay accepted, and keep their types
    assert lower_hull([(0, 2), (2, 0)]).nodes == ((0, 2), (2, 0))
    assert F.translate(1, Q(1, 2)).value_at("2") == Q(3, 2)


def test_hull_increasing_values_flatten():
    pts = [(Q(0), Q(1)), (Q(1), Q(2))]
    F = lower_hull(pts)
    assert F.nodes == ((Q(0), Q(1)),)
    assert F.value_at(Q(5)) == 1


def test_hull_matches_exhaustive_oracle():
    rng = random.Random(21)
    for _ in range(60):
        pts = sorted(
            {
                (Q(rng.randrange(0, 9)), Q(rng.randrange(0, 9), rng.choice([1, 2])))
                for _ in range(rng.randrange(2, 6))
            }
        )
        xs = {x for x, _ in pts}
        if len(xs) != len(pts):
            pts = [(x, min(y for xx, y in pts if xx == x)) for x in sorted(xs)]
        F = lower_hull(pts)
        oracle = hull_by_exhaustion(pts)
        for x, _ in pts:
            assert F.value_at(x) == oracle(x)


def test_polygon_single_term():
    f = Series.make(P3, Mode.FORMAL, [(Q(1), P3.x_power(1))])
    assert newton_polygon(f).nodes == ((Q(1), Q(1)),)


def test_polygon_of_spec_quadratic():
    f = Series.make(
        P3,
        Mode.FORMAL,
        [(Q(0), P3.x_power(2)), (Q(1), P3.x_power(1)), (Q(2), P3.one())],
    )
    assert newton_polygon(f).nodes == ((Q(0), Q(2)), (Q(2), Q(0)))


def test_polygon_zero_series_raises():
    with pytest.raises(ZeroSeriesError):
        newton_polygon(Series.make(P3, Mode.FORMAL, []))


def test_plconvexfn_validation():
    with pytest.raises(ValueError):
        PLConvexFn(((Q(0), Q(0)), (Q(1), Q(1))))  # increasing
    with pytest.raises(ValueError):
        PLConvexFn(((Q(0), Q(3)), (Q(1), Q(2)), (Q(2), Q(0))))  # concave corner
    PLConvexFn(((Q(0), Q(3)), (Q(1), Q(1)), (Q(2), Q(1, 2))))


def test_legendre_single_node():
    F = PLConvexFn(((Q(1), Q(2)),))
    assert legendre_eval(F, Q(3, 2)) == Q(7, 2)  # 2 + s


def test_legendre_node_minimum():
    F = PLConvexFn(((Q(0), Q(2)), (Q(2), Q(0))))
    for s in (Q(1, 2), Q(1), Q(2), Q(5)):
        assert legendre_eval(F, s) == min(Q(2), 2 * s)


def test_legendre_constant():
    F = PLConvexFn(((Q(0), Q(5, 2)),))
    assert legendre_eval(F, Q(9)) == Q(5, 2)


def test_tropical_combinators():
    L1 = lambda s: 2 + s
    L2 = lambda s: 2 * s
    assert tropical_min(L1, L2)(Q(1)) == 2
    assert tropical_add(L1, L2)(Q(1)) == 5
    assert tropical_min(L1, L1)(Q(7)) == L1(Q(7))


def test_sup_distance():
    F = PLConvexFn(((Q(0), Q(2)), (Q(2), Q(0))))
    G = PLConvexFn(((Q(0), Q(5, 2)), (Q(2), Q(1, 2))))
    assert sup_distance(F, G) == Q(1, 2)
    with pytest.raises(ValueError):
        sup_distance(F, PLConvexFn(((Q(1), Q(1)),)))


def test_commutation_on_random_series():
    rng = random.Random(13)
    doms = [(PerfectPoly(p, "p-power"), Mode.FORMAL) for p in (2, 3, 5)]
    doms += [(PadicDigits(p), Mode.ARITHMETIC) for p in (2, 3)]
    for _ in range(150):
        dom, mode = rng.choice(doms)
        f = _rand_series(rng, dom, mode, max_terms=4, nonzero=True)
        poly = newton_polygon(f)
        for s in (Q(1, 3), Q(1, 2), Q(1), Q(2), Q(7, 2)):
            assert legendre_eval(poly, s) == gauss_valuation(f, s)[0]


def test_verify_npf_passes_on_spec_pair():
    f = Series.make(P3, Mode.FORMAL, [(Q(0), P3.x_power(1)), (Q(1), P3.one())])
    g = Series.make(P3, Mode.FORMAL, [(Q(0), P3.x_power(1)), (Q(1), P3.from_int(2))])
    report = verify_npf(f, g, [Q(1, 2), Q(1), Q(2)])
    assert report.ok and not report.witnesses


def test_verify_npf_units_trivial():
    one = Series.make(P3, Mode.FORMAL, [(Q(0), P3.one())])
    report = verify_npf(one, one, [Q(1, 2), Q(1), Q(2)])
    assert report.ok
    assert gauss_valuation(mul(one, one)[0], Q(1))[0] == 0


def test_verify_npf_cancellation_case():
    f = Series.make(P3, Mode.FORMAL, [(Q(0), P3.x_power(1)), (Q(1), P3.one())])
    g = Series.make(P3, Mode.FORMAL, [(Q(0), P3.x_power(1, 2)), (Q(1), P3.from_int(2))])
    assert add(f, g).is_zero
    report = verify_npf(f, g, [Q(1, 2), Q(1), Q(2)])
    assert report.superadditive and report.ok


def _npf_pair():
    f = Series.make(P3, Mode.FORMAL, [(Q(0), P3.x_power(1)), (Q(1), P3.one())])
    g = Series.make(P3, Mode.FORMAL, [(Q(1, 2), P3.x_power(2)), (Q(2), P3.from_int(2))])
    return f, g


def test_verify_npf_values_each_series_once_per_grid_point(monkeypatch):
    import mnseries.polygon as polygon_module

    calls = []
    original = polygon_module.gauss_valuation

    def counted(h, s):
        calls.append((h, s))
        return original(h, s)

    monkeypatch.setattr(polygon_module, "gauss_valuation", counted)
    f, g = _npf_pair()
    grid = [Q(1, 2), Q(1), Q(2), Q(3)]
    assert verify_npf(f, g, grid).ok
    assert len(calls) == 4 * len(grid)
    assert len(set(calls)) == len(calls)


def test_verify_npf_witness_order(monkeypatch):
    import mnseries.polygon as polygon_module

    f, g = _npf_pair()
    prod = mul(f, g)[0]
    original = polygon_module.gauss_valuation

    def off_by_one_on_product(h, s):
        v, exact = original(h, s)
        return (v + 1 if h == prod else v), exact

    monkeypatch.setattr(polygon_module, "gauss_valuation", off_by_one_on_product)
    grid = [Q(1), Q(2)]
    report = verify_npf(f, g, grid)
    assert (report.commutation, report.superadditive, report.multiplicative) == (
        False,
        True,
        False,
    )
    labels = [(label, s) for label, s, _, _ in report.witnesses]
    assert labels == [("commutation[f*g]", Q(1)), ("commutation[f*g]", Q(2))] + [
        ("multiplicativity", Q(1)),
        ("multiplicativity", Q(2)),
    ]
    lhs, rhs = report.witnesses[-1][2:]
    assert Q(lhs) + 1 == Q(rhs)


def test_verify_npf_rejects_inexact_grid_valuation():
    f, g = _npf_pair()
    with pytest.raises(ValueError, match="inexact Gauss valuation"):
        verify_npf(f.with_prec(Q(1, 2)), g, [Q(1)])


# --- hypothesis: hull is a maximal nonincreasing convex minorant -----------

_pt = st.tuples(
    st.fractions(min_value=0, max_value=10, max_denominator=3),
    st.fractions(min_value=0, max_value=10, max_denominator=3),
)


@given(st.lists(_pt, min_size=1, max_size=7))
@settings(max_examples=200, deadline=None)
def test_hull_below_points_convex_nonincreasing(raw_pts):
    dedup = {}
    for x, y in raw_pts:
        dedup[x] = min(y, dedup.get(x, y))
    pts = sorted(dedup.items())
    F = lower_hull(pts)
    for x, y in pts:
        assert F.value_at(x) <= y
    nodes = F.nodes
    assert all(b[1] <= a[1] for a, b in zip(nodes, nodes[1:]))
    # every node is pinned to the running-minimum envelope of the points
    for x, y in nodes:
        env = min(py for px, py in pts if px <= x)
        assert y <= env


@given(
    st.lists(_pt, min_size=1, max_size=6),
    st.fractions(min_value=0, max_value=2, max_denominator=4),
)
@settings(max_examples=150, deadline=None)
def test_hull_translation_equivariance(raw_pts, dy):
    dedup = {}
    for x, y in raw_pts:
        dedup[x] = min(y, dedup.get(x, y))
    pts = sorted(dedup.items())
    F = lower_hull(pts)
    G = lower_hull([(x, y + dy) for x, y in pts])
    assert G.nodes == tuple((x, y + dy) for x, y in F.nodes)


# --- integer-coordinate hull and binary-search Legendre against the scans --


def reference_lower_hull(points):
    """The Fraction-coordinate hull the integer version replaced, kept as the reference."""
    pts = sorted(points)
    enveloped = []
    running = None
    for x, y in pts:
        running = y if running is None else min(running, y)
        if enveloped and enveloped[-1][0] == x:
            enveloped[-1] = (x, running)
        else:
            enveloped.append((x, running))
    hull = []
    for pt in enveloped:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    while len(hull) >= 2 and hull[-1][1] == hull[-2][1]:
        hull.pop()
    return tuple(hull)


def reference_legendre_eval(F, s):
    """Minimum of y + s*x over every node: the scan the binary search replaced."""
    return min(y + Q(s) * x for x, y in F.nodes)


def _seeded_point_sets():
    rng = random.Random(606)
    dens = (1, 2, 3, 4, 8, 9, 1024)
    for _ in range(150):  # mixed-denominator Fractions, with duplicate x
        n = rng.randrange(1, 12)
        xs = [Q(rng.randrange(0, 40), rng.choice(dens)) for _ in range(n)]
        xs += rng.sample(xs, rng.randrange(0, n + 1))
        yield [(x, Q(rng.randrange(0, 60), rng.choice(dens))) for x in xs]
    for _ in range(50):  # int coordinates
        yield [(rng.randrange(0, 20), rng.randrange(0, 20)) for _ in range(rng.randrange(1, 10))]
    for _ in range(50):  # collinear runs joined at corners, then a constant tail
        pts, x, y = [], Q(rng.randrange(0, 3)), Q(40)
        for _ in range(rng.randrange(1, 4)):
            slope = -Q(rng.randrange(1, 9), rng.choice(dens))
            for _ in range(rng.randrange(2, 5)):
                pts.append((x, y))
                dx = Q(rng.randrange(1, 4), rng.choice((1, 2)))
                x, y = x + dx, y + slope * dx
        pts += [(x + j, y) for j in range(rng.randrange(0, 4))]
        rng.shuffle(pts)
        yield pts
    yield [(Q(3, 2), Q(7, 3))]  # a single node
    yield [(Q(1), Q(2)), (Q(1), Q(2)), (Q(1), Q(5))]  # one point, repeated
    # equal values of both types at the same abscissae
    yield [(Q(1), Q(2)), (1, 2), (Q(3), 1), (3, Q(1)), (Q(5), 0)]


def test_integer_hull_matches_fraction_reference():
    for pts in _seeded_point_sets():
        F = lower_hull(pts)
        assert F.nodes == reference_lower_hull(pts)
        # the nodes are read off the integers, as Fractions, whatever the input types
        assert all(type(c) is Q for node in F.nodes for c in node)


def test_hull_nodes_are_built_on_first_read():
    rng = random.Random(608)
    hulls = [lower_hull(pts) for pts in _seeded_point_sets()]
    hulls += [lower_hull(IndexPoints([rng.randrange(0, 90) for _ in range(rng.randrange(1, 40))],
                                     rng.choice((1, 2, 3**7))))
              for _ in range(40)]
    for F in hulls:
        legendre_eval(F, Q(1, 3))
        assert F.x_first <= F.x_last and type(F.y_last) is Q
        with pytest.raises(AttributeError):
            PLConvexFn.nodes.__get__(F)  # the slot is still unset
        nodes = F.nodes
        assert PLConvexFn.nodes.__get__(F) is nodes


def test_binary_search_legendre_matches_node_scan():
    rng = random.Random(607)
    for pts in _seeded_point_sets():
        F = lower_hull(pts)
        steepest = max((-Q(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(F.nodes, F.nodes[1:])),
                       default=Q(0))
        grid = [Q(0), steepest, steepest + 1, 1000 * steepest + 7]
        grid += [Q(rng.randrange(0, 50), rng.choice((1, 2, 3, 7, 64))) for _ in range(8)]
        for (x1, y1), (x2, y2) in zip(F.nodes, F.nodes[1:]):
            grid.append(-Q(y2 - y1) / (x2 - x1))  # s equal to an edge's negated slope
        for s in grid:
            assert legendre_eval(F, s) == reference_legendre_eval(F, s)
        # the kernel, each search starting at the node found for the larger s before
        node = 0
        for s in sorted(grid, reverse=True):
            node, num, den = _legendre_node(F._scaled, s.numerator, s.denominator, node)
            assert Q(num, den) == reference_legendre_eval(F, s)


def test_plconvexfn_equal_slopes_accepted_concave_rejected():
    # equal consecutive slopes (a collinear node) are convex
    F = PLConvexFn(((Q(0), Q(4)), (Q(1), Q(3)), (Q(3), Q(1)), (Q(5), Q(1, 2))))
    assert legendre_eval(F, Q(1)) == reference_legendre_eval(F, Q(1)) == Q(4)
    PLConvexFn(((Q(0), Q(2)), (Q(1, 3), Q(5, 3)), (Q(2, 3), Q(4, 3))))
    # a concave corner: the second edge steeper than the first by 3/10^9
    PLConvexFn(((Q(0), Q(2)), (Q(1, 3), Q(5, 3)), (Q(2, 3), Q(4, 3) + Q(1, 10**9))))
    convexity = r"^slopes must be nondecreasing \(convexity\)$"
    with pytest.raises(ValueError, match=convexity):
        PLConvexFn(((Q(0), Q(2)), (Q(1, 3), Q(5, 3)), (Q(2, 3), Q(4, 3) - Q(1, 10**9))))
    with pytest.raises(ValueError, match=convexity):
        PLConvexFn(((Q(0), Q(3)), (Q(1), Q(2)), (Q(2), Q(0))))
    # the checks keep their order and their messages: abscissae before
    # ordinates before slopes
    with pytest.raises(ValueError, match="^node abscissae must be nonnegative$"):
        PLConvexFn(((Q(-1), Q(3)), (Q(1), Q(5))))
    with pytest.raises(ValueError, match="^node abscissae must be strictly increasing$"):
        PLConvexFn(((Q(1), Q(3)), (Q(1), Q(2)), (Q(2), Q(5))))
    with pytest.raises(ValueError, match="^node ordinates must be nonincreasing$"):
        PLConvexFn(((Q(0), Q(3)), (Q(1), Q(2)), (Q(2), Q(5))))


# --- the integer coordinates a polygon keeps for its Legendre search --------

_ANY_DENS = (1, 2, 3, 7, 10, 12, 10**9 + 7)
_P_POWER_DENS = tuple(p**k for p in (2, 3, 5) for k in (0, 1, 4, 13, 40))


def _seeded_convex_nodes(rng, dens):
    """Nodes of a convex nonincreasing polygon, collinear and flat runs included."""
    n = rng.randrange(1, 10)
    slopes = sorted(-Q(rng.randrange(0, 30), rng.choice(dens)) for _ in range(n - 1))
    x, y = Q(rng.randrange(0, 5), rng.choice(dens)), Q(rng.randrange(20, 80), rng.choice(dens))
    nodes = [(x, y)]
    for slope in slopes:
        dx = Q(rng.randrange(1, 9), rng.choice(dens))
        x, y = x + dx, y + slope * dx
        nodes.append((x, y))
    return tuple(nodes)


def _seeded_polygons():
    """Polygons built by the constructor, by ``translate`` and by ``lower_hull``."""
    rng = random.Random(909)
    for dens in (_ANY_DENS, _P_POWER_DENS):
        for _ in range(60):
            nodes = _seeded_convex_nodes(rng, dens)
            F = PLConvexFn(nodes)
            yield F
            yield F.translate(Q(rng.randrange(0, 9), rng.choice(dens)),
                              Q(rng.randrange(-9, 9), rng.choice(dens)))
            # points on and above the polygon, shuffled, with repeated abscissae
            pts = list(nodes) + [(x, y + Q(rng.randrange(0, 5), rng.choice(dens)))
                                 for x, y in rng.sample(nodes, rng.randrange(0, len(nodes) + 1))]
            rng.shuffle(pts)
            yield lower_hull(pts)


def _legendre_grid(F, rng):
    grid = [Q(0), Q(1), Q(rng.randrange(2, 10**6))]
    grid += [Q(rng.randrange(1, 10**40), 3**rng.randrange(60, 90)) for _ in range(3)]
    grid += [Q(rng.randrange(1, 10**40), 10**40 + 121) for _ in range(2)]
    for (x1, y1), (x2, y2) in zip(F.nodes, F.nodes[1:]):
        grid.append(-(y2 - y1) / (x2 - x1))  # a tie between two nodes
    return grid


def test_integer_legendre_matches_node_minimum_on_seeded_polygons():
    rng = random.Random(910)
    count = 0
    for F in _seeded_polygons():
        for s in _legendre_grid(F, rng):
            got = legendre_eval(F, s)
            assert type(got) is Q
            assert got == min(y + s * x for x, y in F.nodes)
        count += 1
    assert count == 360


def test_lower_hull_equals_polygon_rebuilt_from_its_nodes():
    for pts in _seeded_point_sets():
        F = lower_hull(pts)
        G = PLConvexFn(F.nodes)
        assert F == G and hash(F) == hash(G) and repr(F) == repr(G)
        assert repr(F) == f"PLConvexFn(nodes={F.nodes!r})"
        for s in (Q(0), Q(3), Q(5, 7)):
            assert legendre_eval(F, s) == legendre_eval(G, s)


@pytest.mark.parametrize("p", [2, 3])
def test_index_points_hull_equals_the_hull_of_its_points(p):
    rng = random.Random(470 + p)
    for _ in range(120):
        dy = p ** rng.randrange(0, 40)
        ys = [rng.randrange(0, 6 * dy) for _ in range(rng.randrange(1, 60))]
        F = lower_hull(IndexPoints(ys, dy))
        G = lower_hull([(Q(i), Q(y, dy)) for i, y in enumerate(ys, 1)])
        # values and end points first: they read the integers, before any node is built
        for s in (Q(0), Q(1, 1024), Q(1, 16), Q(5, 7), Q(3)):
            assert legendre_eval(F, s) == legendre_eval(G, s)
        assert (F.x_first, F.x_last, F.y_last) == (G.x_first, G.x_last, G.y_last)
        assert F.y_last == Q(min(ys), dy) and F.x_first == 1
        assert F == G and hash(F) == hash(G) and repr(F) == repr(G)
        assert F == PLConvexFn(F.nodes)


def test_index_points_need_a_positive_denominator_and_a_point():
    assert len(IndexPoints([3, 1, 4], 2)) == 3
    with pytest.raises(ValueError, match="^the denominator must be positive, got 0$"):
        IndexPoints([1], 0)
    # IndexPoints([2, 1], 2.0) used to fail later with an untyped TypeError, and dy=True passed
    for dy in (2.0, True, Q(2), "2"):
        with pytest.raises(ValueError) as err:
            IndexPoints([2, 1], dy)
        assert str(err.value) == f"the denominator must be an int, got {dy!r}"
    for bad in (1.0, True, Q(1), None):
        with pytest.raises(ValueError, match=r"^the ordinates must be ints, got "):
            IndexPoints([2, bad, 0], 1)
    with pytest.raises(ValueError, match="^need at least one point$"):
        lower_hull(IndexPoints([], 1))


def test_index_points_keep_their_own_ordinates():
    # the caller's list used to be kept, so this raised an untyped TypeError
    ys = [4, 2]
    P = IndexPoints(ys, 1)
    ys.append(0.5)
    assert P.ys == (4, 2) and len(P) == 2
    assert legendre_eval(lower_hull(P), 1) == 4  # min(4 + 1, 2 + 2)


def test_invalid_nodes_from_translate_and_hull():
    F = PLConvexFn(((Q(1), Q(3)), (Q(2), Q(1))))
    with pytest.raises(ValueError, match="^node abscissae must be nonnegative$"):
        F.translate(Q(-3, 2), 0)
    with pytest.raises(ValueError, match="^node abscissae must be nonnegative$"):
        lower_hull([(Q(-1, 3), Q(2)), (Q(1), Q(1))])
    with pytest.raises(ValueError, match="^a polygon needs at least one node$"):
        PLConvexFn(())


# --- bisected value_at and sup_distance against a walk along the segments --


def reference_values(F, xs):
    """F at ascending points by one linear walk along its segments, no bisection."""
    values, j = [], 0
    for x in xs:
        if x < F.x_first:
            values.append(INF)
        elif x >= F.x_last:
            values.append(F.y_last)
        else:
            while F.nodes[j + 1][0] < x:
                j += 1
            (x1, y1), (x2, y2) = F.nodes[j], F.nodes[j + 1]
            values.append(y1 + (y2 - y1) * (x - x1) / (x2 - x1))
    return values


def reference_sup_distance(F, G):
    xs = sorted({x for x, _ in F.nodes} | {x for x, _ in G.nodes})
    return max(abs(a - b) for a, b in zip(reference_values(F, xs), reference_values(G, xs)))


def _probe_points(F, rng):
    """Points left of the first node, on every node, between nodes and past the last."""
    xs = [x for x, _ in F.nodes]
    probes = [xs[0] - 1, xs[0] - Q(1, 7), xs[-1] + Q(1, 3), xs[-1] + 10**6] + xs
    for a, b in zip(xs, xs[1:]):
        probes += [(a + b) / 2, a + (b - a) * Q(rng.randrange(1, 1000), 1000)]
    return sorted(probes)


def test_bisected_value_at_and_sup_distance_match_segment_walk():
    rng = random.Random(1024)
    pairs = []
    for F in _seeded_polygons():
        pts = [(F.x_first, Q(rng.randrange(0, 90)))]
        pts += [(F.x_first + Q(rng.randrange(1, 60), rng.choice(_ANY_DENS)),
                 Q(rng.randrange(0, 90), rng.choice((1, 2, 3)))) for _ in range(rng.randrange(0, 8))]
        pairs.append((F, lower_hull(pts)))
    dom = PerfectPoly(2, "p-power")
    deep = [newton_polygon(materialize(ProfileElement.for_exponent(mu, dom), 1024))
            for mu in (Q(1, 2), Q(3, 4))]
    assert len(deep[0].nodes) == 1024
    pairs += [(deep[0], deep[1]), (deep[0], deep[0].translate(0, Q(1, 3)))]
    for F, G in pairs:
        probes = _probe_points(F, rng)
        assert [F.value_at(x) for x in probes] == reference_values(F, probes)
        assert sup_distance(F, G) == reference_sup_distance(F, G) == sup_distance(G, F)
    assert sup_distance(*pairs[-1]) == Q(1, 3)
