import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brwlab.intervals import (
    EMPTY,
    INF,
    REALS,
    Component,
    IntervalSet,
    ParseError,
    parse_set,
)
from conftest import mirror, random_interval_set


def test_shift_half_line():
    assert IntervalSet.below(0).shift(-1) == IntervalSet.below(-1)


def test_shift_empty():
    assert EMPTY.shift(5) == EMPTY


def test_shift_two_components():
    s = IntervalSet.closed(-1, 2).union(IntervalSet.closed(3, 4))
    expect = IntervalSet.closed(0, 3).union(IntervalSet.closed(4, 5))
    assert s.shift(1) == expect


def test_scale_basic():
    assert IntervalSet.closed(-1, 2).scale(0.5) == IntervalSet.closed(-0.5, 1)


def test_scale_half_line_fixed():
    assert IntervalSet.below(0).scale(3) == IntervalSet.below(0)


def test_scale_two_components():
    s = IntervalSet.closed(1, 2).union(IntervalSet.closed(4, 6))
    assert s.scale(2) == IntervalSet.closed(2, 4).union(IntervalSet.closed(8, 12))


def test_scale_rejects_nonpositive():
    with pytest.raises(ValueError):
        IntervalSet.closed(0, 1).scale(0.0)
    with pytest.raises(ValueError):
        IntervalSet.closed(0, 1).scale(-2.0)


def test_complement_half_line():
    assert IntervalSet.below(0).complement() == IntervalSet.above(0)


def test_complement_reals():
    assert REALS.complement() == EMPTY
    assert EMPTY.complement() == REALS


def test_complement_closed_interval():
    expect = IntervalSet.below(0, closed=False).union(IntervalSet.above(1, closed=False))
    assert IntervalSet.closed(0, 1).complement() == expect


def test_contains_endpoint_flags():
    assert not IntervalSet.interval(0, 1, True, False).contains(1)
    assert IntervalSet.interval(0, 1, True, False).contains(0)


def test_has_half_line():
    assert IntervalSet.below(0).union(IntervalSet.closed(5, 6)).has_half_line()
    assert not IntervalSet.closed(5, 6).has_half_line()


def test_is_bounded():
    assert IntervalSet.closed(-3, -1).union(IntervalSet.closed(1, 3)).is_bounded()
    assert not IntervalSet.above(2).is_bounded()
    assert EMPTY.is_bounded()


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        Component(1.0, 1.0, True, True)
    with pytest.raises(ValueError):
        IntervalSet.closed(2, 1)


def test_merging_touching_endpoints():
    a = IntervalSet.interval(0, 1, True, True)
    b = IntervalSet.interval(1, 2, False, True)
    assert a.union(b) == IntervalSet.closed(0, 2)
    # open-open touching stays split: the union misses the touching point
    c = IntervalSet.open(0, 1).union(IntervalSet.open(1, 2))
    assert len(c.components) == 2
    # equal upper ends: the merged end is closed when either end is
    half_open = IntervalSet.interval(0, 2, True, False)
    assert half_open.union(IntervalSet.interval(1, 2, True, False)) == half_open
    assert half_open.union(IntervalSet.interval(1, 2, False, True)) == IntervalSet.closed(0, 2)
    assert IntervalSet.closed(0, 2).union(IntervalSet.open(1, 2)) == IntervalSet.closed(0, 2)
    assert IntervalSet.above(0).union(IntervalSet.above(1)) == IntervalSet.above(0)


def test_infinite_endpoints_coerced_open():
    c = Component(-INF, 0.0, True, True)
    assert not c.lower_closed and c.upper_closed


def test_endpoint_arrays_are_read_only_and_survive_pickling():
    s = parse_set("(-inf,0] U [1,2)")
    for t in (s, pickle.loads(pickle.dumps(s))):
        assert t == s
        assert t.lo.tolist() == [-INF, 1.0] and t.hi.tolist() == [0.0, 2.0]
        assert t.lo_closed.tolist() == [False, True]
        assert t.hi_closed.tolist() == [True, False]
        with pytest.raises(ValueError):
            t.lo[0] = 5.0
    assert EMPTY.lo.shape == EMPTY.hi_closed.shape == (0,)


# -- property tests ----------------------------------------------------------

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def interval_sets(draw):
    k = draw(st.integers(1, 3))
    pts = sorted(draw(st.lists(finite, min_size=2 * k, max_size=2 * k, unique=True)))
    # well separated endpoints keep float-rounded shifts from merging components
    if any(b - a < 1e-3 for a, b in zip(pts, pts[1:])):
        pts = [p + 2.0 * i for i, p in enumerate(pts)]
    parts = []
    for i in range(k):
        parts.append(Component(pts[2 * i], pts[2 * i + 1],
                               draw(st.booleans()), draw(st.booleans())))
    s = IntervalSet(tuple(parts))
    if draw(st.booleans()):
        s = s.union(IntervalSet.below(pts[0] - 1))
    return s


half_steps = st.integers(-24, 24).map(lambda i: i / 2)


@st.composite
def lattice_sets(draw):
    """Sets whose finite endpoints are integers or half-integers, any flags."""
    pts = sorted(draw(st.lists(half_steps, max_size=6, unique=True)))
    parts = [Component(a, b, draw(st.booleans()), draw(st.booleans()))
             for a, b in zip(pts[::2], pts[1::2])]
    s = IntervalSet(tuple(parts))
    if draw(st.booleans()):
        s = s.union(IntervalSet.below(draw(half_steps), draw(st.booleans())))
    if draw(st.booleans()):
        s = s.union(IntervalSet.above(draw(half_steps), draw(st.booleans())))
    return s


@given(st.one_of(st.sampled_from([REALS, EMPTY]), lattice_sets()))
def test_site_ranges_match_contains(s):
    # scaled by sqrt(k) as `evolve` scales its set, one row per k, the site
    # ranges hold exactly the integers that s.scale(sqrt(k)) contains
    roots = np.sqrt([1.0, 2.0, 4.0, 9.0])
    firsts, lasts = s.site_ranges(roots[:, None])
    for root, first, last in zip(roots, firsts, lasts):
        scaled = s.scale(float(root))
        for t in range(-40, 41):
            in_ranges = bool(np.any((first <= t) & (t <= last)))
            assert in_ranges == scaled.contains(float(t))


@given(interval_sets())
def test_normalize_idempotent(s):
    assert IntervalSet(s.components) == s


@given(interval_sets(), finite)
@settings(max_examples=60)
def test_shift_round_trip(s, a):
    back = s.shift(a).shift(-a)
    assert len(back.components) == len(s.components)
    for c1, c2 in zip(back, s):
        assert math.isclose(c1.lower, c2.lower, abs_tol=1e-12) or c1.lower == c2.lower
        assert math.isclose(c1.upper, c2.upper, abs_tol=1e-12) or c1.upper == c2.upper


@given(interval_sets(), st.floats(min_value=0.1, max_value=8, allow_nan=False))
@settings(max_examples=60)
def test_scale_round_trip(s, c):
    back = s.scale(c).scale(1.0 / c)
    assert len(back.components) == len(s.components)
    for c1, c2 in zip(back, s):
        for e1, e2 in ((c1.lower, c2.lower), (c1.upper, c2.upper)):
            if math.isinf(e1):
                assert e1 == e2
            else:
                assert abs(e1 - e2) <= 1e-12 * max(1.0, abs(e2))


@given(interval_sets())
def test_complement_involution(s):
    assert s.complement().complement() == s


@given(interval_sets(), finite)
def test_contains_xor_complement(s, t):
    endpoints = {c.lower for c in s} | {c.upper for c in s}
    if t in endpoints:
        return
    assert s.contains(t) != s.complement().contains(t)


def test_contains_matches_endpoint_oracle(rng):
    for _ in range(200):
        s = random_interval_set(rng)
        t = float(rng.normal(0, 4))
        direct = any(
            (c.lower < t < c.upper)
            or (t == c.lower and c.lower_closed)
            or (t == c.upper and c.upper_closed)
            for c in s)
        assert s.contains(t) == direct


def test_mirror_helper_involution(rng):
    for _ in range(50):
        s = random_interval_set(rng)
        assert mirror(mirror(s)) == s


# -- parser / printer --------------------------------------------------------

def test_parse_basic():
    s = parse_set("(-inf,0] U [1,2)")
    assert s == IntervalSet.below(0).union(IntervalSet.interval(1, 2, True, False))


def test_parse_reals_and_empty():
    assert parse_set("R") == REALS
    assert parse_set("empty") == EMPTY


def test_parse_whitespace_insensitive():
    assert parse_set(" ( -1.5 , 2.5e0 )  U  [ 3 , inf ) ") == \
        IntervalSet.open(-1.5, 2.5).union(IntervalSet.above(3, closed=True))


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_set("(0,]")
    assert err.value.pos == 3
    assert "position 3" in str(err.value)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_set("[1,2] X [3,4]")
    with pytest.raises(ParseError):
        parse_set("")
    with pytest.raises(ParseError):
        parse_set("[2,1]")


def test_print_parse_round_trip(rng):
    for _ in range(100):
        s = random_interval_set(rng)
        assert parse_set(str(s)) == s
    assert parse_set(str(REALS)) == REALS
    assert parse_set(str(EMPTY)) == EMPTY
