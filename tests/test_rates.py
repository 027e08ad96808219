import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from brwlab import rates
from brwlab.errors import InfeasibleError
from brwlab.gaussian import (dilated_mass, normal_pdf, nu, nu_shifted_grid, shifted_nu,
                             varphi)
from brwlab.intervals import INF, REALS, IntervalSet, parse_set
from conftest import random_interval_set
from oracles import brute_force_i, brute_force_j, rate_suite_sets

Z80 = 0.8416212335729143      # quantile of 0.8
Z95 = 1.6448536269514722      # quantile of 0.95
A_HALF = 0.6744897501960817   # quantile of 0.75, so nu([-a, a]) = 0.5


# -- sup_shift_measure ---------------------------------------------------------

def test_sup_half_line_sentinel():
    value, arg = rates.sup_shift_measure(IntervalSet.below(0))
    assert value == 1.0 and arg == -INF
    value, arg = rates.sup_shift_measure(IntervalSet.above(3))
    assert value == 1.0 and arg == INF


def test_sup_symmetric_interval():
    for a in (0.3, 1.0, 2.2):
        s = IntervalSet.closed(-a, a)
        value, arg = rates.sup_shift_measure(s)
        assert abs(arg) < 1e-6
        assert abs(value - nu(s)) < 1e-12


def test_sup_unit_offset_interval_vs_brute_grid():
    s = IntervalSet.closed(1, 2)
    value, arg = rates.sup_shift_measure(s)
    xs = np.arange(-12, 12, 1e-5)
    brute = nu_shifted_grid(s, xs)
    k = int(np.argmax(brute))
    assert abs(arg - xs[k]) < 1e-4
    assert abs(arg - 1.5) < 1e-7
    assert abs(value - nu(IntervalSet.closed(-0.5, 0.5))) < 1e-10
    assert value >= brute[k] - 1e-12


def _brute_sup(s, step=1e-5, chunk=1 << 20):
    """Max and argmax of x -> nu(S - x) on a step grid over the hull of S."""
    lo, hi = s.hull()
    count = int(math.ceil((hi - lo) / step)) + 1
    best, best_x = -1.0, None
    for start in range(0, count, chunk):
        xs = lo + step * np.arange(start, min(start + chunk, count))
        vals = nu_shifted_grid(s, xs)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_x = float(vals[k]), float(xs[k])
    return best, best_x


def test_sup_kernel_vs_brute_grid(rng):
    # Dilations up to gamma = 30 (r close to 1); component widths and gaps stay
    # within a few units after dilation, so each maximizer is well determined.
    for _ in range(8):
        gamma = float(rng.uniform(1.0, 30.0))
        k = int(rng.integers(1, 4))
        steps = rng.uniform(0.2, 5.0, size=2 * k) / gamma
        cuts = float(rng.normal(0.0, 1.0)) + np.cumsum(steps)
        s = IntervalSet.empty()
        for i in range(k):
            s = s.union(IntervalSet.closed(float(cuts[2 * i]), float(cuts[2 * i + 1])))
        dilated = s.scale(gamma)
        value, arg = rates.sup_shift_measure(dilated)
        brute, brute_arg = _brute_sup(dilated)
        assert value >= brute - 1e-12
        assert abs(arg - brute_arg) < 1e-4


def test_sup_two_bumps_takes_the_higher():
    # Two local maxima 2.4e-8 apart; on the search grid the lower (left) bump
    # has the larger value, so refining only around the grid argmax fails.
    s = parse_set("[-9.03,-9.02] U [-4,-2] U [2.02,4.0200001]")
    value, arg = rates.sup_shift_measure(s)
    brute, brute_arg = _brute_sup(s)
    left = nu_shifted_grid(s, np.arange(-4.0, -2.0, 1e-5)).max()
    assert 0.0 < brute - left < 1e-6
    assert value >= brute - 1e-12
    assert abs(arg - brute_arg) < 1e-4
    assert arg > 0


def test_sup_rejects_empty():
    with pytest.raises(ValueError):
        rates.sup_shift_measure(IntervalSet.empty())


# -- i_tilde ---------------------------------------------------------------------

def test_i_tilde_boundary_level():
    value, x = rates.i_tilde(IntervalSet.below(0), 0.5)
    assert value == 0.0 and x == 0.0


def test_i_tilde_half_line_closed_form():
    value, x = rates.i_tilde(IntervalSet.below(0), 0.8)
    assert abs(value - Z80) < 1e-7
    assert abs(x + Z80) < 1e-7
    assert nu(IntervalSet.below(0).shift(-x)) >= 0.8 - 1e-9


def test_i_tilde_infeasible_bounded():
    value, x = rates.i_tilde(IntervalSet.closed(-A_HALF, A_HALF), 0.9)
    assert value == INF and x is None


def test_i_tilde_rejects_bad_p():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            rates.i_tilde(REALS, p)


def test_i_tilde_negative_witness_on_tie():
    s = IntervalSet.closed(-2, -1).union(IntervalSet.closed(1, 2))
    p = 0.9 * rates.sup_shift_measure(s)[0]
    value, x = rates.i_tilde(s, p)
    assert value != INF and x < 0
    assert abs(abs(x) - value) < 1e-12


def test_i_tilde_monotone_in_p(rng):
    for _ in range(25):
        s = random_interval_set(rng)
        p1, p2 = sorted(rng.uniform(0.05, 0.95, size=2))
        v1, _ = rates.i_tilde(s, float(p1))
        v2, _ = rates.i_tilde(s, float(p2))
        assert v1 <= v2 + 1e-9


def test_i_tilde_witness_feasible(rng):
    for _ in range(30):
        s = random_interval_set(rng)
        p = float(rng.uniform(0.1, 0.95))
        value, x = rates.i_tilde(s, p)
        if value != INF:
            assert nu(s.shift(-x)) >= p - 1e-8


def test_i_tilde_finds_a_crossing_between_grid_points():
    # nu(S - x) reaches p only on a sliver around its maximum near x = 0.5003,
    # which a scan of x every 1e-3 steps over
    s = parse_set("[0.2003,0.8003] U [6,12]")
    p = shifted_nu(s, 0.5003) - 1e-9
    value, x = rates.i_tilde(s, p)
    assert 0.0 < value <= 0.5003
    assert x == value
    assert shifted_nu(s, x) >= p


@pytest.mark.parametrize("text,p", [
    ("(-inf,0]", 0.8),
    ("(-inf,-1) U (1,inf)", 0.9),
    # a sliver around the bump's maximum near x = 3.0003, so the slope's
    # root is sought in the cell that holds it
    ("(-inf,-6] U [2.0003,4.0003]", 0.6826894911370859),
])
def test_i_tilde_half_lines_emit_no_warning(text, p):
    # at an infinite endpoint the slope's pdf term times its argument is
    # 0 * inf, unless the slope reads a finite stand-in
    s = parse_set(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, x = rates.i_tilde(s, p)
    assert 0.0 < value < INF
    assert nu(s.shift(-x)) >= p - 1e-12


# -- j_tilde ---------------------------------------------------------------------

def test_j_tilde_half_line_is_zero():
    value, r, x = rates.j_tilde(IntervalSet.below(0), 0.8)
    assert value == 0.0 and r == 0.0
    assert abs(x + Z80) < 1e-7


def test_j_tilde_reals():
    assert rates.j_tilde(REALS, 0.31) == (0.0, 0.0, 0.0)


def test_j_tilde_symmetric_closed_form():
    s = IntervalSet.closed(-A_HALF, A_HALF)
    expect = 1.0 - (A_HALF / Z95) ** 2
    value, r, x = rates.j_tilde(s, 0.9)
    assert abs(value - expect) < 1e-6
    assert abs(x) < 1e-6
    assert varphi(s, r, x) >= 0.9 - 1e-8


def test_j_tilde_monotone_in_p():
    s = IntervalSet.closed(0.5, 1.7)
    values = [rates.j_tilde(s, p)[0] for p in (0.55, 0.7, 0.85)]
    assert values[0] <= values[1] <= values[2]


def test_j_tilde_witness_feasible(rng):
    for _ in range(10):
        s = random_interval_set(rng, allow_half_lines=False)
        p = float(rng.uniform(0.5, 0.95))
        value, r, x = rates.j_tilde(s, p)
        assert 0.0 <= value < 1.0
        assert varphi(s, r, x) >= p - 1e-8


# -- classify / lower tail --------------------------------------------------------

def test_classify_shift_regime():
    rep = rates.classify(IntervalSet.below(0), 0.8, 2)
    assert rep.regime == "shift" and rep.scale == "sqrt_n"
    assert abs(rep.i_rate - math.log(2) * Z80) < 1e-6
    assert rep.j_tilde == 0.0 and not rep.degenerate


def test_classify_dilation_regime():
    s = IntervalSet.closed(-A_HALF, A_HALF)
    rep = rates.classify(s, 0.9, 3)
    assert rep.regime == "dilation" and rep.scale == "n"
    assert rep.i_tilde == INF and rep.x_star is None
    expect = math.log(3) * (1.0 - (A_HALF / Z95) ** 2)
    assert abs(rep.j_rate - expect) < 1e-5
    assert varphi(s, rep.r_star, rep.x_star_dilation) >= 0.9 - 1e-8


def test_classify_degenerate():
    rep = rates.classify(IntervalSet.below(0), 0.4, 2)
    assert rep.degenerate and rep.i_tilde == 0.0
    rep = rates.classify(REALS, 0.3, 2)
    assert rep.degenerate and rep.i_tilde == 0.0


def test_classify_validates_inputs():
    with pytest.raises(ValueError):
        rates.classify(REALS, 0.5, 1)
    with pytest.raises(ValueError):
        rates.classify(IntervalSet.empty(), 0.5, 2)


# The lower tail, a fraction in S below p, is the upper tail of the complement
# at 1 - p: classify(s.complement(), 1 - p, b), or `rate` on the complement.

def test_lower_tail_matches_complement():
    rep = rates.classify(IntervalSet.above(0, closed=False).complement(), 0.8, 2)
    direct = rates.classify(IntervalSet.below(0), 0.8, 2)
    assert rep.regime == direct.regime
    assert abs(rep.i_rate - direct.i_rate) < 1e-12


def test_lower_tail_bounded_set():
    s = IntervalSet.closed(-A_HALF, A_HALF)
    rep = rates.classify(s.complement(), 1.0 - 0.1, 2)
    direct = rates.classify(parse_set(f"(-inf,{-A_HALF}) U ({A_HALF},inf)"), 0.9, 2)
    assert rep.regime == direct.regime == "shift"  # complement has half-lines
    assert abs(rep.i_tilde - direct.i_tilde) < 1e-12


def test_lower_tail_random_identity(rng):
    # the complement's printed text, as `rate --set` would read it, gives the
    # same report as the complement itself
    for _ in range(15):
        s = random_interval_set(rng)
        if s.is_reals:
            continue
        p = float(rng.uniform(0.05, 0.9))
        rep = rates.classify(s.complement(), 1.0 - p, 2)
        direct = rates.classify(parse_set(str(s.complement())), 1.0 - p, 2)
        assert rep.i_tilde == direct.i_tilde
        assert rep.j_tilde == direct.j_tilde
    with pytest.raises(ValueError):
        rates.classify(REALS.complement(), 0.5, 2)  # the full line has no lower tail


def test_dichotomy_smoke(rng):
    hits = {"shift": 0, "dilation": 0}
    for _ in range(40):
        s = random_interval_set(rng)
        base = nu(s)
        if base >= 0.99:
            continue
        p = base + (1.0 - base) * float(rng.uniform(0.02, 0.95))
        rep = rates.classify(s, p, 2)
        assert not rep.degenerate
        if rep.regime == "shift":
            assert 0.0 < rep.i_tilde < INF
        else:
            assert rep.i_tilde == INF
            assert 0.0 < rep.j_tilde < 1.0
        hits[rep.regime] += 1
    assert hits["shift"] > 0 and hits["dilation"] > 0


def test_half_line_shortcut(rng):
    for _ in range(20):
        s = random_interval_set(rng, allow_half_lines=False).union(
            IntervalSet.below(float(rng.normal(-4, 1))))
        base = nu(s)
        p = base + (1.0 - base) * 0.5
        rep = rates.classify(s, p, 2)
        assert rep.j_tilde == 0.0 and rep.i_tilde < INF


@pytest.mark.parametrize("seed", [71, 72])
def test_classify_equals_its_report_without_the_i_tilde_skip(seed):
    # classify gives a bounded set whose shift sup lies more than
    # NEAR_CRITICAL below p an infinite shift cost unscreened; i_tilde, and
    # j_tilde, which calls it first, screen every such case
    rng = np.random.default_rng(seed)
    skipped = 0
    for _ in range(100):
        s = random_interval_set(rng, max_components=4, allow_half_lines=False)
        sup = rates.sup_shift_measure(s)[0]
        p = sup + (1.0 - sup) * float(rng.uniform(0.02, 0.98))
        if not p < 1.0:
            continue
        rep = rates.classify(s, p, 2)
        assert rates.i_tilde(s, p) == (rep.i_tilde, rep.x_star) == (INF, None)
        assert rates.j_tilde(s, p) == (rep.j_tilde, rep.r_star, rep.x_star_dilation)
        skipped += sup < p - rates.NEAR_CRITICAL
    assert skipped >= 90


@pytest.mark.parametrize("offset,calls", [(-5e-10, 1), (5e-10, 1), (0.99e-9, 1),
                                          (2e-9, 0), (0.01, 0)])
def test_classify_screens_near_critical_sets(offset, calls, monkeypatch):
    # p within NEAR_CRITICAL of the sup still goes through i_tilde
    count = [0]
    i_tilde = rates.i_tilde

    def counting_i_tilde(s, p):
        count[0] += 1
        return i_tilde(s, p)

    monkeypatch.setattr(rates, "i_tilde", counting_i_tilde)
    s = IntervalSet.closed(1, 2)
    p = rates.sup_shift_measure(s)[0] + offset
    rep = rates.classify(s, p, 2)
    assert count[0] == calls
    assert rep.near_critical == (abs(offset) <= rates.NEAR_CRITICAL)
    assert rep.regime == ("shift" if offset < 0 else "dilation")
    rates.classify(IntervalSet.below(0).union(s), 0.9, 2)   # a half-line
    assert count[0] == calls + 1


def test_classify_builds_each_shift_grid_once(monkeypatch):
    # the dilation secant starts from the row the r scan screened just below
    # the crossing, without building that row's grid again
    keys = []
    shift_grid = rates._shift_grid

    def counting_grid(lo, hi):
        keys.append(lo.tobytes() + hi.tobytes())
        return shift_grid(lo, hi)

    monkeypatch.setattr(rates, "_shift_grid", counting_grid)
    total = 0
    for s, p, _ in rate_suite_sets():
        keys.clear()
        rates.classify(s, p, 2)
        assert len(set(keys)) == len(keys)
        total += len(keys)
    assert total == 65


# -- the dilation crossing search ----------------------------------------------------

def _bisect_reference(lo, hi, p, a, b):
    """Feasible end of [a, b], h(a) < p <= h(b), after bisecting it to ROOT_TOL."""
    while b - a > rates.ROOT_TOL:
        mid = 0.5 * (a + b)
        if rates._dilated_sup(lo, hi, mid)[0] >= p:
            b = mid
        else:
            a = mid
    return b


_FIRST_CROSSING = rates._first_crossing


@pytest.fixture
def crossing_search(monkeypatch):
    """j_tilde of a dilation case, with the _first_crossing bracket (None when
    the case made none) and the number of _dilated_sup calls made after it."""
    record = {}
    dilated_sup, first_crossing = rates._dilated_sup, rates._first_crossing

    def counting_sup(*args):
        record["calls"] += 1
        return dilated_sup(*args)

    def recording_crossing(*args):
        record["bracket"] = first_crossing(*args)
        record["calls"] = 0
        return record["bracket"]

    monkeypatch.setattr(rates, "_dilated_sup", counting_sup)
    monkeypatch.setattr(rates, "_first_crossing", recording_crossing)

    def search(s, p):
        record.update(bracket=None, calls=0)
        _, r, x = rates.j_tilde(s, p)
        return r, x, record["bracket"], record["calls"]
    return search


def _check_crossing(s, p, r, x, bracket, calls):
    value = rates._dilated_sup(s.lo, s.hi, r)[0]
    assert varphi(s, r, x) >= p - 1e-8
    if len(s.components) == 1:
        # the closed form runs no scan and no secant; it lies within ROOT_TOL
        # of the scan's bracket bisected, and its witness is the midpoint
        assert bracket is None and calls == 0
        a, b, _, _ = _FIRST_CROSSING(s.lo, s.hi, p)
        assert abs(r - _bisect_reference(s.lo, s.hi, p, a, b)) <= rates.ROOT_TOL
        assert value >= p - 1e-15
        assert x == 0.5 * (s.lo[0] + s.hi[0])
        return
    a, b, _, _ = bracket
    assert a < r <= b
    # a grid end the scan accepted (the widest component alone reaches p
    # there) may sit a rounding hair below p
    assert value >= p or (r == b and value >= p - 1e-15)
    assert calls <= 10


def test_crossing_search_on_the_suite(crossing_search):
    cases = [(s, p) for s, p, _ in rate_suite_sets()
             if not s.has_half_line() and nu(s) < p and rates.i_tilde(s, p)[0] == INF]
    assert len(cases) == 10
    for s, p in cases:
        r, x, bracket, calls = crossing_search(s, p)
        _check_crossing(s, p, r, x, bracket, calls)
        if bracket is not None:
            a, b, _, _ = bracket
            assert abs(r - _bisect_reference(s.lo, s.hi, p, a, b)) <= 2 * rates.ROOT_TOL


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_crossing_search_on_random_sets(seed, crossing_search):
    # bounded sets drawn as criterion 4 draws them, dilation cases only
    rng = np.random.default_rng(seed)
    cases = 0
    while cases < 135:
        s = random_interval_set(rng, allow_half_lines=False)
        base = nu(s)
        p = base + (1.0 - base) * float(rng.uniform(0.02, 0.98))
        if rates.i_tilde(s, p)[0] != INF:
            continue
        cases += 1
        _check_crossing(s, p, *crossing_search(s, p))


def _screened_crossing(lo, hi, p, rs):
    """First r of the grid rs with _dilated_sup >= p, as _first_crossing reports it.

    Every grid point is screened, 32 rows at a time (fewer where the rows are
    wide), on shifts SUP_STEP apart after dilation; only rows whose grid
    maximum comes within the grid slack of p are refined.
    """
    slack = rates._grid_slack(lo.size)
    start = 0
    while start < rs.size:
        gamma_top = 1.0 / math.sqrt(1.0 - rs[min(start + 32, rs.size) - 1])
        width = max(2, math.ceil((hi[-1] - lo[0]) * gamma_top / rates.SUP_STEP)) + 1
        stop = min(start + max(1, min(32, (1 << 17) // width)), rs.size)
        gamma = (1.0 / np.sqrt(1.0 - rs[start:stop]))[:, None]
        u = gamma * np.linspace(lo[0], hi[-1], width)
        vals = sum(ndtr(gamma * b - u) - ndtr(gamma * a - u) for a, b in zip(lo, hi))
        for k in start + np.flatnonzero(vals.max(axis=1) >= p - slack):
            value, x = rates._dilated_sup(lo, hi, float(rs[k]))
            if value >= p:
                return (float(rs[k - 1]) if k else 0.0), float(rs[k]), x, value
        start = stop
    i = int(np.argmax(hi - lo))
    return float(rs[-2]), float(rs[-1]), 0.5 * float(lo[i] + hi[i]), p


def _scan_cases(seed, count, near_slack=False):
    """Bounded sets of 2 to 4 components with p above their sup over shifts:
    anywhere up to 1, or, ``near_slack``, by less than the grid slack."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        s = random_interval_set(rng, max_components=4, allow_half_lines=False)
        if len(s.components) >= 2:
            sup = rates.sup_shift_measure(s)[0]
            gap = rates._grid_slack(s.lo.size) if near_slack else 1.0 - sup
            p = sup + gap * float(rng.uniform(0.02, 0.98))
            if p < 1.0:
                cases.append((s, p))
    return cases


def test_first_crossing_equals_a_screen_of_every_grid_point(monkeypatch):
    grids = []
    r_grid = rates._r_grid

    def recording_grid(r_max):
        grids.append(r_grid(r_max))
        return grids[-1]

    monkeypatch.setattr(rates, "_r_grid", recording_grid)
    cases = [(s, p) for s, p, _ in rate_suite_sets()
             if not s.has_half_line() and nu(s) < p and rates.i_tilde(s, p)[0] == INF]
    assert len(cases) == 10
    cases += _scan_cases(61, 30) + _scan_cases(62, 12, near_slack=True)
    for s, p in cases:
        found = rates._first_crossing(s.lo, s.hi, p)
        assert found == _screened_crossing(s.lo, s.hi, p, grids[-1])


def test_near_slack_scan_screens_cell_midpoints_before_refining(monkeypatch):
    # p lies 6.4e-4 above the sup, just past the grid slack of 6.0e-4 for
    # k = 4, so every row from r = 0.001 to the crossing near 0.293 comes
    # within reach on its grid: all 284 were refined before the midpoint screen
    s, p = _scan_cases(61, 8)[7]
    assert len(s.components) == 4
    assert 6.4e-4 < p - rates.sup_shift_measure(s)[0] < 6.5e-4
    assert 6.0e-4 < rates._grid_slack(4) < 6.1e-4
    calls = [0]
    dilated_sup = rates._dilated_sup

    def counting_sup(*args):
        calls[0] += 1
        return dilated_sup(*args)

    monkeypatch.setattr(rates, "_dilated_sup", counting_sup)
    _, r, _, _ = rates._first_crossing(s.lo, s.hi, p)
    assert r == 0.293
    assert calls[0] == 128


def test_first_crossing_refines_a_row_on_its_screened_grid(monkeypatch):
    grids = []
    sup_shift = rates._sup_shift

    def recording_sup(lo, hi, grid=None):
        grids.append(grid)
        return sup_shift(lo, hi, grid)

    monkeypatch.setattr(rates, "_sup_shift", recording_sup)
    for s, p, _ in rate_suite_sets():
        if not s.has_half_line() and nu(s) < p and rates.i_tilde(s, p)[0] == INF:
            rates._first_crossing(s.lo, s.hi, p)
    assert grids and all(grid is not None for grid in grids)


@pytest.mark.parametrize("seed", [51, 52])
def test_dilated_sup_moves_at_most_2k_pdf1_per_unit_of_log_gamma(seed):
    # the bound behind the r scan's skip-ahead, |d varphi / d log gamma| <=
    # 2k pdf(1), is nearly attained, so a halved constant fails here
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        s = random_interval_set(rng, allow_half_lines=False)
        r1 = float(rng.uniform(0.0, 0.99))
        r2 = r1 + (1.0 - r1) * float(rng.uniform(0.001, 0.1))
        bound = 2 * s.lo.size * normal_pdf(1.0) * 0.5 * math.log((1.0 - r1) / (1.0 - r2))
        move = abs(rates._dilated_sup(s.lo, s.hi, r2)[0] - rates._dilated_sup(s.lo, s.hi, r1)[0])
        assert move <= bound + 1e-12
        worst = max(worst, move / bound)
    assert worst > 0.9


@pytest.mark.parametrize("half_width,r", [(A_HALF, 1.0 - (A_HALF / Z95) ** 2),
                                          (1.0, 0.3), (0.5, 0.9)])
def test_sup_shift_root_on_a_grid_point(half_width, r, monkeypatch):
    # the dilated interval spans an even number of SUP_STEP cells, so the
    # slope's root 0 is a grid point: one grid call and two Newton steps
    calls = []
    slope = rates._slope

    def counting_slope(*args):
        calls.append(args)
        return slope(*args)

    monkeypatch.setattr(rates, "_slope", counting_slope)
    c = half_width / math.sqrt(1.0 - r)
    value, arg = rates._screened_sup(np.array([-c]), np.array([c]))
    assert arg == 0.0
    assert len(calls) <= 3
    assert abs(value - nu(IntervalSet.closed(-c, c))) < 1e-15


# -- kept cells: slopes and midpoints only where the grid slack leaves room ---------

_SLOPE_ROOT = rates._slope_root


def _bits(values):
    return tuple(None if v is None else float(v).hex() for v in values)


def _full_grid_sup(lo, hi):
    """(left ends of the refined cells, (sup, argmax)) of `_screened_sup`'s
    selection made from the slope at every grid point: cells where it turns
    from positive to not, among those whose larger end is within the slack
    of the grid maximum."""
    xs, vals = rates._shift_grid(lo, hi)
    slope = rates._slope(lo, hi, xs)[0]
    i = int(np.argmax(vals))
    best = (float(vals[i]), float(xs[i]))
    cells = np.flatnonzero(
        (slope[:-1] > 0) & (slope[1:] <= 0)
        & (np.maximum(vals[:-1], vals[1:]) >= vals[i] - rates._grid_slack(lo.size)))
    if cells.size:
        x = _SLOPE_ROOT(lo, hi, xs[cells], xs[cells + 1])
        v = np.array([dilated_mass(lo, hi, t, 1.0) for t in x.tolist()])
        top = np.flatnonzero(v >= max(v.max(), best[0]) - rates.TIE)
        if top.size:
            best = (float(v[top[0]]), float(x[top[0]]))
    return xs[cells], best


def _full_grid_shift_cost(s, p):
    """`_screened_shift_cost` from the slope at every grid point of both sides."""
    bound = s.finite_endpoint_bound() + 10.0
    ts = np.linspace(0.0, bound, math.ceil(bound / rates.SUP_STEP) + 1)
    far = bound + 40.0
    ends = (np.maximum(s.lo, -far), np.minimum(s.hi, far))
    xs = np.concatenate((-ts, ts))
    vals, g = nu_shifted_grid(s, xs), rates._slope(*ends, xs)[0]
    m = ts.size
    found = []
    for sign, v, gs in ((-1.0, vals[:m], g[:m]), (1.0, vals[m:], g[m:])):
        left, right = (gs[:-1], gs[1:]) if sign > 0 else (gs[1:], gs[:-1])
        peaks = (left > 0) & (right <= 0)

        def gap(t, sign=sign):
            return shifted_nu(s, sign * t) - p, sign * t

        hit = None
        for j in np.flatnonzero(np.maximum(v[:-1], v[1:]) >= p - rates._grid_slack(s.lo.size)):
            t = float(ts[j + 1])
            if peaks[j]:
                cell = np.sort(sign * ts[j:j + 2])
                t = sign * float(_SLOPE_ROOT(*ends, cell[:1], cell[1:])[0])
            value, x = gap(t)
            if value >= 0:
                hit = rates._refine_crossing(gap, float(ts[j]), t, value, x)
                break
        found.append(hit)
    neg, pos = found
    if neg is None and pos is None:
        return INF, None
    if pos is None or (neg is not None and neg[0] <= pos[0] + rates.ROOT_TOL):
        return neg
    return pos


def _multi_component_sets(seed, count, half_lines):
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        s = random_interval_set(rng, max_components=4, allow_half_lines=half_lines)
        if len(s.components) >= 2:
            sets.append(s)
    return sets


def test_kept_cells_equal_a_full_grid_slope_screen(monkeypatch):
    # taking the slope only at the ends of the cells the grid slack keeps
    # changes no cell, no sup, no cost and no witness, bit for bit
    roots = []

    def recording_root(lo, hi, a, b):
        roots.append(a)
        return _SLOPE_ROOT(lo, hi, a, b)

    monkeypatch.setattr(rates, "_slope_root", recording_root)
    suite = [(s, p) for s, p, _ in rate_suite_sets()]
    bounded = [s for s, _ in suite if len(s.components) >= 2 and s.is_bounded()]
    assert len(bounded) == 4
    refined = 0
    for s in bounded + _multi_component_sets(91, 40, half_lines=False):
        for r in (0.0, 0.5, 0.9, 0.99):
            gamma = 1.0 / math.sqrt(1.0 - r)
            lo, hi = gamma * s.lo, gamma * s.hi
            roots.clear()
            got = rates._screened_sup(lo, hi)
            cells, want = _full_grid_sup(lo, hi)
            assert _bits(got) == _bits(want)
            assert len(roots) == (1 if cells.size else 0)
            if cells.size:
                assert np.array_equal(roots[0], cells)
            refined += cells.size
    assert refined > 160
    rng = np.random.default_rng(92)
    cases = [(s, p) for s, p in suite if nu(s) < p]
    for s in _multi_component_sets(93, 40, half_lines=True):
        base = nu(s)
        cases += [(s, base + (1.0 - base) * float(u)) for u in rng.uniform(0.02, 0.98, 2)]
    finite = 0
    for s, p in cases:
        got = rates._screened_shift_cost(s, p)
        assert _bits(got) == _bits(_full_grid_shift_cost(s, p))
        finite += got[0] != INF
    assert 20 < finite < len(cases) - 20


def test_screens_take_slopes_only_at_kept_cell_ends(monkeypatch):
    # near r_max = 1 - 2.7e-6 the rows of this narrow set hold about 135,000
    # shifts; a slope over every grid point took them all in one call
    points, grids = [], []
    slope, shift_grid = rates._slope, rates._shift_grid

    def recording_slope(lo, hi, x):
        points.append(np.size(x))
        return slope(lo, hi, x)

    def recording_grid(lo, hi):
        grid = shift_grid(lo, hi)
        grids.append(grid[0].size)
        return grid

    monkeypatch.setattr(rates, "_slope", recording_slope)
    monkeypatch.setattr(rates, "_shift_grid", recording_grid)
    rep = rates.classify(parse_set("[0,0.001] U [5,5.001]"), 0.5, 2)
    assert rep.regime == "dilation"
    assert max(grids) > 130_000
    assert points and max(points) <= 1000


def test_near_slack_screen_evaluates_midpoints_of_kept_cells_only(monkeypatch):
    # the case of the 128-row pin above: every midpoint pass of a row keeps
    # only the cells whose larger end is within twice the slack of the row
    # maximum, 38,110 midpoints in all when every cell was evaluated
    s, p = _scan_cases(61, 8)[7]
    mids = []
    in_grid = [False]
    shift_grid, shifted_mass = rates._shift_grid, rates.shifted_mass

    def marking_grid(lo, hi):
        in_grid[0] = True
        try:
            return shift_grid(lo, hi)
        finally:
            in_grid[0] = False

    def recording_mass(lo, hi, xs):
        if not in_grid[0]:
            mids.append(xs.size)
        return shifted_mass(lo, hi, xs)

    monkeypatch.setattr(rates, "_shift_grid", marking_grid)
    monkeypatch.setattr(rates, "shifted_mass", recording_mass)
    _, r, _, _ = rates._first_crossing(s.lo, s.hi, p)
    assert r == 0.293
    assert len(mids) == 157
    assert sum(mids) < 10_000


# -- one-component closed forms --------------------------------------------------

def _levels(rng, base, top=0.999):
    """p from just above ``base`` up to ``top`` (up to 1 when base >= top)."""
    top = top if base < top else 1.0
    ps = [math.nextafter(base, 1.0), base + 1e-12,
          *(base + (top - base) * rng.uniform(0.0, 1.0, size=4)), top]
    return [float(p) for p in ps if base < p < 1.0]


def _search_report(s, p, monkeypatch):
    """classify(s, p, 2) with the sup over shifts and the shift cost searched."""
    with monkeypatch.context() as m:
        m.setattr(rates, "_sup_shift", rates._screened_sup)
        m.setattr(rates, "i_tilde",
                  lambda s, p: (0.0, 0.0) if nu(s) >= p else rates._screened_shift_cost(s, p))
        return rates.classify(s, p, 2)


@pytest.mark.parametrize("seed", [81, 82])
def test_one_interval_closed_forms_equal_the_searches(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        width = float(10.0 ** rng.uniform(-6.0, math.log10(8.0)))
        a = float(rng.uniform(-4.0, 4.0))
        s = IntervalSet.closed(a, a + width)
        sup, x = rates._sup_shift(s.lo, s.hi)
        ref = rates._screened_sup(s.lo, s.hi)
        assert abs(sup - ref[0]) <= 1e-15
        assert rates.sup_shift_measure(s) == (sup, x)
        for p in _levels(rng, sup):
            r, _, xd = rates._dilation_cost(s, p)
            top = math.nextafter(1.0, 0.0)
            assert rates._dilated_sup(s.lo, s.hi, top)[0] >= p
            assert abs(r - _bisect_reference(s.lo, s.hi, p, 0.0, top)) <= rates.ROOT_TOL
            # the witness reaches p, or a rounding hair below it
            assert xd == x
            assert varphi(s, r, xd) >= p - 1e-15
            rep, ref_rep = rates.classify(s, p, 2), _search_report(s, p, monkeypatch)
            assert (rep.regime, rep.near_critical) == (ref_rep.regime, ref_rep.near_critical)


@pytest.mark.parametrize("seed", [83, 84])
def test_half_line_closed_form_equals_the_screen(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        end = float(rng.uniform(-4.0, 4.0))
        closed = bool(rng.integers(2))
        for s in (IntervalSet.below(end, closed), IntervalSet.above(end, closed)):
            for p in _levels(rng, nu(s)):
                value, x = rates.i_tilde(s, p)
                ref = rates._screened_shift_cost(s, p)
                assert abs(value - ref[0]) <= rates.ROOT_TOL
                assert abs(x - ref[1]) <= rates.ROOT_TOL
                assert value == abs(x)
                assert shifted_nu(s, x) >= p - 1e-15
                rep, ref_rep = rates.classify(s, p, 2), _search_report(s, p, monkeypatch)
                assert (rep.regime, rep.near_critical) == (ref_rep.regime, ref_rep.near_critical)
                assert rates.j_tilde(s, p) == (0.0, 0.0, x)


def test_classify_builds_no_shift_grid_for_one_component(monkeypatch):
    def no_grid(*args):
        raise AssertionError("a shift grid was searched")

    monkeypatch.setattr(rates, "_shift_grid", no_grid)
    monkeypatch.setattr(rates, "_slope", no_grid)
    for text, p in [("[1,2]", 0.5), ("[-1,1]", 0.95),
                    ("(-inf,0]", 0.8), ("[0,inf)", 0.75), ("[2.5,3.5]", 0.4)]:
        s = parse_set(text)
        rep = rates.classify(s, p, 2)
        if s.has_half_line():
            assert rep.regime == "shift"
        else:
            assert rep.regime == "dilation" and rep.x_star_dilation == sum(s.hull()) / 2


# -- oracle agreement --------------------------------------------------------------

def test_rate_suite_oracle_equivalence_sample():
    # three representative cases here; the full 20-case sweep runs in acceptance
    for s, p, _ in [rate_suite_sets()[i] for i in (0, 7, 13)]:
        value, _ = rates.i_tilde(s, p)
        brute = brute_force_i(s, p)
        if brute == INF:
            assert value == INF
            jv, _, _ = rates.j_tilde(s, p)
            assert abs(jv - brute_force_j(s, p)) < 1e-3
        else:
            assert abs(value - brute) < 1e-3


# -- interpolation family ------------------------------------------------------------

def test_interpolation_quantile():
    fam = rates.interpolation_set(0.75, 0.5, 0.1, 2, 8)
    assert abs(fam.a - A_HALF) < 1e-10
    assert abs(nu(fam.base) - 0.5) < 1e-12  # nu([-a,a]) = p


def test_interpolation_r_formula():
    fam = rates.interpolation_set(0.75, 0.5, 0.1, 2, 16)
    k, x_k, r_k = fam.members[-1]
    assert k == 16
    assert abs(x_k - 16 ** 1.1) < 1e-12
    assert abs(r_k - math.sqrt(1 - 16 ** -1.1)) < 1e-12


def test_interpolation_r_increases_to_one():
    fam = rates.interpolation_set(0.8, 0.3, 0.2, 2, 40)
    rs = [m[2] for m in fam.members]
    assert all(r1 < r2 for r1, r2 in zip(rs, rs[1:]))
    assert rs[-1] > 0.97


def test_interpolation_components_disjoint():
    # delta=0.1 separates from the start; delta=0.05 only beyond k ~ 142
    for k0, delta, big_k in ((2, 0.1, 40), (142, 0.05, 180)):
        fam = rates.interpolation_set(0.75, 0.5, delta, k0, big_k)
        comps = fam.truncated.components
        assert len(comps) == len(fam.members)
        for c1, c2 in zip(comps, comps[1:]):
            assert c1.upper < c2.lower


def test_interpolation_overlap_reported():
    # small k0 at small delta collides; the error tells the caller to raise k0
    with pytest.raises(InfeasibleError, match="raise k0"):
        rates.interpolation_set(0.75, 0.5, 0.05, 3, 30)
    with pytest.raises(InfeasibleError):
        rates.interpolation_set(0.75, 0.999, 0.01, 2, 10)


def test_interpolation_validates():
    with pytest.raises(ValueError):
        rates.interpolation_set(0.4, 0.5, 0.1, 2, 5)
    with pytest.raises(ValueError):
        rates.interpolation_set(0.75, 0.5, 0.1, 1, 5)
    with pytest.raises(ValueError):
        rates.interpolation_set(0.75, 0.5, -0.1, 2, 5)


def test_cost_exponent_main_case():
    fit = rates.interpolation_cost_exponent(
        0.75, 0.5, 0.05, 2, [100, 1000, 10_000, 100_000], 2)
    assert 0.70 <= fit.alpha_hat <= 0.80


def test_cost_exponent_prescribed_k_feasible():
    # the value checked at the prescribed index matches the dilated base measure
    # up to O(1/sqrt(n)) and stays feasible
    alpha, p, delta = 0.75, 0.5, 0.05
    a = A_HALF
    for n in (10_000, 100_000):
        k = math.ceil(n ** ((alpha - 0.5) / (1 + delta)))
        x_k = k ** (1 + delta)
        r_k = math.sqrt(1 - k ** (-(1 - alpha) * (1 + delta) / (alpha - 0.5)))
        w = math.floor(x_k * math.sqrt(n))
        member = IntervalSet.closed(-a, a).scale(r_k).shift(x_k)
        value = varphi(member, 1.0 - (n - w) / n, x_k)
        reference = nu(IntervalSet.closed(-a, a).scale(
            r_k / math.sqrt(1.0 - n ** -(1.0 - alpha))))
        assert abs(value - reference) <= 5.0 / math.sqrt(n)
        assert value >= p - 5.0 / math.sqrt(n)


def test_cost_exponent_larger_delta_smaller_k():
    n_grid = [10_000, 20_000]
    small = rates.interpolation_cost_exponent(0.75, 0.5, 0.05, 2, n_grid, 2)
    large = rates.interpolation_cost_exponent(0.75, 0.5, 0.30, 2, n_grid, 2)
    for (_, k_small, _, _), (_, k_large, _, _) in zip(small.points, large.points):
        assert k_large <= k_small
