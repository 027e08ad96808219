import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from brwlab import gaussian as g
from brwlab import rates
from brwlab.intervals import EMPTY, REALS, Component, IntervalSet, lattice_ends
from conftest import mirror, paths_ending_in, random_interval_set

mpmath.mp.dps = 40


def phi_oracle(z: float) -> float:
    return float(0.5 * mpmath.erfc(-z / mpmath.sqrt(2)))


def nu_oracle(s: IntervalSet) -> float:
    total = mpmath.mpf(0)
    for c in s:
        total += 0.5 * mpmath.erfc(c.lower / mpmath.sqrt(2)) \
            - 0.5 * mpmath.erfc(c.upper / mpmath.sqrt(2))
    return float(total)


# -- phi ----------------------------------------------------------------------

def test_phi_at_zero():
    assert g.phi(0.0) == 0.5


def test_phi_quantile_values():
    assert abs(g.phi(1.96) - phi_oracle(1.96)) < 1e-15
    assert abs(g.phi(1.96) - 0.9750021048517795) < 1e-12


def test_phi_deep_tail():
    expect = phi_oracle(-8.0)  # ~6.22e-16
    assert abs(g.phi(-8.0) - expect) < 1e-14
    assert abs(g.phi(-8.0) / expect - 1.0) < 1e-9


def test_phi_symmetry_and_monotone(rng):
    zs = rng.normal(0, 3, size=300)
    for z in zs:
        assert abs(g.phi(z) + g.phi(-z) - 1.0) < 1e-15
    grid = np.linspace(-6, 6, 500)
    vals = [g.phi(z) for z in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_phi_vs_oracle_grid():
    for z in np.linspace(-10, 10, 401):
        assert abs(g.phi(float(z)) - phi_oracle(float(z))) < 1e-14


# -- nu -----------------------------------------------------------------------

def test_nu_basic_sets():
    assert g.nu(IntervalSet.below(0)) == 0.5
    assert g.nu(EMPTY) == 0.0
    assert g.nu(REALS) == 1.0


def test_nu_symmetric_interval():
    got = g.nu(IntervalSet.closed(-1.96, 1.96))
    assert abs(got - 0.950004209703559) < 1e-12


def test_nu_complement_additivity(rng):
    for _ in range(100):
        s = random_interval_set(rng)
        assert abs(g.nu(s) + g.nu(s.complement()) - 1.0) < 1e-13


def test_nu_additive_over_disjoint(rng):
    for _ in range(100):
        a = float(rng.normal(0, 2))
        w1, gap, w2 = rng.uniform(0.1, 2, size=3)
        s1 = IntervalSet.closed(a, a + w1)
        s2 = IntervalSet.open(a + w1 + gap, a + w1 + gap + w2)
        assert abs(g.nu(s1.union(s2)) - (g.nu(s1) + g.nu(s2))) < 1e-13


def test_nu_vs_high_precision_oracle(rng):
    for _ in range(150):
        s = random_interval_set(rng, span=4.0)
        assert abs(g.nu(s) - nu_oracle(s)) < 1e-13


def test_nu_deep_tail_component():
    s = IntervalSet.closed(8, 9)
    assert abs(g.nu(s) - nu_oracle(s)) < 1e-16
    assert g.nu(s) / nu_oracle(s) == pytest.approx(1.0, rel=1e-9)


# -- affine family: nu(rho*S + xi) as nu(s.scale(rho).shift(xi)) -------------------

def test_nu_affine_identity():
    assert g.nu(IntervalSet.below(0).scale(1.0).shift(0.0)) == 0.5


def test_nu_affine_matches_definition():
    a = IntervalSet.closed(-1, 1)
    assert g.nu(a.scale(2.0).shift(0.0)) == g.nu(IntervalSet.closed(-2, 2))


def test_nu_affine_xi_derivative_finite_difference():
    a = IntervalSet.closed(0, 1)
    h = 1e-5
    fd = (g.nu(a.scale(1.0).shift(h)) - g.nu(a.scale(1.0).shift(-h))) / (2 * h)
    analytic = -(g.normal_pdf(0.0) - g.normal_pdf(1.0))
    assert abs(fd - analytic) < 1e-6


def test_nu_affine_smooth_second_differences():
    # central 2nd differences converge as the mesh shrinks
    a = IntervalSet.closed(-0.7, 0.4)
    f = lambda xi: g.nu(a.scale(1.3).shift(xi))
    ref = None
    errs = []
    for h in (1e-2, 1e-3):
        d2 = (f(h) - 2 * f(0.0) + f(-h)) / h**2
        if ref is None:
            ref = d2
        else:
            errs.append(abs(d2 - ref))
            ref = d2
    assert errs[0] < 1e-3


def test_varphi_reduces_to_nu():
    a = IntervalSet.closed(-1.2, 0.3).union(IntervalSet.closed(1.0, 2.0))
    assert g.varphi(a, 0.0, 0.0) == g.nu(a)


def test_varphi_dilation_example():
    assert g.varphi(IntervalSet.closed(-1, 1), 0.75, 0.0) == \
        g.nu(IntervalSet.closed(-2, 2))


def test_varphi_half_line_closed_form(rng):
    a = IntervalSet.below(0)
    for _ in range(50):
        r = float(rng.uniform(0, 0.99))
        x = float(rng.normal(0, 2))
        assert abs(g.varphi(a, r, x) - g.phi(-x / math.sqrt(1 - r))) < 1e-14


def test_varphi_domain():
    with pytest.raises(ValueError):
        g.varphi(REALS, 1.0, 0.0)
    with pytest.raises(ValueError):
        g.varphi(REALS, -0.1, 0.0)


def test_varphi_scaling_identity(rng):
    # varphi sums component masses in place; it equals the measure of the
    # built set exactly
    for _ in range(60):
        s = random_interval_set(rng)
        for r in (0.0, float(rng.uniform(0, 0.95))):
            x = float(rng.normal(0, 2))
            assert g.varphi(s, r, x) == g.nu(s.shift(-x).scale(1.0 / math.sqrt(1.0 - r)))


def test_varphi_matches_built_set_on_dichotomy_cases():
    # the 200 (set, p) cases of the dichotomy criterion, at their dilation
    # witnesses where they have one and at a random (r, x) each
    rng = np.random.default_rng(1004)
    pick = np.random.default_rng(4)
    cases = 0
    while cases < 200:
        s = random_interval_set(rng)
        base = g.nu(s)
        if base >= 1.0 - 1e-9:
            continue
        p = base + (1.0 - base) * float(rng.uniform(0.02, 0.98))
        if not 0.0 < p < 1.0:
            continue
        cases += 1
        points = [(float(pick.uniform(0, 0.99)), float(pick.normal(0, 2)))]
        rep = rates.classify(s, p, 2)
        if rep.regime == "dilation":
            points.append((rep.r_star, rep.x_star_dilation))
        for r, x in points:
            assert g.varphi(s, r, x) == g.nu(s.shift(-x).scale(1.0 / math.sqrt(1.0 - r)))


# -- the vectorized Phi -----------------------------------------------------------

def test_phi_array_within_2_pow_minus_52_of_mpmath():
    # uniform points on [-40, 10] plus every midpoint between Taylor nodes,
    # where the truncated series is furthest from its node
    rng = np.random.default_rng(71)
    nodes = np.arange(g._T_LO * g._NODES, g._T_HI * g._NODES) / g._NODES
    t = np.concatenate([rng.uniform(-40.0, 10.0, 4000), nodes + 0.5 / g._NODES])
    exact = np.array([phi_oracle(z) for z in t.tolist()])
    err = np.abs(g._phi_array(t) - exact)
    assert err.max() <= 2.0 ** -52
    # the relative error the module docstring states, which an eight-term
    # series misses in the tail
    for above, bound in ((-5.0, 5e-15), (-20.0, 1e-10)):
        assert (err[t > above] / exact[t > above]).max() <= bound
    assert g._phi_array(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


def test_phi_array_at_nodes_equals_scalar_phi():
    nodes = np.arange(g._T_LO * g._NODES, g._T_HI * g._NODES + 1) / g._NODES
    assert g._phi_array(nodes).tolist() == [g.phi(z) for z in nodes.tolist()]


def test_phi_array_against_ndtr_on_a_dense_grid():
    from scipy.special import ndtr
    t = np.concatenate([np.linspace(-45.0, 12.0, 200_001),
                        [-np.inf, -1e300, -39.0, 9.0, 1e300, np.inf]])
    assert np.abs(g._phi_array(t) - ndtr(t)).max() <= 2.0 ** -51


def test_phi_array_keeps_shape_and_gives_nan_for_nan():
    t = np.array([[0.0, np.nan, 1.0], [np.nan, -np.inf, np.inf]])
    out = g._phi_array(t)
    assert out.shape == t.shape
    assert np.array_equal(np.isnan(out), np.isnan(t))
    assert out[~np.isnan(t)].tolist() == [0.5, g.phi(1.0), 0.0, 1.0]


def test_phi_array_chunks_change_no_bit(monkeypatch):
    # three and a half chunks, with the clamp edges, infinities and NaNs
    # among them, flat and as a 2-D array, against one unchunked pass
    rng = np.random.default_rng(83)
    edges = [-np.inf, np.inf, np.nan, -1e300, 1e300, -39.0, 9.0,
             -39.0 - 1 / 64, 9.0 + 1 / 64, -39.0 + 1 / 64, 9.0 - 1 / 64, 0.0]
    t = np.concatenate([rng.uniform(-45.0, 12.0, 7 * g._CHUNK // 2 - len(edges)), edges])
    rng.shuffle(t)
    chunked = [g._phi_array(t), g._phi_array(t.reshape(7, -1))]
    monkeypatch.setattr(g, "_CHUNK", t.size)
    assert chunked[0].tobytes() == g._phi_array(t).tobytes()
    assert chunked[1].shape == (7, t.size // 7)
    assert chunked[1].tobytes() == g._phi_array(t.reshape(7, -1)).tobytes()


def test_shifted_mass_over_a_million_shifts_stays_small():
    # one unchunked pass gathered (9, 4 10^6) coefficients, about 400 MB at
    # its peak; in chunks the (4, 10^6) arrays of offsets and values dominate
    xs = np.linspace(-45.0, 45.0, 10 ** 6)
    lo, hi = np.array([-1.0, 2.0]), np.array([0.5, 3.0])
    tracemalloc.start()
    try:
        masses = g.shifted_mass(lo, hi, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 27   # 128 MiB
    assert masses[[0, -1]].tolist() == [0.0, 0.0]
    assert masses[xs.size // 2] == g.shifted_mass(lo, hi, xs[[xs.size // 2]])[0]


@pytest.mark.parametrize("seed", [81, 82])
def test_shifted_mass_matches_scalar_shifted_nu(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        s = random_interval_set(rng, max_components=4)
        xs = rng.normal(0.0, 4.0, size=33)
        masses = g.shifted_mass(s.lo, s.hi, xs)
        scalar = [g.shifted_nu(s, x) for x in xs.tolist()]
        assert np.abs(masses - scalar).max() <= 2 * s.lo.size * 2.0 ** -52


def test_nu_shifted_grid_matches_scalar(rng):
    for _ in range(20):
        s = random_interval_set(rng)
        xs = rng.normal(0, 3, size=17)
        grid = g.nu_shifted_grid(s, xs)
        for x, v in zip(xs, grid):
            assert abs(v - g.nu(s.shift(-float(x)))) < 1e-12


# -- walk law -------------------------------------------------------------------

def srw_pmf_exact(n: int, k: int) -> Fraction:
    """Exact rational P(walk at k after n steps), the oracle for small n."""
    if abs(k) > n or (n + k) % 2 != 0:
        return Fraction(0)
    return Fraction(math.comb(n, (n + k) // 2), 1 << n)


def test_srw_pmf_basics():
    assert g.srw_pmf(1, 1) == 0.5
    assert g.srw_pmf(3, 0) == 0.0  # parity
    assert g.srw_pmf(2, 0) == 0.5  # C(2,1)/4
    assert g.srw_pmf(0, 0) == 1.0
    assert g.srw_pmf(5, 7) == 0.0


def test_srw_pmf_matches_exact_fractions():
    for n in (1, 2, 7, 16, 33, 64):
        for k in range(-n, n + 1):
            assert g.srw_pmf(n, k) == float(srw_pmf_exact(n, k))


def test_srw_pmf_exact_sums_to_one():
    for n in (1, 5, 24, 64):
        total = sum(srw_pmf_exact(n, k) for k in range(-n, n + 1, 2))
        assert total == Fraction(1)


@pytest.mark.parametrize("n", [1, 2, 17, 100, 1023, 10_000])
def test_srw_pmf_row_sums(n):
    total = math.fsum(g.srw_pmf(n, k) for k in range(-n, n + 1, 2))
    assert abs(total - 1.0) < 1e-12


def test_nu_n_of_set_examples():
    assert g.nu_n_of_set(2, IntervalSet.below(0)) == 0.75
    assert g.nu_n_of_set(7, REALS) == 1.0
    assert g.nu_n_of_set(4, IntervalSet.above(0)) == g.nu_n_of_set(4, IntervalSet.below(0, closed=False))


def test_nu_n_of_set_open_closed_lattice():
    # lattice point on an open endpoint is excluded, on a closed one included
    assert g.nu_n_of_set(2, IntervalSet.interval(0, 2, True, True)) == 0.75
    assert g.nu_n_of_set(2, IntervalSet.interval(0, 2, False, True)) == 0.25
    assert g.nu_n_of_set(2, IntervalSet.interval(0, 2, False, False)) == 0.0


def _assert_correctly_rounded(rng, n):
    # Endpoints sit on lattice points half of the time, with random flags.
    cuts = np.sort(rng.uniform(-n - 3, n + 3, size=2 * int(rng.integers(1, 4))))
    on_lattice = rng.random(cuts.size) < 0.5
    cuts = np.unique(np.where(on_lattice, np.round(cuts), cuts))
    parts = [Component(float(lo), float(hi), bool(rng.integers(2)), bool(rng.integers(2)))
             for lo, hi in zip(cuts[::2], cuts[1::2])]
    if rng.random() < 0.2:
        parts.append(Component(-math.inf, float(cuts[0]) - 1.0, False,
                               bool(rng.integers(2))))
    s = IntervalSet(tuple(parts))
    exact = sum((srw_pmf_exact(n, k) for k in range(-n, n + 1)
                 if s.contains(float(k))), Fraction(0))
    assert g.nu_n_of_set(n, s) == float(exact)


def test_nu_n_of_set_correctly_rounded(rng):
    for _ in range(150):
        _assert_correctly_rounded(rng, int(rng.integers(0, 65)))
    # around n = 1024, where a path count may pass the float range (2^1024)
    # and only the integer quotient stays correctly rounded
    for n in (1021, 1022, 1023, 1024, 1100):
        _assert_correctly_rounded(rng, n)


def test_nu_n_of_set_concentration_reference():
    assert g.nu_n_of_set(16, IntervalSet.below(0)) == 39203 / 65536


def test_nu_n_reflection(rng):
    for _ in range(60):
        s = random_interval_set(rng)
        n = int(rng.integers(1, 30))
        assert g.nu_n_of_set(n, s) == pytest.approx(g.nu_n_of_set(n, mirror(s)), abs=1e-15)


def test_nu_n_matches_monte_carlo(rng):
    n = 10
    walks = 200_000
    steps = rng.integers(0, 2, size=(walks, n)) * 2 - 1
    counts = np.bincount(steps.sum(axis=1) + n, minlength=2 * n + 1)
    for _ in range(8):
        s = random_interval_set(rng)
        exact = g.nu_n_of_set(n, s)
        hits = sum(counts[k + n] for k in range(-n, n + 1) if s.contains(float(k)))
        sigma = math.sqrt(max(exact * (1 - exact), 1e-9) / walks)
        assert abs(hits / walks - exact) < 4.5 * sigma + 1e-9


# -- uniformity scan -------------------------------------------------------------

def test_scan_reals_is_zero():
    assert g.clt_uniformity_scan(REALS, 2.0, 16).sup_error == 0.0


def test_scan_dominates_pointwise_discrepancy():
    a = IntervalSet.below(0)
    n = 36
    res = g.clt_uniformity_scan(a, 2.0, n)
    # the grid contains rho=1, xi=0
    direct = abs(g.nu_n_of_set(n, a.scale(6.0)) - g.nu(a))
    assert res.sup_error >= direct - 1e-15


def test_scan_decreasing_in_n():
    for a in (IntervalSet.below(0), IntervalSet.closed(-1, 1),
              IntervalSet.closed(0, 1).union(IntervalSet.closed(2, 3))):
        errs = [g.clt_uniformity_scan(a, 2.0, n).sup_error for n in (25, 100, 400)]
        assert errs[0] >= errs[1] >= errs[2]


def test_scan_matches_pointwise_loop():
    # The scan against one nu_n_of_set / nu pair per grid point.
    a = IntervalSet.closed(-1, 1).union(IntervalSet.interval(1.5, 2.5, False, True))
    n, big_r = 16, 2.0
    res = g.clt_uniformity_scan(a, big_r, n, rho_points=9)
    half = math.ceil(res.xi_radius * math.sqrt(n))
    worst = max(abs(g.nu_n_of_set(n, a.scale(float(rho)).shift(j * res.xi_step).scale(4.0))
                    - g.nu(a.scale(float(rho)).shift(j * res.xi_step)))
                for rho in np.linspace(1.0 / big_r, big_r, 9)
                for j in range(-half, half + 1))
    assert abs(res.sup_error - worst) < 1e-15


@pytest.mark.parametrize("ends", [1, 500])
def test_scan_in_smaller_chunks_gives_the_same_result(ends, monkeypatch):
    # one rho row per chunk, and chunks of two rows with a shorter last one
    a = IntervalSet.closed(-1, 1).union(IntervalSet.interval(1.5, 2.5, False, True))
    whole = g.clt_uniformity_scan(a, 2.0, 16, rho_points=9)
    monkeypatch.setattr(g, "_SCAN_ENDS", ends)
    assert g.clt_uniformity_scan(a, 2.0, 16, rho_points=9) == whole


def _divided(counts, n):
    """The reference scaling: exact integers divided, correctly rounded."""
    return (counts / (1 << n)).astype(float)


_SAMPLED_N = sorted(np.random.default_rng(91).integers(1, 1023, 6).tolist())


def _integer_scan(s, big_r, n, rho_points):
    """The scan's largest |nu_n - nu| over its (rho, xi) grid, with the walk
    side from exact path counts divided with correct rounding, one rho row
    at a time; the Gaussian side as the scan computes it."""
    sqrt_n = math.sqrt(n)
    half = math.ceil((big_r * s.finite_endpoint_bound() + 10.0) * sqrt_n)
    xis = np.arange(-half, half + 1) * (1.0 / sqrt_n)
    worst = 0.0
    for rho in np.linspace(1.0 / big_r, big_r, rho_points):
        img_lo = s.lo[:, None] * rho + xis
        img_hi = s.hi[:, None] * rho + xis
        counts = paths_ending_in(n, *lattice_ends(
            img_lo * sqrt_n, s.lo_closed[:, None], img_hi * sqrt_n,
            s.hi_closed[:, None])).sum(axis=0)
        cdf = g._phi_array(np.stack((img_hi, img_lo)))
        gauss = (cdf[0] - cdf[1]).sum(axis=0)
        worst = max(worst, float(np.abs(_divided(counts, n) - gauss).max()))
    return worst


@pytest.mark.parametrize("n", _SAMPLED_N + [1022, 1023, 1024, 1100])
def test_scan_equals_its_integer_division_reference(n):
    # the scan reads the cut float row; its sup_error is within the bound
    # its docstring states of a scan on exact integers, correctly rounded
    a = IntervalSet.closed(-1, 1).union(IntervalSet.interval(1.5, 2.5, False, True))
    res = g.clt_uniformity_scan(a, 2.0, n, rho_points=3)
    c = len(a.components)
    bound = g._table_error(n, c) + c * 2.0 ** -50
    assert abs(res.sup_error - _integer_scan(a, 2.0, n, 3)) <= bound


def test_scan_metadata_records_truncation():
    a = IntervalSet.closed(-1.5, 2.0)
    res = g.clt_uniformity_scan(a, 2.0, 25)
    assert res.xi_radius == 2.0 * 2.0 + 10.0
    assert res.xi_step == pytest.approx(1.0 / 5.0)
    assert abs(res.xi_at) <= res.xi_radius + 1e-12
