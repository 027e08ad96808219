import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from brwlab import engine
from brwlab.engine import BranchingLaw, ParticleMeasure
from brwlab.errors import InfeasibleError, PopulationCapError
from brwlab.gaussian import nu_n_of_set
from brwlab.intervals import EMPTY, REALS, IntervalSet, parse_set
from brwlab.streams import derive


# -- BranchingLaw ----------------------------------------------------------------

def test_law_validation():
    with pytest.raises(ValueError):
        BranchingLaw((1, 2), (0.5, 0.5))     # below minimal support
    with pytest.raises(ValueError):
        BranchingLaw((2, 3), (0.6, 0.6))     # does not sum to 1
    with pytest.raises(ValueError):
        BranchingLaw((2, 2), (0.5, 0.5))     # duplicate
    with pytest.raises(ValueError):
        BranchingLaw((), ())


def test_law_fields():
    law = BranchingLaw.binary_ternary()
    assert law.b == 2 and law.p_b == 0.5 and law.kmax == 3
    assert law.beta == 2.5
    assert abs(law.variance - 0.25) < 1e-15
    assert law.non_deterministic
    assert not BranchingLaw.binary().non_deterministic


def test_law_parse_round_trip():
    law = BranchingLaw.parse("2:0.5, 3:0.5")
    assert law == BranchingLaw.binary_ternary()
    assert BranchingLaw.parse(str(law)) == law
    with pytest.raises(ValueError):
        BranchingLaw.parse("2;1.0")
    with pytest.raises(ValueError):
        BranchingLaw.parse("2:0.5,3:0.6")


def test_sample_total_range(rng):
    law = BranchingLaw.binary_ternary()
    for _ in range(50):
        t = law.sample_total(10, rng)
        assert 20 <= t <= 30


# -- ParticleMeasure ----------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        ParticleMeasure({})
    with pytest.raises(ValueError):
        ParticleMeasure({0: -1})
    m = ParticleMeasure({0: 2, 5: 0})
    assert m.counts == {0: 2}


# -- single steps ----------------------------------------------------------------

def test_step_exact_binary_from_origin(rng):
    child = engine.step_exact(ParticleMeasure.delta(0), BranchingLaw.binary(), rng)
    assert child.total == 2
    assert set(child.counts) <= {-1, 1}


def test_step_exact_support_growth(rng):
    law = BranchingLaw.binary_ternary()
    m = ParticleMeasure({-2: 3, 4: 2})
    child = engine.step_exact(m, law, rng)
    assert min(child.counts) >= -3 and max(child.counts) <= 5


def test_step_exact_cap():
    with pytest.raises(PopulationCapError):
        engine.step_exact(ParticleMeasure.delta(0, count=11), BranchingLaw.binary(),
                          derive(0, 0), cap=10)


def test_step_exact_mean_growth(rng):
    law = BranchingLaw.binary_ternary()
    totals = []
    for i in range(100):
        child = engine.step_exact(ParticleMeasure.delta(0, count=1000), law, derive(5, i))
        totals.append(child.total)
    se = math.sqrt(1000 * law.variance / 100)
    assert abs(np.mean(totals) - 2500) < 4 * se + 1


def _final_block(start, law, n, rows, rng):
    # the block after n generations of the production vector kernel
    return engine.evolve(start, law, n, rows, rng, REALS)[1]


def measure_of(block, row: int) -> ParticleMeasure:
    """Row ``row`` of a `_VectorState` as a measure of exact integers.

    A row holds integer-valued floats times 2**exp2[row]; a value's 53-bit
    mantissa shifted by its exponent plus exp2[row] is its count, exact above
    2^53 too.  The block does not count its generations, so the measure's
    is left at 0.
    """
    counts: dict[int, int] = {}
    exp2 = int(block.exp2[row])
    for x, val in zip(block.positions().tolist(), block.v[row].tolist()):
        if val <= 0.0:
            continue
        if exp2 == 0:
            counts[x] = int(round(val))
        else:
            mant, e2 = math.frexp(val)
            whole = int(mant * 2.0 ** 53)
            shift = exp2 + e2 - 53
            counts[x] = whole << shift if shift >= 0 else whole >> -shift
    return ParticleMeasure(counts)


def test_parity_invariant():
    law = BranchingLaw.binary_ternary()
    block = _final_block(ParticleMeasure.delta(0), law, 9, 3, derive(11, 0))
    for r in range(3):
        counts = measure_of(block, r).counts
        assert all((x - 9) % 2 == 0 for x in counts)
        assert all(abs(x) <= 9 for x in counts)


def _aggregated_step(start: ParticleMeasure, law: BranchingLaw,
                     rng: np.random.Generator) -> ParticleMeasure:
    # one generation of a one-row block: the draws of a one-row `evolve`
    block = engine._VectorState([start], [1], [1], [rng])
    block.step(law)
    return measure_of(block, 0)


def _blocks(start, n, replicas, seed):
    """(rows, stream) of each block of ``replicas`` runs of ``start``, keyed
    as `simulate` keys its blocks."""
    size = engine.block_rows(start, n)
    return [(min(size, replicas - first), derive(seed, b))
            for b, first in enumerate(range(0, replicas, size))]


def test_aggregated_step_doubles_exactly_deterministic(rng):
    law = BranchingLaw.binary()
    # exact draws up to 2^53 parents, the float-scaled path above
    for c in (3, 64, 1000, 2 ** 40, 2 ** 53, 2 ** 53 + 2, 2 ** 80, 2 ** 200):
        child = _aggregated_step(ParticleMeasure.delta(0, count=c), law, rng)
        assert child.total == 2 * c


def test_aggregated_step_split_conserves(rng):
    law = BranchingLaw.binary_ternary()
    for c in (10, 100, 10 ** 5, 2 ** 53, 2 ** 53 + 2, 2 ** 54 + 12345, 2 ** 90 + 7):
        child = _aggregated_step(ParticleMeasure.delta(3, count=c), law, rng)
        assert set(child.counts) <= {2, 4}
        assert child.total >= 2 * c


def test_aggregated_step_total_within_law_support(rng):
    # above 2^53 parents the approximate total is clamped to [b c, kmax c]
    law = BranchingLaw.parse("3:0.5,5:0.5")
    c = 2 ** 60
    for _ in range(20):
        child = _aggregated_step(ParticleMeasure.delta(0, count=c), law, rng)
        assert 3 * c <= child.total <= 5 * c


def test_aggregated_small_count_path_matches_exact_distribution():
    # totals from 64 and 200 parents: the vector kernel reproduces the exact law
    law = BranchingLaw.binary_ternary()
    n = 10_000
    for c in (64, 200):
        start = ParticleMeasure.delta(0, count=c)
        t_exact = np.array([engine.step_exact(start, law, derive(21, c, i)).total
                            for i in range(n)])
        t_agg = np.array([_aggregated_step(start, law, derive(22, c, i)).total
                          for i in range(n)])
        bins = np.arange(2 * c, 3 * c + 2)
        h1, _ = np.histogram(t_exact, bins=bins)
        h2, _ = np.histogram(t_agg, bins=bins)
        keep = (h1 + h2) >= 10
        table = np.vstack([h1[keep], h2[keep]])
        _, pvalue, _, _ = sps.chi2_contingency(table)
        assert pvalue > 0.01


@pytest.mark.parametrize("law_text", ["2:1", "2:0.5,3:0.5", "2:0.3,3:0.5,4:0.2"])
def test_aggregated_small_sites_draw_multinomial_then_binomial(law_text):
    # below 2^53 parents a vector step draws every site's offspring total as
    # multinomial(c, probs) @ support, then every split as binomial(t, 1/2),
    # from the replica's stream in that order
    law = BranchingLaw.parse(law_text)
    start = ParticleMeasure({0: 37, 2: 5, 4: 10 ** 6})
    child = _aggregated_step(start, law, derive(14, 0))
    rng = derive(14, 0)
    parents = np.array([37, 5, 10 ** 6])
    if law.non_deterministic:
        kids = rng.multinomial(parents, law.probs) @ np.array(law.support)
    else:
        kids = parents * law.b
    right = rng.binomial(kids, 0.5)
    left = kids - right
    expect = {-1: left[0], 1: right[0] + left[1], 3: right[1] + left[2],
              5: right[2]}
    assert child.counts == {x: int(c) for x, c in expect.items()}


def test_aggregated_normal_path_close_to_exact_distribution():
    # 2^60 parents, beyond the exact draws: the standardized total and split
    # follow the exact laws' normal limits (binomial(c, 1/2) shifted by 2c,
    # binomial(t, 1/2) for the split)
    law = BranchingLaw.binary_ternary()
    c = 2 ** 60
    start = ParticleMeasure.delta(0, count=c)
    n = 2000
    z_total = np.empty(n)
    z_split = np.empty(n)
    for i in range(n):
        child = _aggregated_step(start, law, derive(32, i))
        t = child.total
        z_total[i] = (t - c * law.beta) / math.sqrt(c * law.variance)
        z_split[i] = (child.counts[1] - t / 2) / (0.5 * math.sqrt(t))
    for z in (z_total, z_split):
        assert abs(z.mean()) < 4 / math.sqrt(n)
        _, pvalue = sps.kstest(z, "norm")
        assert pvalue > 0.001


def test_aggregated_heavy_tail_law_is_exact():
    # 100 parents under 2:0.995,200:0.005: P(total = 200) = 0.995^100, mean 299
    law = BranchingLaw.parse("2:0.995,200:0.005")
    start = ParticleMeasure.delta(0, count=100)
    n = 4000
    totals = np.array([_aggregated_step(start, law, derive(41, i)).total
                       for i in range(n)])
    p_min = 0.995 ** 100
    freq = float(np.mean(totals == 200))
    assert abs(freq - p_min) < 4 * math.sqrt(p_min * (1 - p_min) / n)
    se = math.sqrt(100 * law.variance / n)
    assert abs(totals.mean() - 100 * law.beta) < 4 * se


# -- evolve ----------------------------------------------------------------------

def test_evolve_deterministic_binary_total():
    stats, block = engine.evolve(ParticleMeasure.delta(0), BranchingLaw.binary(),
                                 10, 1, derive(1, 0), REALS)
    assert measure_of(block, 0).total == 1024
    assert stats["normalized_total"][-1, 0] == pytest.approx(1.0)


def test_evolve_modes_agree_on_totals_deterministic():
    # the vector kernel and the step_exact reference both double exactly
    law = BranchingLaw.binary()
    stats, block = engine.evolve(ParticleMeasure.delta(0), law, 30, 1,
                                 derive(2, 0), REALS)
    assert stats["total_log"][-1, 0] == pytest.approx(30 * math.log(2), rel=1e-12)
    reference = ParticleMeasure.delta(0)
    rng = derive(2, 1)
    for _ in range(30):
        reference = engine.step_exact(reference, law, rng, cap=2 ** 30)
    assert measure_of(block, 0).total == reference.total == 2 ** 30


def test_evolve_records_normalized_sequence():
    # every statistic has one row per generation and one column per replica
    law = BranchingLaw.binary_ternary()
    stats, _ = engine.evolve(ParticleMeasure.delta(0), law, 12, 3, derive(3, 0),
                             IntervalSet.below(0))
    assert list(stats) == ["total_log", "normalized_total", "mean_position",
                           "fraction"]
    assert all(values.shape == (13, 3) for values in stats.values())
    assert (stats["normalized_total"][0] == 1.0).all()
    assert (stats["normalized_total"] > 0).all()
    assert (stats["fraction"][0] == 1.0).all()   # the unscaled set at k = 0


def test_evolve_martingale_mean_and_variance():
    law = BranchingLaw.binary_ternary()
    replicas = 10_000
    start = ParticleMeasure.delta(0)
    norm = np.concatenate([
        engine.evolve(start, law, 10, rows, rng, REALS)[0]["normalized_total"]
        for rows, rng in _blocks(start, 10, replicas, 101)], axis=1)
    assert norm.shape == (11, replicas)
    final = norm[10]
    se = final.std(ddof=1) / math.sqrt(replicas)
    assert abs(final.mean() - 1.0) < 3 * se
    v1, v3, v10 = (np.var(norm[k], ddof=1) for k in (1, 3, 10))
    noise = v10 * math.sqrt(2.0 / replicas)
    assert v1 <= v3 + 2 * noise
    assert v3 <= v10 + 2 * noise


def test_evolve_mode_agreement_ks():
    # n=8 fractions of the vector kernel and of 8 iterated step_exact
    # reference steps agree at the 1% level
    law = BranchingLaw.binary_ternary()
    a = IntervalSet.below(0)
    replicas = 5000
    start = ParticleMeasure.delta(0)
    fr_exact = np.empty(replicas)
    for i in range(replicas):
        rng = derive(201, i)
        measure = start
        for _ in range(8):
            measure = engine.step_exact(measure, law, rng)
        fr_exact[i] = empirical_fraction(measure, 8, a)
    fr_vector = np.concatenate([
        _final_block(start, law, 8, rows, rng).fraction_in(*a.site_ranges(math.sqrt(8)))
        for rows, rng in _blocks(start, 8, replicas, 202)])
    assert fr_vector.size == replicas
    _, pvalue = sps.ks_2samp(fr_exact, fr_vector)
    assert pvalue > 0.01


def test_evolve_vector_final_measure_matches_fraction():
    # the recorded fraction at the last generation is the final measure's
    law = BranchingLaw.binary_ternary()
    a = IntervalSet.closed(-1, 1)
    stats, block = engine.evolve(ParticleMeasure.delta(0), law, 40, 2,
                                 derive(44, 0), a)
    for r in range(2):
        final = measure_of(block, r)
        direct = empirical_fraction(final, 40, a)
        assert stats["fraction"][-1, r] == pytest.approx(direct, abs=1e-12)
        assert all((x - 40) % 2 == 0 for x in final.counts)
        mean = sum(x * c for x, c in final.counts.items()) / final.total
        assert stats["mean_position"][-1, r] == pytest.approx(mean, abs=1e-12)


def test_evolve_general_start(rng):
    law = BranchingLaw.binary_ternary()
    start = ParticleMeasure({-1: 2, 2: 1}, generation=0)
    final = measure_of(_final_block(start, law, 5, 1, rng), 0)
    assert min(final.counts) >= -6 and max(final.counts) <= 7


def test_evolve_mixed_parity_start():
    # {-1: 2, 2: 1} has both parities, so the vector rows keep every site
    law = BranchingLaw.binary()
    start = ParticleMeasure({-1: 2, 2: 1}, generation=0)
    counts = measure_of(_final_block(start, law, 5, 1, derive(12, 0)), 0).counts
    assert min(counts) >= -6 and max(counts) <= 7
    assert sum(c for x, c in counts.items() if x % 2 == 0) == 64
    assert sum(c for x, c in counts.items() if x % 2 != 0) == 32


@pytest.mark.parametrize("n", [60, 480])
def test_evolve_block_is_deterministic_and_tracks_rescaled_totals(n):
    # a block of rows is a deterministic function of its generator, and its
    # log totals follow the final measure through the 1e250 rescale, which
    # the 480-generation run passes
    law = BranchingLaw.parse("2:0.5,5:0.5")
    start = ParticleMeasure.delta(0)
    runs = [engine.evolve(start, law, n, 7, derive(13, n), IntervalSet.below(0))
            for _ in range(2)]
    (stats, final), (again, _) = runs
    for name, values in stats.items():
        assert values.tolist() == again[name].tolist()
    assert len(set(stats["fraction"][-1].tolist())) == 7
    assert len(set(stats["total_log"][-1].tolist())) == 7
    rescaled = (final.exp2 > 0).any()
    assert rescaled == (n == 480)
    for r in range(7):
        exact = math.log(measure_of(final, r).total)
        assert stats["total_log"][-1, r] == pytest.approx(exact, rel=1e-12)


def test_block_draws_one_call_per_kind_in_row_major_order():
    # a two-row block draws all six sites' totals in one multinomial call, row
    # by row, then all six splits in one binomial call
    law = BranchingLaw.binary_ternary()
    start = ParticleMeasure({0: 37, 2: 5, 4: 10 ** 6})
    block = _final_block(start, law, 1, 2, derive(15, 0))
    rng = derive(15, 0)
    parents = np.tile([37, 5, 10 ** 6], 2)
    kids = rng.multinomial(parents, law.probs) @ np.array(law.support)
    right = rng.binomial(kids, 0.5)
    left = kids - right
    for r in range(2):
        lt, rt = left[3 * r:3 * r + 3], right[3 * r:3 * r + 3]
        expect = {-1: lt[0], 1: rt[0] + lt[1], 3: rt[1] + lt[2], 5: rt[2]}
        assert measure_of(block, r).counts == {x: int(c) for x, c in expect.items()}


def test_block_normals_fill_first_then_second_draws():
    # above 2^53 parents the block draws one (2, sites) array of normals:
    # every big site's total normal, then every split normal
    law = BranchingLaw.binary_ternary()
    c = 2 ** 60
    block = _final_block(ParticleMeasure.delta(0, count=c), law, 1, 3,
                         derive(16, 0))
    z_total, z_split = derive(16, 0).standard_normal((2, 3))
    for r in range(3):
        t = c * law.beta + z_total[r] * math.sqrt(c * law.variance)
        right = t / 2 + z_split[r] * math.sqrt(t) / 2
        child = measure_of(block, r)
        assert child.total == pytest.approx(t, rel=1e-12)
        assert child.counts[1] == pytest.approx(right, rel=1e-12)


HALF_LINE = IntervalSet.below(0)
ONE_EVENT = np.zeros(1, dtype=np.intp)   # `_Certificate.settle`'s event of a one-row run
MIXED_START = ParticleMeasure({0: 2 ** 60, 2: 37, 4: 10 ** 6})


def _starts(*counts):
    # one start per block, all on the sites 0, 2 and 4 or at 0 alone
    return [ParticleMeasure(c) if isinstance(c, dict) else ParticleMeasure.delta(0, count=c)
            for c in counts]


def _one_event(n, threshold, blocks):
    # every block of a run tests the same event on the half-line, strictly
    return [(n, HALF_LINE, threshold, True)] * blocks


_MIXED_EVENTS = [
    # a shift point (n = 64, w = -6), a concentration population twice, a
    # dilation point (n = 60, m = 12), and the empty set at 0, strictly and
    # not, whose rows never retire and end all False and all True
    (58, IntervalSet.below(6.0), 0.8, False),
    (16, HALF_LINE, nu_n_of_set(16, HALF_LINE) + 0.005, True),
    (12, IntervalSet.closed(-0.6744897501960817 * math.sqrt(60),
                            0.6744897501960817 * math.sqrt(60)), 0.9, False),
    (16, HALF_LINE, nu_n_of_set(16, HALF_LINE) + 0.005, True),
    (6, EMPTY, 0.0, True),
    (6, EMPTY, 0.0, False),
]


@pytest.mark.parametrize("law_text,starts,events,rows,first_empties", [
    ("2:0.5,3:0.5", _starts(100, 100), _one_event(16, nu_n_of_set(16, HALF_LINE) + 0.005, 2),
     [64, 36], False),
    ("2:1", _starts(100, 100), _one_event(16, nu_n_of_set(16, HALF_LINE) + 0.005, 2),
     [64, 36], False),
    ("2:0.5,3:0.5", _starts(2 ** 100, 2 ** 100),
     _one_event(6, nu_n_of_set(6, HALF_LINE) + 5e-15, 2), [5, 3], False),
    ("2:0.3,3:0.5,4:0.2", [MIXED_START] * 3,
     _one_event(6, nu_n_of_set(6, HALF_LINE) + 1e-9, 3), [4, 7, 2], False),
    ("2:0.5,3:0.5", _starts(100, 100, 100),
     _one_event(16, nu_n_of_set(16, HALF_LINE) + 0.005, 3), [2, 64, 36], True),
    # blocks of one layout from different counts, as a concentration
    # probe's populations share a run
    ("2:0.5,3:0.5", _starts(1600, 100, 400),
     _one_event(16, nu_n_of_set(16, HALF_LINE) + 0.005, 3), [64, 36, 50], True),
    ("2:0.3,3:0.5,4:0.2",
     _starts(MIXED_START.counts, {0: 2 ** 61, 2: 1, 4: 3}, {0: 2 ** 59, 4: 10 ** 6}),
     _one_event(6, nu_n_of_set(6, HALF_LINE) + 1e-9, 3), [4, 7, 2], False),
    # blocks of different events, as the grid points of one law share a
    # run: steps, targets, thresholds, strictness and start counts differ
    ("2:0.5,3:0.5", _starts(1, 100, 1, 400, 30, 30), _MIXED_EVENTS,
     [64, 36, 50, 20, 3, 5], False),
    # the first block ends at its own last generation, 6, and leaves
    ("2:0.5,3:0.5", _starts(30, 400, 1, 100, 1), _MIXED_EVENTS[4::-1],
     [3, 20, 50, 36, 64], True),
], ids=["binary-ternary", "deterministic", "all-normal", "mixed-sites",
        "first-block-empties-early", "populations", "mixed-starts", "mixed-events",
        "mixed-events-reversed"])
def test_run_of_blocks_equals_its_blocks_alone(law_text, starts, events, rows,
                                              first_empties):
    # a run stacks blocks, each from its own start, drawing from its own
    # stream and testing its own event: stepped for the generations they
    # all take, and under early decision, each block ends bit for bit as it
    # does as a run of one on the same key, however its neighbours start,
    # draw, retire or end
    law = BranchingLaw.parse(law_text)
    seed = len(rows)
    steps = [n for n, _, _, _ in events]
    firsts = np.cumsum([0] + rows[:-1]).tolist()
    run = engine._VectorState(starts, steps, rows, [derive(seed, b) for b in range(len(rows))])
    alone = [engine._VectorState([start], [n], [r], [derive(seed, b)])
             for b, (start, n, r) in enumerate(zip(starts, steps, rows))]
    for _ in range(min(steps)):
        for block in [run] + alone:
            block.step(law)
        for first, r, block in zip(firsts, rows, alone):
            assert run.v[first:first + r].tolist() == block.v.tolist()
            assert run.exp2[first:first + r].tolist() == block.exp2.tolist()
    out = engine.event_outcomes(starts, law, events, rows,
                                [derive(seed, b) for b in range(len(rows))])
    ends = []
    for b, (start, event, first, r) in enumerate(zip(starts, events, firsts, rows)):
        one = engine.event_outcomes([start], law, [event], [r], [derive(seed, b)])
        mine = slice(first, first + r)
        assert out.hits[mine].tolist() == one.hits.tolist()
        assert out.decided_at[mine].tolist() == one.decided_at.tolist()
        assert out.bounds[mine].tolist() == one.bounds.tolist()
        ends.append(int(one.decided_at.max()))
        if event[1] is EMPTY:   # never settled: each row compares its final fraction
            assert (one.decided_at == event[0]).all() and (one.bounds == 0.0).all()
            assert one.hits.tolist() == [not event[3]] * r
    # rows retire after some steps, with bounds that any change of draws
    # would move
    assert (out.bounds > 0.0).any() and (out.decided_at > 0).all()
    # whether the first block empties while its neighbours still step
    assert (ends[0] < min(ends[1:])) == first_empties


@pytest.mark.parametrize("starts", [
    [ParticleMeasure.delta(0), ParticleMeasure.delta(1)],
    [ParticleMeasure.delta(0), ParticleMeasure({0: 1, 2: 1})],
    [ParticleMeasure.delta(0), ParticleMeasure({0: 1, 1: 1})],
], ids=["shifted", "wider", "both-parities"])
def test_run_of_blocks_refuses_starts_of_different_layouts(starts):
    # every row of a run has the same sites, so the starts share one layout
    with pytest.raises(ValueError, match="layout"):
        engine._VectorState(starts, [4, 4], [2, 2], [derive(0, 0), derive(0, 1)])
    with pytest.raises(ValueError, match="one start"):
        engine._VectorState(starts[:1], [4], [2, 2], [derive(0, 0), derive(0, 1)])


def test_rescaled_rows_step_on_after_keep_rows():
    # rows that hold different exponents keep their own scale through
    # `keep_rows`: a run of three blocks, cut by one row of the first, the
    # whole second and one row of the third, ends each kept block bit for bit
    # as that block's run of one after the same cut.  From 2^828 particles
    # every row would stay equal, since a normal draw there moves no float;
    # from one particle under a law of mean 2.1 the rows part early, pass the
    # 1e250 rescale at generation 781 by different shifts, and keep sites of
    # 2^53 to 2^100 particles, whose normal draws read the row's scale
    law = BranchingLaw.parse("2:0.9,3:0.1")
    start = ParticleMeasure.delta(0)
    rows, n, cut_at = [3, 2, 3], 800, 785
    run = engine._VectorState([start] * 3, [n] * 3, rows, [derive(5, b) for b in range(3)])
    alone = [engine._VectorState([start], [n], [r], [derive(5, b)])
             for b, r in enumerate(rows)]
    for _ in range(cut_at):
        for block in [run] + alone:
            block.step(law)
    keep = [[True, False, True], [False, False], [False, True, True]]
    kept = np.concatenate(keep)
    assert len(set(run.exp2[kept].tolist())) > 1
    counts = np.ldexp(run.v[kept], run.exp2[kept, None])
    assert ((counts > 2.0 ** 53) & (counts < 2.0 ** 100)).any(axis=1).all()
    run.keep_rows(kept)
    for block, mine in zip(alone, keep):
        block.keep_rows(np.array(mine))
    for _ in range(n - cut_at):
        for block in [run, alone[0], alone[2]]:
            block.step(law)
    assert run.v.tolist() == alone[0].v.tolist() + alone[2].v.tolist()
    assert run.exp2.tolist() == alone[0].exp2.tolist() + alone[2].exp2.tolist()


@pytest.mark.parametrize("law_text,population,full_runs", [
    ("2:0.5,3:0.5", 100, False),
    ("2:0.995,200:0.005", 30, True),
])
def test_event_outcomes_draw_totals_once_per_live_block(monkeypatch, law_text,
                                                        population, full_runs):
    # each generation makes one `BranchingLaw.totals` call per block that
    # still has live rows, however many rows it has: two full blocks and a
    # 3-row one, which leave the run at different generations, and under the
    # heavy law rows that run to the end
    law = BranchingLaw.parse(law_text)
    start = ParticleMeasure.delta(0, count=population)
    size = engine.block_rows(start, 16)
    rows = [size, size, 3]
    calls = []
    step, totals = engine._VectorState.step, BranchingLaw.totals

    def counting_step(self, law):
        calls.append(0)
        step(self, law)

    def counting_totals(self, parents, rng):
        calls[-1] += 1
        return totals(self, parents, rng)

    monkeypatch.setattr(engine._VectorState, "step", counting_step)
    monkeypatch.setattr(BranchingLaw, "totals", counting_totals)
    event = (16, HALF_LINE, nu_n_of_set(16, HALF_LINE) + 0.05, True)
    out = engine.event_outcomes([start] * len(rows), law, [event] * len(rows), rows,
                                [derive(23, b) for b in range(len(rows))])
    # a row retired at generation k takes no step from k on
    block_of = np.repeat(np.arange(len(rows)), rows)
    live = [np.unique(block_of[out.decided_at > k]).size for k in range(16)]
    assert calls == [count for count in live if count]
    assert live[0] == len(rows) and 0 < min(c for c in live if c) < len(rows)
    assert (out.decided_at == 16).any() == full_runs


@pytest.mark.parametrize("target,threshold,strict", [
    (IntervalSet.below(0), 1.0, False),
    (IntervalSet.below(0), 1.0, True),
    (IntervalSet.below(0), 1.5, True),
    (REALS, 0.5, False),
    (REALS, 1.0, False),
    (REALS, 1.1, True),
    (EMPTY, 0.0, False),
    (EMPTY, 0.0, True),
])
def test_event_outcomes_extreme_thresholds_match_full_runs(target, threshold, strict):
    # from 2^44 particles every row retires within a few generations, except
    # where mu_k equals the threshold (the full line at 1, the empty set at 0)
    law = BranchingLaw.binary_ternary()
    start = ParticleMeasure.delta(0, count=2 ** 44)
    out = engine.event_outcomes([start], law, [(6, target, threshold, strict)], [4],
                                [derive(14, 0)])
    fracs = _final_block(start, law, 6, 4, derive(14, 0)).fraction_in(*target.site_ranges())
    full = fracs > threshold if strict else fracs >= threshold
    assert out.hits.tolist() == full.tolist()
    settled = threshold not in (0.0, 1.0) or target not in (REALS, EMPTY)
    assert (out.decided_at < 6).all() if settled else (out.decided_at == 6).all()


def test_event_outcomes_leave_the_prefix_row_cache_empty():
    # the certificate reads the walk law from float tables and never fills
    # the shared cache of exact prefix rows, which pool workers would carry
    from brwlab import gaussian
    gaussian._prefix_row.cache_clear()
    engine._walk_table.cache_clear()
    start = ParticleMeasure.delta(0, count=2 ** 44)
    out = engine.event_outcomes([start], BranchingLaw.binary_ternary(),
                                [(6, IntervalSet.below(0), 1.5, True)], [4],
                                [derive(14, 0)])
    assert (out.decided_at < 6).all()
    assert engine._walk_table.cache_info().currsize > 0
    assert gaussian._prefix_row.cache_info().currsize == 0


def _lattice_sets(j):
    """Targets j steps ahead: endpoints on lattice sites, open and closed,
    one to four components, and one set with irrational endpoints."""
    s = max(1, round(math.sqrt(j)))
    z = 0.6744897501960817 * math.sqrt(max(j, 1))
    return [IntervalSet.below(0), IntervalSet.below(0, closed=False),
            parse_set(f"(-{s},{s}]"),
            parse_set(f"[-{2 * s},-{s}) U ({s},{2 * s}]"),
            parse_set(f"(-inf,-{2 * s}) U [-{s // 2},{s}) U ({2 * s},{3 * s}] "
                      f"U [{4 * s},inf)"),
            IntervalSet.closed(-z, z)]


@pytest.mark.parametrize("j", [0, 1, 2, 5, 42, 875, 900, 4001, 10 ** 4, 4 * 10 ** 4])
def test_walk_table_within_its_error_bound(j):
    # the certificate's float walk-law table against the exact walk law,
    # at every site near the origin and at sites of both parities across
    # [-j - 3, j + 3]; hit_probs is correctly rounded, so within 2^-54 of
    # the exact probability, and the table must be within delta of that
    from brwlab import gaussian
    stride = 2 * ((2 * j + 6) // 400) + 1
    grids = [(-41, 1, 83), (-j - 3, stride, (2 * j + 6) // stride + 1)]
    try:
        for target in _lattice_sets(j):
            delta = engine._table_error(j, len(target.components))
            for lo, step, width in grids:
                table = engine._walk_table(j, target, lo, step, width)
                exact = gaussian.hit_probs(j, target, lo + step * np.arange(width))
                assert np.abs(table - exact).max() <= delta - 2.0 ** -54
    finally:
        gaussian._prefix_row.cache_clear()   # the exact row at j = 4 10^4 is ~0.2 GB
    assert engine._table_error(4 * 10 ** 4, 1) < 3e-11


def test_certificate_margin_absorbs_the_table_error():
    # one row of 2^100 particles at site 0, j = 4 10^4 steps ahead: the bound
    # would pass at a gap of slack + delta / 2 if the table were exact, but
    # the table is only known within delta, so the row must not retire; at
    # slack + 2 delta it retires with the gap's sign
    law = BranchingLaw.binary_ternary()
    target = IntervalSet.below(0)
    j = 4 * 10 ** 4
    block = engine._VectorState([ParticleMeasure.delta(0, count=2 ** 100)], [1], [1],
                                [derive(0, 0)])
    mu = float(engine._walk_table(j, target, 0, 2, 1)[0])
    slack = 3 * 2.0 ** -52   # (width + 2) 2^-52 at width 1
    delta = engine._table_error(j, 1)
    inside = engine._Certificate(law, [(j, target, mu - (slack + delta / 2), False)])
    assert inside.settle(block, 0, ONE_EVENT)[0].size == 0
    outside = engine._Certificate(law, [(j, target, mu - (slack + 2 * delta), False)])
    rows, outcomes, bounds = outside.settle(block, 0, ONE_EVENT)
    assert rows.tolist() == [0] and outcomes.tolist() == [True]
    assert 0.0 < bounds[0] <= 1e-12


def _exact_law(law):
    probs = [Fraction(p) for p in law.probs]
    return [(k, p / sum(probs)) for k, p in zip(law.support, probs)]


@pytest.mark.parametrize("text", ["2:1", "2:0.5,3:0.5", "2:0.3,3:0.5,4:0.2",
                                  "2:0.995,200:0.005"])
def test_second_moment_factor_bounds_galton_watson_moments(text):
    # E Z_(j+1)^2 = sigma^2 beta^j + beta^2 E Z_j^2, in exact rationals
    law = BranchingLaw.parse(text)
    pairs = _exact_law(law)
    beta = sum(k * p for k, p in pairs)
    var = sum(k * k * p for k, p in pairs) - beta * beta
    factor = Fraction(engine._limit_moments(law)[2])
    assert factor >= 1 + var / (beta * (beta - 1))
    second = Fraction(1)
    for j in range(41):
        assert second <= beta ** (2 * j) * factor
        second = var * beta ** j + beta * beta * second


def _moments(pairs, count, top=12):
    """(s, rows) with rows[j][k] = E Z_j^k s^(jk) for k <= top and j < count,
    in integers, s the common denominator of the law's probabilities.

    Z_(j+1) is the sum of xi independent copies of Z_j, so its moments'
    exponential generating function is E (1 + psi)^xi =
    sum_l E C(xi, l) psi^l, psi being Z_j's less 1; k! [t^k] psi^l sums
    k! / prod a_i! prod E Z_j^(a_i) over the ordered l-tuples a of orders
    >= 1 adding up to k, a binomial convolution of l factors.
    """
    scale = math.lcm(*(p.denominator for _, p in pairs))
    weights = [(k, p.numerator * (scale // p.denominator)) for k, p in pairs]
    choose = [sum(math.comb(k, l) * w for k, w in weights) for l in range(top + 1)]
    row = [1] * (top + 1)
    rows = []
    for _ in range(count):
        rows.append(row)
        power = [1] + [0] * top   # k! [t^k] psi^l, scaled, from l = 0
        total = [0] * (top + 1)
        for l in range(1, top + 1):
            power = [0] + [sum(math.comb(k, a) * row[a] * power[k - a]
                               for a in range(1, k - l + 2))
                           for k in range(1, top + 1)]
            for k in range(l, top + 1):
                total[k] += choose[l] * power[k]
        row = [1] + [total[k] * scale ** (k - 1) for k in range(1, top + 1)]
    return scale, rows


@pytest.mark.parametrize("text", ["2:1", "2:0.5,3:0.5", "2:0.3,3:0.5,4:0.2",
                                  "2:0.995,200:0.005"])
def test_fourth_moment_factor_bounds_galton_watson_moments(text):
    # every factor m_k, k <= 24, the fourth's included: E Z_j^k <= beta^(kj) m_k
    # for every j, and E Z_j^k / beta^(kj) climbs to m_k = E W^k, so by
    # j = 40 it is within 1e-9 of the factor.  The recursion's integers grow
    # with the probabilities' common denominator: past the twelfth moment, a
    # law whose denominator is not 1 or 2 runs 21 generations (6-7 s each at
    # 41), within 1e-7 of the factor by j = 20
    law = BranchingLaw.parse(text)
    pairs = _exact_law(law)
    deep = 41 if math.lcm(*(p.denominator for _, p in pairs)) <= 2 else 21
    growth = sum(k * p for k, p in pairs)   # beta
    factors = engine._limit_moments(law)
    assert len(factors) == 25 and factors[:2] == (1.0, 1.0)
    checks = [(range(2, 13), 41, 12, Fraction(1, 10 ** 9)),
              (range(13, 25), deep, 24, Fraction(1, 10 ** (9 if deep == 41 else 7)))]
    for orders, count, top, tolerance in checks:
        scale, rows = _moments(pairs, count, top)
        beta_s = growth * scale
        assert beta_s.denominator == 1
        for k in orders:
            num, den = factors[k].as_integer_ratio()
            for j, row in enumerate(rows):
                assert row[k] * den <= beta_s.numerator ** (k * j) * num, (k, j)
            assert (Fraction(rows[-1][k] * den, beta_s.numerator ** ((count - 1) * k) * num)
                    >= 1 - tolerance), k


def _size_laws(pairs, last):
    """The exact laws of Z_1, ..., Z_last from one particle, by enumeration."""
    size = {1: Fraction(1)}
    laws = []
    for _ in range(last):
        nxt: dict[int, Fraction] = {}
        for z, q in size.items():
            # the offspring total of z particles: a z-fold convolution
            total = {0: Fraction(1)}
            for _ in range(z):
                conv: dict[int, Fraction] = {}
                for t, qt in total.items():
                    for k, pk in pairs:
                        conv[t + k] = conv.get(t + k, Fraction(0)) + qt * pk
                total = conv
            for t, qt in total.items():
                nxt[t] = nxt.get(t, Fraction(0)) + q * qt
        size = nxt
        laws.append(size)
    return laws


def test_galton_watson_second_moment_recursion_by_enumeration():
    # the exact law of Z_j for j <= 3 under 2:0.5,3:0.5 against the recursion
    pairs = _exact_law(BranchingLaw.binary_ternary())
    beta, var, second = Fraction(5, 2), Fraction(1, 4), Fraction(1)
    for j, size in enumerate(_size_laws(pairs, 3), start=1):
        second = var * beta ** (j - 1) + beta * beta * second
        assert sum(z * z * q for z, q in size.items()) == second


@pytest.mark.parametrize("text", ["2:0.5,3:0.5", "2:0.3,3:0.5,4:0.2"])
def test_galton_watson_fourth_moment_recursion_by_enumeration(text):
    # the exact law of Z_j for j <= 3 against the recursion of the factor
    # test, for every moment up to the 24th
    pairs = _exact_law(BranchingLaw.parse(text))
    scale, rows = _moments(pairs, 4, top=24)
    for j, size in enumerate(_size_laws(pairs, 3), start=1):
        for k in range(25):
            assert (sum(z ** k * q for z, q in size.items())
                    == Fraction(rows[j][k], scale ** (j * k))), (j, k)


def _bound_terms_by_set_partitions(law, order):
    """`_bound_terms` at r = ``order`` from every set partition of 2r items
    into blocks of at least two, in exact rationals over the float factors."""
    moments = [Fraction(m) for m in engine._limit_moments(law)]
    weight = [None, None, moments[2]] + [2 ** k * moments[k]
                                         for k in range(3, 2 * order + 1)]
    terms = [Fraction(0)] * order

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for size in range(1, len(rest) + 1):
            for mates in itertools.combinations(rest, size):
                others = [x for x in rest if x not in mates]
                for tail in partitions(others):
                    yield [(first, *mates)] + tail

    for blocks in partitions(list(range(2 * order))):
        product = Fraction(1)
        for block in blocks:
            product *= weight[len(block)]
        terms[order - len(blocks)] += product / moments[2] ** order
    return terms


def _bound_terms_by_integer_partitions(law, order):
    """`_bound_terms` at r = ``order`` from the integer partitions of 2r into
    parts of at least two, each weighted by the set partitions of 2r items
    with its block sizes, (2r)! / (prod s! prod mult!), in exact rationals
    over the float factors.  At 2r = 24 there are 320 integer partitions, far
    fewer than the set partitions."""
    moments = [Fraction(m) for m in engine._limit_moments(law)[:2 * order + 1]]
    weight = [None, None, moments[2]] + [2 ** k * moments[k]
                                         for k in range(3, 2 * order + 1)]
    terms = [Fraction(0)] * order

    def partitions(total, smallest):
        """The partitions of ``total`` into parts >= ``smallest``, each in
        nondecreasing order."""
        if total == 0:
            yield ()
        for part in range(smallest, total + 1):
            for rest in partitions(total - part, part):
                yield (part, *rest)

    for parts in partitions(2 * order, 2):
        ways = math.factorial(2 * order) // math.prod(
            [math.factorial(s) for s in parts]
            + [math.factorial(parts.count(s)) for s in set(parts)])
        terms[order - len(parts)] += ways * math.prod(weight[s] for s in parts)
    return [t / moments[2] ** order for t in terms]


@pytest.mark.parametrize("order", [2, 4])
def test_bound_terms_against_set_partitions(monkeypatch, order):
    # at r = 2 the bound is b^2 (3 + 16 m_4 / (K^2 N)); at r = 4 the 4,140
    # set partitions of 8 items check the partition counts, and with them
    # the weights of the integer-partition oracle
    monkeypatch.setattr(engine, "_ORDER", order)
    engine._limit_moments.cache_clear()
    engine._bound_terms.cache_clear()
    try:
        for text in ["2:1", "2:0.5,3:0.5", "2:0.995,200:0.005"]:
            law = BranchingLaw.parse(text)
            terms = engine._bound_terms(law)
            exact = _bound_terms_by_set_partitions(law, order)
            assert _bound_terms_by_integer_partitions(law, order) == exact
            assert len(terms) == order
            assert terms[0] == math.prod(range(1, 2 * order, 2))
            for got, want in zip(terms, exact):
                assert want <= Fraction(got) <= want * (1 + Fraction(1, 2 ** 52))
            if order == 2:
                m = engine._limit_moments(law)
                assert exact[1] == 16 * Fraction(m[4]) / Fraction(m[2]) ** 2
    finally:
        engine._limit_moments.cache_clear()
        engine._bound_terms.cache_clear()


@pytest.mark.parametrize("text", ["2:1", "2:0.5,3:0.5", "2:0.3,3:0.5,4:0.2",
                                  "2:0.995,200:0.005", "2:1,1e30:1e-30"])
def test_bound_terms_against_integer_partitions(text):
    # t_0, ..., t_11 at r = _ORDER = 12, each the least float at or above its
    # exact value; the last law's m_12 overflows, so it stops at r = 5
    law = BranchingLaw.parse(text.replace("1e30:", f"{10 ** 30}:"))
    terms = engine._bound_terms(law)
    order = 5 if "1e30" in text else engine._ORDER
    assert len(terms) == order
    for got, want in zip(terms, _bound_terms_by_integer_partitions(law, order)):
        assert want <= Fraction(got) <= want * (1 + Fraction(1, 2 ** 52))


def test_bound_terms_at_order_six(monkeypatch):
    # t_0 = 11!! and the gate K (t_0 / eps)^(1/6) is about 500 particles,
    # five times the gate at order twelve
    monkeypatch.setattr(engine, "_ORDER", 6)
    engine._limit_moments.cache_clear()
    engine._bound_terms.cache_clear()
    try:
        law = BranchingLaw.binary_ternary()
        terms = engine._bound_terms(law)
        assert len(terms) == 6 and terms[0] == 10395.0
        gate = engine._Certificate(law, [(1, IntervalSet.below(0), 0.5, True)]).gate
        assert 490 < gate < 510
    finally:
        engine._limit_moments.cache_clear()
        engine._bound_terms.cache_clear()


def test_bound_terms_at_order_twelve():
    # t_0 = 23!! and the gate K (t_0 / eps)^(1/12) is about 97 particles under
    # 2:0.5,3:0.5, and about 3,069 under the concentration workload's law
    law = BranchingLaw.binary_ternary()
    terms = engine._bound_terms(law)
    assert engine._ORDER == 12 and len(terms) == 12 and terms[0] == 316234143225.0
    assert terms[0] == math.prod(range(1, 24, 2))
    gate = engine._Certificate(law, [(1, IntervalSet.below(0), 0.5, True)]).gate
    assert 95 < gate < 99
    heavy = BranchingLaw.parse("2:0.995,200:0.005")
    assert 3060 < engine._Certificate(heavy, [(1, IntervalSet.below(0), 0.5, True)]).gate < 3080


def test_round_up_factor_covers_the_bound_roundings():
    # settle's bound takes at most 15 r - 3 roundings, each a factor 1 + d
    # with |d| <= u = 2^-53; the factor must exceed (1 - u)^-(15 r - 3), in
    # exact rationals, at the largest order
    u = Fraction(1, 2 ** 53)
    factor = Fraction(engine._ROUND_UP)
    assert factor == 1 + Fraction(1, 2 ** 45)
    assert factor * (1 - u) ** (15 * engine._ORDER - 3) > 1
    # 2^-46, the factor at r = 6, no longer covers r = 12
    assert (1 + Fraction(1, 2 ** 46)) * (1 - u) ** (15 * 12 - 3) < 1


def test_certificate_falls_back_to_a_lower_order_when_a_moment_overflows():
    # m_12 of this law is about 1e324, beyond float range, so the bound
    # stops at E (sum D_i)^10, r = 5, with t_0 = 9!!; a row far past that
    # order's gate still settles
    law = BranchingLaw.parse(f"2:1,{10 ** 30}:1e-30")
    moments = engine._limit_moments(law)
    assert len(moments) == 25
    assert moments[11] < math.inf == moments[12] == moments[24]
    terms = engine._bound_terms(law)
    assert len(terms) == 5 and terms[0] == 945.0 and max(terms) < math.inf
    certificate = engine._Certificate(law, [(1, IntervalSet.below(0), 0.3, False)])
    assert certificate.order == 5 and certificate.gate < 1e33
    block = engine._VectorState([ParticleMeasure.delta(0, count=2 ** 150)], [1], [1],
                                [derive(0, 0)])
    rows, outcomes, bounds = certificate.settle(block, 0, ONE_EVENT)
    assert rows.tolist() == [0] and outcomes.tolist() == [True]
    assert 0.0 < bounds[0] <= 1e-12


def test_certificate_never_passes_when_a_moment_overflows():
    # m_4 of this law is about 1e330, beyond float range, so no order is left
    law = BranchingLaw.parse(f"2:1,{10 ** 110}:1e-110")
    moments = engine._limit_moments(law)
    assert moments[3] < math.inf == moments[4]
    assert engine._bound_terms(law) == (math.inf,) * 2
    certificate = engine._Certificate(law, [(1, IntervalSet.below(0), 0.5, False)])
    block = engine._VectorState([ParticleMeasure.delta(0, count=2 ** 100)], [1], [1],
                                [derive(0, 0)])
    assert certificate.gate == math.inf
    assert certificate.settle(block, 0, ONE_EVENT)[0].size == 0


_SETTLE_RUNS = [
    ("2:0.5,3:0.5", "(-inf,0]", 0.8, 1),
    ("2:0.5,3:0.5", "[-1,1]", 0.3, 2),
    ("2:0.3,3:0.5,4:0.2", "(-inf,-1) U (1,inf)", 0.5, 3),
    ("2:0.995,200:0.005", "(-inf,0]", 0.6, 4),
]


def _settle_along(text, target, threshold, seed, filters=(True,)):
    """(certificates, run, j, [their settle results]) before each generation
    of a seeded run of two blocks for 36 generations, one certificate per
    entry of ``filters``, with settle's prefilter on or off (b_max = inf);
    the rows the first one settles retire."""
    law = BranchingLaw.parse(text)
    final, n = parse_set(target).scale(6.0), 36
    made = [engine._Certificate(law, [(n, final, threshold, False)]) for _ in filters]
    for each, on in zip(made, filters):
        if not on:
            each.b_max = math.inf
    run = engine._VectorState([ParticleMeasure.delta(0)] * 2, [n, n], [40, 24],
                              [derive(seed, 0), derive(seed, 1)])
    for k in range(n):
        event = np.zeros(run.v.shape[0], dtype=np.intp)   # every row tests the one event
        results = [each.settle(run, k, event) for each in made]
        yield made, run, n - k, results
        settled = results[0][0]
        if settled.size == run.v.shape[0]:
            return
        if settled.size:
            keep = np.ones(run.v.shape[0], dtype=bool)
            keep[settled] = False
            run.keep_rows(keep)
        run.step(law)


@pytest.mark.parametrize("text,target,threshold,seed", _SETTLE_RUNS)
def test_settle_prefilter_changes_no_outcome(text, target, threshold, seed):
    # settle drops the rows whose Chebyshev ratio b alone keeps the bound
    # t_0 b^r above eps before it takes the power and the polynomial; with
    # the filter off (b_max = inf) it returns the same rows, outcomes and
    # bounds at every generation
    filtered_out = settled = 0
    for (plain, _), run, j, (got, want) in _settle_along(
            text, target, threshold, seed, filters=(True, False)):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        at_gate = run.v.sum(axis=1) >= np.ldexp(plain.gate, -run.exp2)
        filtered_out += at_gate.any() and not got[0].size
        settled += got[0].size
    assert settled > 0 and filtered_out > 0


@pytest.mark.parametrize("text,target,threshold,seed", _SETTLE_RUNS)
def test_settled_bounds_round_up_their_exact_value(text, target, threshold, seed):
    # each settled row's bound, recomputed in exact rationals from the
    # lowered Z_k(R) and margin that settle rounds to floats, b^r (t_0 +
    # t_1 / N + ... + t_(r-1) / N^(r-1)) with b = c^2 K / (N g^2), lies
    # below the float bound and within 2^-40 of it
    law = BranchingLaw.parse(text)
    checked = 0
    for (certificate,), run, j, ((rows, _, bounds),) in _settle_along(
            text, target, threshold, seed):
        width = run.v.shape[1]
        (_, final, _, _), = certificate.events
        table = engine._walk_table(j, final, run.lo, run.stride, width)
        slack = (width + 2) * 2.0 ** -52
        for row, bound in zip(rows.tolist(), bounds.tolist()):
            counts = run.v[[row]]   # 2-D, summed along the row as settle sums it
            total = counts.sum(axis=1)[0]
            gap = (counts * table).sum(axis=1)[0] / total - threshold
            margin = Fraction(abs(gap) - slack - engine._table_error(j, len(final.components)))
            low = Fraction(total * (1.0 - slack)) * 2 ** int(run.exp2[row])
            c = max(abs(Fraction(threshold)), abs(1 - Fraction(threshold)))
            b = c * c * Fraction(engine._limit_moments(law)[2]) / (low * margin * margin)
            exact = b ** certificate.order * sum(
                Fraction(t) / low ** l for l, t in enumerate(certificate.terms))
            assert exact <= Fraction(bound) <= exact * (1 + Fraction(1, 2 ** 40))
            checked += 1
    assert checked > 0


# (m_0, ..., m_24) of `_limit_moments` and (t_0, ..., t_11) of `_bound_terms`
# as float.hex, checked against the Galton-Watson recursion and the
# integer-partition sums above; the overflow law's m_12 and every later
# moment are inf, and its terms stop at r = 5
_MOMENT_GOLDEN = {
    "2:1": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0"),
        ("0x1.26841857e4000p+38", "0x1.5e1f08f07c0c0p+51", "0x1.0804dd57ea22bp+61",
         "0x1.015922322b5aep+68", "0x1.6b393cd9b91c3p+72", "0x1.832342d580d00p+74",
         "0x1.5510e9deae701p+74", "0x1.0237ef91f6f23p+72", "0x1.29f088723d9a0p+67",
         "0x1.5aa9f9becc000p+59", "0x1.fffc600000000p+46", "0x1.0000000000000p+24"),
    ),
    "2:0.5,3:0.5": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1111111111112p+0",
         "0x1.342cdc67600fbp+0", "0x1.6ce39b067d34cp+0", "0x1.c1c6cb6554a8bp+0",
         "0x1.1eb3a58ec4dc8p+1", "0x1.7808e4c44c1f4p+1", "0x1.f94fbe0415ca0p+1",
         "0x1.5abb8ad04c887p+2", "0x1.e4bc63403b743p+2", "0x1.587d06681a701p+3",
         "0x1.f106daf1f7fffp+3", "0x1.6b805bdeb8adbp+4", "0x1.0d3b09c00069ep+5",
         "0x1.9388316f487b4p+5", "0x1.31c18cda4b6aep+6", "0x1.d426f5aa37d60p+6",
         "0x1.69e8b8e14692bp+7", "0x1.1a5e338d1d0dfp+8", "0x1.bc7d25efc9429p+8",
         "0x1.60c4f4d52f775p+9", "0x1.1a34d19414eeap+10", "0x1.c6f34ba3e5137p+10",
         "0x1.7162da9403aaep+11"),
        ("0x1.26841857e4000p+38", "0x1.a2cfba6a1c4b0p+51", "0x1.7d97973a3bd65p+61",
         "0x1.ca7b14e915706p+68", "0x1.9edea9ff34e52p+73", "0x1.2e81961b1bafap+76",
         "0x1.8c6f272c160dap+76", "0x1.ee584f922e0f2p+74", "0x1.0d3ae12affaf6p+71",
         "0x1.6ef905cd468b0p+64", "0x1.e7bc6bf0041f0p+53", "0x1.5489cba8184c7p+34"),
    ),
    "2:0.995,200:0.005": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0e3beee05231bp+5",
         "0x1.3ab2ecad5c712p+11", "0x1.d4a344e7a6282p+17", "0x1.924cd6346ca28p+24",
         "0x1.7fea4e3f855bap+31", "0x1.9036c9bf62424p+38", "0x1.c2f4f4174211ap+45",
         "0x1.1091d749a0f72p+53", "0x1.5f6c3da147100p+60", "0x1.e0e686e875239p+67",
         "0x1.5bcd142930ceep+75", "0x1.08eebb043ecf3p+83", "0x1.a7c7445475c1bp+90",
         "0x1.62e0d98943d63p+98", "0x1.366576852382bp+106", "0x1.1aeff202b8855p+114",
         "0x1.0c3f2e9f9d479p+122", "0x1.08098238aef9ap+130", "0x1.0d618a77ace09p+138",
         "0x1.1c70032ed2e2dp+146", "0x1.3666f81c4879fp+154", "0x1.5da53a5b16938p+162",
         "0x1.960e19ed21f29p+170"),
        ("0x1.26841857e4000p+38", "0x1.c6575fb87f2f1p+58", "0x1.d603ee47a471dp+75",
         "0x1.5cf00fee5bba6p+90", "0x1.c554edd748e85p+102", "0x1.26025f2cbfcffp+113",
         "0x1.b44b4d9a6a1e3p+121", "0x1.91817e480a007p+128", "0x1.c15fc45225cb1p+133",
         "0x1.03e7430a784ccp+137", "0x1.8f4d71ef682e3p+137", "0x1.a83da6e32b446p+133"),
    ),
    "2:0.3,3:0.5,4:0.2": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.16c410b9d80b3p+0",
         "0x1.466d43cc3d4fcp+0", "0x1.968471f2432dep+0", "0x1.0ac0be7423e1ep+1",
         "0x1.6e313af8e5428p+1", "0x1.05574493dabbfp+2", "0x1.81f3a865efc24p+2",
         "0x1.25adab197673bp+3", "0x1.cb04468397592p+3", "0x1.6f6401deb32d8p+4",
         "0x1.2c753f0e8e352p+5", "0x1.f527569182af2p+5", "0x1.a98262475b718p+6",
         "0x1.6f4c36c6bf6a7p+7", "0x1.41f173f7c67a6p+8", "0x1.1e40589b3ba3dp+9",
         "0x1.01f3dcb24fc59p+10", "0x1.d6d17244e144dp+10", "0x1.b2d8a6bb3cde1p+11",
         "0x1.963801bc6d305p+12", "0x1.7f9da4a00b54fp+13", "0x1.6e0c92f1c3767p+14",
         "0x1.60c760023f40dp+15"),
        ("0x1.26841857e4000p+38", "0x1.b9e207cf3fcbbp+51", "0x1.aa0b867daf26bp+61",
         "0x1.106fa4847d3a6p+69", "0x1.097b7a54bfddfp+74", "0x1.a92c4230bd6edp+76",
         "0x1.3a2a30a0a4a41p+77", "0x1.c94a921e8c37ap+75", "0x1.3162a1e963101p+72",
         "0x1.1508d1ac12d91p+66", "0x1.23040b4fea928p+56", "0x1.fba7146e834bep+37"),
    ),
    "2:1,1e30:1e-30": (
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0d43b7bc05df2p+97",
         "0x1.3e9e4e4c2f345p+195", "0x1.e1356992e25cfp+293", "0x1.a2fac5cf1d563p+392",
         "0x1.95b7011e6ceedp+491", "0x1.ad674b6f39b45p+590", "0x1.eb86cb5efd32ap+689",
         "0x1.2df93a85f79b4p+789", "0x1.8befc965685bbp+888", "0x1.13a2911f695dcp+988",
         "inf", "inf", "inf", "inf", "inf", "inf", "inf", "inf", "inf", "inf", "inf",
         "inf", "inf"),
        ("0x1.d880000000000p+9", "0x1.2fe4db0c53361p+118", "0x1.00306d371a57ap+221",
         "0x1.2dfabd794f1a4p+319", "0x1.338f5d0f278ccp+413"),
    ),
}


@pytest.mark.parametrize("text", sorted(_MOMENT_GOLDEN))
def test_limit_moments_and_bound_terms_golden(text):
    law = BranchingLaw.parse(text.replace("1e30:", f"{10 ** 30}:"))
    moments, terms = _MOMENT_GOLDEN[text]
    assert tuple(m.hex() for m in engine._limit_moments(law)) == moments
    assert tuple(t.hex() for t in engine._bound_terms(law)) == terms


def test_factorial_moments_are_exact():
    # E xi (xi - 1) ... (xi - r + 1) in rationals, over the float
    # probabilities divided by their exact sum
    law = BranchingLaw.parse("2:0.3,3:0.5,4:0.2")
    numerators, den = law.factorial_moments(5)
    assert len(numerators) == 6 and numerators[0] == den
    for r, f in enumerate(numerators):
        assert Fraction(f, den) == sum(math.perm(k, r) * p for k, p in _exact_law(law))


@pytest.mark.parametrize("text", ["3:1", "2:0.3,5:0.7", "2:0.3,3:0.5,4:0.2"])
def test_law_totals_are_the_multinomial_draws(text):
    # the same totals as multinomial @ support from an identically seeded
    # stream, which each call leaves in the same state
    law = BranchingLaw.parse(text)
    parents = np.array([1, 2, 7, 40, 1000, 3, 2 ** 40], dtype=np.int64)
    rng, reference = derive(61, 0), derive(61, 0)
    for _ in range(3):
        got = law.totals(parents, rng)
        want = reference.multinomial(parents, law.probs) @ law.support
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()
        np.testing.assert_equal(rng.bit_generator.state, reference.bit_generator.state)


@pytest.mark.parametrize("power", [600, 1000])
def test_retired_bounds_never_round_to_zero(power):
    # 2^600 particles put b^12 near 2^-7200, far below the smallest float; the
    # bound still rounds up, to the smallest positive float
    law = BranchingLaw.binary_ternary()
    start = ParticleMeasure.delta(0, count=2 ** power)
    out = engine.event_outcomes([start], law, [(4, parse_set("(-inf,0]"), 0.3, False)],
                                [3], [derive(19, power)])
    assert (out.decided_at == 0).all() and out.hits.all()
    assert (out.bounds == 2.0 ** -1074).all()


def test_block_rows_bounds_block_size():
    # at most 256 rows and 2^16 sites at the final width: from one particle,
    # 256 rows up to n = 255 and one row from n = 32768
    delta = ParticleMeasure.delta(0)
    assert engine.block_rows(delta, 16) == 256
    assert engine.block_rows(delta, 255) == 256
    assert engine.block_rows(delta, 256) == 2 ** 16 // 257
    assert engine.block_rows(delta, 875) == 2 ** 16 // 876
    assert engine.block_rows(ParticleMeasure({0: 1, 1: 1}), 875) == 2 ** 16 // 1752
    assert engine.block_rows(delta, 10 ** 4) == 2 ** 16 // 10001
    assert engine.block_rows(delta, 32767) == 2
    assert engine.block_rows(delta, 32768) == 1
    assert engine.block_rows(delta, 10 ** 6) == 1


def test_evolve_validates():
    with pytest.raises(ValueError):
        engine.evolve(ParticleMeasure.delta(0), BranchingLaw.binary(), -1, 1,
                      derive(0, 0), REALS)


# -- fractions ----------------------------------------------------------------------

def empirical_fraction(zeta: ParticleMeasure, n: int, a: IntervalSet) -> float:
    """Fraction of particles in sqrt(n) * A, honoring endpoint flags on the lattice.

    The reference the vector kernel's `fraction_in` is checked against; for
    n = 0 the set is used unscaled.
    """
    scaled = a.scale(math.sqrt(n)) if n >= 1 else a
    inside = sum(c for x, c in zeta.counts.items() if scaled.contains(float(x)))
    return inside / zeta.total


def test_empirical_fraction_examples():
    m = ParticleMeasure({-1: 3, 1: 1}, generation=1)
    assert empirical_fraction(m, 1, IntervalSet.below(0)) == 0.75
    assert empirical_fraction(m, 1, REALS) == 1.0
    assert empirical_fraction(m, 1, EMPTY) == 0.0


def test_empirical_fraction_scaling():
    m = ParticleMeasure({-2: 1, 0: 1, 2: 1, 6: 1}, generation=4)
    # sqrt(4) * [-1, 1] = [-2, 2]
    assert empirical_fraction(m, 4, IntervalSet.closed(-1, 1)) == 0.75
    # open endpoints exclude lattice points
    assert empirical_fraction(m, 4, IntervalSet.open(-1, 1)) == 0.25


def test_lattice_fraction_lln():
    # fractions over a big run approach the Gaussian mass (statistical band);
    # odd n avoids the walk's lattice atom at the boundary point 0
    law = BranchingLaw.binary_ternary()
    a = IntervalSet.below(0)
    start = ParticleMeasure.delta(0)
    vals = np.concatenate([
        _final_block(start, law, 401, rows, rng).fraction_in(*a.site_ranges(math.sqrt(401.0)))
        for rows, rng in _blocks(start, 401, 40, 77)])
    assert vals.size == 40
    assert abs(float(np.mean(vals)) - 0.5) < 0.015


# -- exact enumeration ----------------------------------------------------------------

def test_enumerate_binary_all_left():
    got = engine.enumerate_exact(2, BranchingLaw.binary(), IntervalSet.below(0), 1.0)
    assert got == Fraction(25, 64)


def test_enumerate_trivial_cases():
    law = BranchingLaw.binary()
    assert engine.enumerate_exact(0, law, IntervalSet.closed(-1, 1), 1.0) == 1
    assert engine.enumerate_exact(0, law, IntervalSet.closed(1, 2), 0.5) == 0
    got = engine.enumerate_exact(1, law, IntervalSet.above(0, closed=False), 1.0)
    assert got == Fraction(1, 4)


def test_enumerate_probability_monotone_in_p():
    law = BranchingLaw.binary_ternary()
    a = IntervalSet.below(0)
    ps = [0.3, 0.6, 0.9]
    vals = [engine.enumerate_exact(2, law, a, p) for p in ps]
    assert vals[0] >= vals[1] >= vals[2]


def test_enumerate_matches_monte_carlo():
    law = BranchingLaw.binary_ternary()
    a = IntervalSet.below(0)
    p = 0.75
    exact = float(engine.enumerate_exact(2, law, a, p))
    replicas = 100_000
    rng = derive(303, 0)
    hits = 0
    for _ in range(replicas):
        m = engine.step_exact(engine.step_exact(ParticleMeasure.delta(0), law, rng),
                              law, rng)
        if empirical_fraction(m, 2, a) >= p:
            hits += 1
    sigma = math.sqrt(exact * (1 - exact) / replicas)
    assert abs(hits / replicas - exact) < 4 * sigma


def test_enumerate_size_guard():
    with pytest.raises(InfeasibleError):
        engine.enumerate_exact(8, BranchingLaw.binary_ternary(),
                               IntervalSet.below(0), 0.5)


@pytest.mark.parametrize("text", ["2:1", "3:1", "2:0.5,3:0.5", "2:0.5,4:0.5",
                                  "2:0.3,3:0.5,4:0.2"])
def test_enumeration_products_bound_the_convolutions(monkeypatch, text):
    # the pre-count against the products the DP makes, counted: never
    # below, and within a factor of 5 (1.25 from n = 2 on); past the first
    # n over 10^5 products the DP would take seconds, so the grid stops
    law = BranchingLaw.parse(text)
    made = []
    convolve = engine._convolve

    def counting(a_dist, b_dist):
        made.append(len(a_dist) * len(b_dist))
        return convolve(a_dist, b_dist)

    monkeypatch.setattr(engine, "_convolve", counting)
    for n in range(1, 8):
        bound = engine._enumeration_products(n, law, 10 ** 9)
        if bound > 10 ** 5:
            break
        for target in ("(-inf,0]", "[-1,1]", "[0.5,2]"):
            made.clear()
            engine.enumerate_exact(n, law, parse_set(target), 0.5)
            assert sum(made) <= bound <= 5 * sum(made), (n, target)
            assert n == 1 or bound <= 1.25 * sum(made), (n, target)
    assert n >= 3


def test_enumeration_products_stop_past_the_limit():
    # a law with a huge top count is refused after a few hundred steps
    law = BranchingLaw.parse(f"2:0.5,{10 ** 30}:0.5")
    assert engine._enumeration_products(3, law, 10 ** 6) > 10 ** 6
    with pytest.raises(InfeasibleError, match="10\\^6 products"):
        engine.enumerate_exact(3, law, IntervalSet.below(0), 0.5)
    assert engine._enumeration_products(6, BranchingLaw.binary(), 10 ** 6) == 2220
