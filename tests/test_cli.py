import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brwlab.cli import main


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def rows_of(text):
    import csv
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    parsed = list(csv.reader(lines))
    return [dict(zip(parsed[0], row)) for row in parsed[1:]]


def test_rate_shift_example(tmp_path):
    code, text = run_cli(["rate", "--set", "(-inf,0]", "--p", "0.8", "--b", "2"],
                         tmp_path)
    assert code == 0
    row = rows_of(text)[0]
    assert row["regime"] == "shift"
    assert abs(float(row["i_rate"]) - 0.583369) < 1e-5
    assert row["scale"] == "sqrt_n"


def test_rate_degenerate_full_line(tmp_path):
    code, text = run_cli(["rate", "--set", "R", "--p", "0.3"], tmp_path)
    assert code == 0
    row = rows_of(text)[0]
    assert row["regime"] == "degenerate"
    assert float(row["i_tilde"]) == 0.0


def test_rate_malformed_set_exits_2(tmp_path, capsys):
    code = main(["rate", "--set", "(0,]", "--p", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "position 3" in err


def test_rate_p_out_of_range_exits_2(tmp_path):
    assert main(["rate", "--set", "R", "--p", "1.5"]) == 2
    assert main(["rate", "--set", "R", "--p", "0"]) == 2


def test_simulate_requires_positive_replicas():
    assert main(["simulate", "--replicas", "0", "--n", "4"]) == 2


def test_threads_must_be_positive():
    assert main(["simulate", "--threads", "0", "--n", "4"]) == 2
    assert main(["probe-concentration", "--threads", "-1", "--n", "2",
                 "--replicas", "5"]) == 2


def test_negative_generations_and_deviation_exit_2(capsys):
    assert main(["simulate", "--n", "-1"]) == 2
    assert "n must be nonnegative" in capsys.readouterr().err
    assert main(["probe-concentration", "--delta", "-1", "--n", "2",
                 "--replicas", "5"]) == 2
    assert "delta must be positive" in capsys.readouterr().err


def test_simulate_reproducible_and_sane(tmp_path):
    args = ["simulate", "--law", "2:0.5,3:0.5", "--n", "65", "--replicas", "20",
            "--seed", "42"]
    code1, text1 = run_cli(args, tmp_path, "a.csv")
    code2, text2 = run_cli(args, tmp_path, "b.csv")
    assert code1 == code2 == 0
    assert text1 == text2
    finals = [float(r["fraction_A"]) for r in rows_of(text1)
              if r["generation"] == "65"]
    assert len(finals) == 20
    assert abs(float(np.mean(finals)) - 0.5) < 0.05
    norm = [float(r["normalized_total"]) for r in rows_of(text1)]
    assert all(v > 0 for v in norm)


def test_simulate_runs_replicas_in_seeded_blocks(tmp_path):
    # block b holds replicas [R b, R (b + 1)) at n = 65, R = block_rows, and
    # draws from (seed, b), so more replicas leave the first block's rows
    # unchanged
    from brwlab import engine
    from brwlab.engine import BranchingLaw, ParticleMeasure
    from brwlab.intervals import parse_set
    from brwlab.streams import derive

    size = engine.block_rows(ParticleMeasure.delta(0), 65)
    more = size + 6
    args = ["simulate", "--n", "65", "--seed", "3"]
    _, text_one = run_cli(args + ["--replicas", str(size)], tmp_path, "a.csv")
    _, text_two = run_cli(args + ["--replicas", str(more)], tmp_path, "b.csv")
    rows_one, rows_two = rows_of(text_one), rows_of(text_two)
    assert len(rows_one) == size * 66 and len(rows_two) == more * 66
    assert rows_two[:len(rows_one)] == rows_one
    assert [r["replica"] for r in rows_two[::66]] == [str(i) for i in range(more)]
    # replica R + 1 is row 1 of block 1; the CLI prints its evolve row as is
    stats, _ = engine.evolve(ParticleMeasure.delta(0),
                             BranchingLaw.parse("2:0.5,3:0.5"), 65, 6,
                             derive(3, 1), parse_set("(-inf,0]"))
    printed = rows_two[(size + 1) * 66:(size + 2) * 66]
    assert [int(r["generation"]) for r in printed] == list(range(66))
    columns = ("total_log", "normalized_total", "mean_position", "fraction_A")
    for column, values in zip(columns, stats.values(), strict=True):
        assert [float(r[column]) for r in printed] == values[:, 1].tolist()


@pytest.mark.parametrize("args,digest,rescaled", [
    (["--law", "2:0.5,3:0.5", "--n", "400", "--replicas", "3", "--seed", "7"],
     "e320f62b2d397e7c6fee3f83bd45b738377ac8c755fc2abfb907c494494b1213", False),
    (["--law", "2:0.3,3:0.5,4:0.2", "--n", "700", "--replicas", "5", "--seed", "3"],
     "197bbd62364c5044fc09679369484f4df270b96f1cf9ce02c3a3bbfd26ed57c9", True),
], ids=["readme", "rescaled"])
def test_simulate_rows_unchanged_since_0_14_0(tmp_path, args, digest, rescaled):
    # the sha256 of the header and data rows 0.14.0 printed under numpy 2.4:
    # the README line, whose sites pass 2^53 particles and take the normal
    # path on most steps, and a run whose rows pass the 1e250 rescale
    _, text = run_cli(["simulate"] + args, tmp_path)
    rows = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    assert hashlib.sha256(rows.encode()).hexdigest() == digest
    if rescaled:
        # a total above 1e250 times the 701 sites puts more than 1e250 on one
        assert max(float(row["total_log"]) for row in rows_of(text)) > math.log(1e250 * 701)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_probe_concentration_rows_unchanged_since_0_15_0(tmp_path, monkeypatch, threads):
    # the sha256 of the header and data rows under numpy 2.4 since the
    # 24th-moment certificate: sharing runs, as the three populations' six
    # blocks do, changes no row at any worker count
    from brwlab import ldp

    monkeypatch.setattr(ldp, "_usable_cores", lambda: 3)
    _, text = run_cli(["probe-concentration", "--replicas", "500", "--seed", "1",
                       "--threads", threads], tmp_path)
    rows = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    assert hashlib.sha256(rows.encode()).hexdigest() == \
        "a23c2677e3bc5e83c112d53ae78579f6ec2597d27b6f0189bd3c3b76e4479fda"


@pytest.mark.parametrize("text,p", [
    ("[0,0.05]", 0.9),
    ("[0,0.01]", 0.5),
    # three criterion-4 style draws (conftest generator, seed 7)
    ("[-2.9360356184392327,-2.871975126927544)", 0.9710197274738546),
    ("(0.9093791304553737,0.917829619235752]", 0.37409284631989553),
    ("[4.498949225882468,4.590849028973566]", 0.8706565809937593),
])
def test_rate_narrow_set_crosses_above_r_0_999(text, p, tmp_path):
    # the widest component of width w reaches p alone at r = 1 - w^2 / (4 z^2),
    # z = Phi^-1((1 + p) / 2), beyond the GRID_STEP grid's last r = 0.999
    from scipy.special import ndtri

    from brwlab.gaussian import varphi
    from brwlab.intervals import parse_set

    code, text_out = run_cli(["rate", "--set", text, "--p", repr(p)], tmp_path)
    assert code == 0
    row = rows_of(text_out)[0]
    assert row["regime"] == "dilation"
    r, x = float(row["r_star"]), float(row["x_star_dilation"])
    s = parse_set(text)
    (component,) = s.components
    width = component.upper - component.lower
    closed_form = 1.0 - width ** 2 / (4.0 * float(ndtri(0.5 * (1.0 + p))) ** 2)
    assert closed_form > 0.999
    assert abs(r - closed_form) <= 1e-8
    assert varphi(s, r, x) >= p - 1e-8


def test_import_and_a_rate_run_load_no_scipy():
    # a fresh interpreter, since the tests themselves import scipy as a reference
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys\n"
            "import brwlab.cli\n"
            "assert brwlab.cli.main(['rate', '--set', '[-1,1]', '--p', '0.95']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert ",dilation," in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


def test_ldp_infeasible_exits_3(tmp_path, capsys):
    code = main(["ldp", "--set", "(-inf,0]", "--p", "0.9", "--kind", "shift",
                 "--x", "0.2", "--n-grid", "64", "--replicas", "100"])
    assert code == 3
    err = capsys.readouterr().err
    assert "infeasible" in err and "falls short" in err


def test_ldp_thread_count_invariance(tmp_path):
    args = ["ldp", "--set", "(-inf,0]", "--p", "0.8", "--law", "2:0.5,3:0.5",
            "--n-grid", "36,64", "--replicas", "120", "--seed", "7"]
    _, text1 = run_cli(args + ["--threads", "1"], tmp_path, "t1.csv")
    _, text2 = run_cli(args + ["--threads", "2"], tmp_path, "t2.csv")
    assert text1 == text2
    row = rows_of(text1)[0]
    assert row["kind"] == "shift"
    assert float(row["q_hat"]) > 0.0


def _retirement_line(text):
    (line,) = [ln for ln in text.splitlines() if ln.startswith("# decided_early=")]
    fields = dict(token.split("=") for token in line[2:].split())
    return int(fields["decided_early"]), int(fields["replicas"]), fields["misdecision_bound"]


@pytest.mark.parametrize("args", [
    ["ldp", "--set", "(-inf,0]", "--p", "0.8", "--n-grid", "36,64,100",
     "--replicas", "120"],
    ["probe-concentration", "--pop-grid", "100,400", "--n", "12", "--replicas", "300"],
    ["probe-typical", "--n-grid", "16,64", "--replicas", "200"],
])
def test_estimating_commands_print_their_retirements(tmp_path, monkeypatch, args):
    # one comment line sums the grid points' early retirements, replicas and
    # misdecision bounds (math.fsum); it is the same at any worker count, and
    # it equals the sums of the estimators called point by point
    from brwlab import ldp
    from brwlab.engine import BranchingLaw
    from brwlab.intervals import parse_set

    monkeypatch.setattr(ldp, "_usable_cores", lambda: 3)
    texts = [run_cli(args + ["--seed", "4", "--threads", threads], tmp_path,
                     f"t{threads}.csv")[1] for threads in ("1", "3")]
    assert texts[0] == texts[1]
    early, replicas, bound = _retirement_line(texts[0])
    half_line = parse_set("(-inf,0]")
    if args[0] == "ldp":
        law = BranchingLaw.parse("2:0.5,3:0.5")
        results = [ldp.conditional_success_estimate(
            ldp.StrategySpec.make("shift", float(row["x"]), 0.0, int(row["n"])),
            half_line, 0.8, law, 120, seed=(4, i)) for i, row in enumerate(rows_of(texts[0]))]
    elif args[0] == "probe-concentration":
        law = BranchingLaw.parse("2:0.995,200:0.005")
        results = [ldp.concentration_probe(pop, half_line, 0.05, 12, law, 300, seed=(4, i))
                   for i, pop in enumerate((100, 400))]
    else:
        law = BranchingLaw.parse("2:0.5,3:0.5")
        results = [ldp.typical_deviation_probe(half_line, 1.0, n, law, 200, seed=(4, i))
                   for i, n in enumerate((16, 64))]
    assert replicas == sum(res.replicas for res in results)
    assert 0 < early == sum(res.decided_early for res in results) <= replicas
    assert float(bound) == math.fsum(res.misdecision_bound for res in results)
    assert 0.0 < float(bound) <= early * 1e-12
    assert bound == repr(float(bound))


def test_ldp_lower_tail_of_an_interval(tmp_path):
    # a fraction in [-1, 1] below 0.1 is a fraction in its complement, a
    # target of two half-lines, above 0.9
    args = ["ldp", "--set", "(-inf,-1) U (1,inf)", "--p", "0.9",
            "--n-grid", "100,400,900", "--replicas", "100", "--seed", "1"]
    code, text1 = run_cli(args + ["--threads", "1"], tmp_path, "t1.csv")
    _, text2 = run_cli(args + ["--threads", "2"], tmp_path, "t2.csv")
    assert code == 0
    assert text1 == text2
    rows = rows_of(text1)
    assert "regime=shift" in text1
    assert all(float(row["q_hat"]) > 0.0 for row in rows)
    slope = float(text1.split("fit_slope=")[1].split()[0])
    assert abs(slope / float(rows[0]["theory_rate"]) - 1.0) <= 0.05


def test_ldp_grid_with_a_repeated_n_prints_every_row(tmp_path):
    # two distinct n cannot be fitted, so the fit comment is left out, but
    # every simulated point still prints its row
    args = ["ldp", "--set", "(-inf,0]", "--p", "0.8", "--n-grid", "100,100,400",
            "--replicas", "100", "--seed", "1", "--threads", "1"]
    code, text = run_cli(args, tmp_path)
    assert code == 0
    assert "fit_slope" not in text
    assert [row["n"] for row in rows_of(text)] == ["100", "100", "400"]
    _, wider = run_cli(args[:6] + ["100,100,400,900"] + args[7:], tmp_path, "wide.csv")
    assert "fit_slope=" in wider


@pytest.mark.parametrize("args,column,values", [
    (["ldp", "--set", "(-inf,0]", "--p", "0.8", "--law", "2:0.5,3:0.5",
      "--n-grid", "100,400,900", "--replicas", "100"],
     "q_hat", ["0.86", "0.71", "0.92"]),
    (["ldp", "--set", "[-0.6744897501960817,0.6744897501960817]", "--p", "0.9",
      "--n-grid", "60,120,240", "--replicas", "500"],
     "q_hat", ["0.024", "0.002", "0.962"]),
    (["probe-concentration", "--replicas", "500"],
     "frequency", ["0.1", "0.012", "0.0"]),
])
def test_workload_estimates_unchanged_since_0_15_0(tmp_path, args, column, values):
    # the benchmark's simulation workloads at seed 11 print the estimates
    # 0.15.0 printed, the first version with the 24th-moment certificate,
    # whose replicas retire earlier (0.14.0: 0.85, 0.03, 0.964 and 0.094,
    # 0.01 where these differ).  Blocks hold up to 256 rows: 256 at every
    # point but the shift points n = 400 and 900, which get 170 and 74 rows
    _, text = run_cli(args + ["--seed", "11", "--threads", "1"], tmp_path)
    assert [row[column] for row in rows_of(text)] == values


def test_shift_trend_to_a_million_generations(tmp_path):
    # criterion 7's set and law at n = 10^4, 10^5 and 10^6, the README's
    # command: the relative gap to the theory rate falls with n, and the
    # fitted slope is within 0.2% of the rate (at seeds 1-8 it lay between
    # 0.04% and 0.06% below it)
    code, text = run_cli(["ldp", "--set", "(-inf,0]", "--p", "0.8",
                          "--n-grid", "10000,100000,1000000", "--replicas",
                          "100", "--seed", "1", "--threads", "1"], tmp_path)
    assert code == 0
    rows = rows_of(text)
    gaps = [float(row["gap"]) for row in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    slope = float(text.split("fit_slope=")[1].split()[0])
    assert abs(slope / float(rows[0]["theory_rate"]) - 1.0) <= 0.002


def test_enumerate_exact_row(tmp_path):
    code, text = run_cli(["enumerate", "--n", "2", "--law", "2:1.0",
                          "--set", "(-inf,0]", "--p", "1"], tmp_path)
    assert code == 0
    row = rows_of(text)[0]
    assert row["probability_exact"] == "25/64"
    assert float(row["probability"]) == 0.390625


@pytest.mark.parametrize("n, law, code", [(6, "2:1", 0), (5, "2:0.5,3:0.5", 3)])
def test_enumerate_exit_code_follows_the_product_count(tmp_path, n, law, code):
    # n = 6 under 2:1 makes about 2,100 products; n = 5 under 2:0.5,3:0.5
    # would pass the limit of 10^6
    got, text = run_cli(["enumerate", "--n", str(n), "--law", law,
                         "--set", "(-inf,0]", "--p", "0.5"], tmp_path)
    assert got == code
    if code == 0:
        assert 0.0 < float(rows_of(text)[0]["probability"]) < 1.0


def test_interp_alpha_hat_band(tmp_path):
    code, text = run_cli(["interp", "--alpha", "0.75", "--p", "0.5",
                          "--delta", "0.05", "--n-grid", "100,1000,10000"],
                         tmp_path)
    assert code == 0
    rows = rows_of(text)
    alpha_hat = float(rows[0]["alpha_hat"])
    assert 0.65 <= alpha_hat <= 0.85
    assert "# alpha_hat=" in text
    # pinned (n, k, w): the first feasible family member at each n
    assert [(row["n"], row["k"], row["w"]) for row in rows] == [
        ("100", "3", "31"), ("1000", "5", "171"), ("10000", "9", "1004")]


def test_clt_scan_metadata_and_decay(tmp_path):
    code, text = run_cli(["clt-scan", "--set", "(-inf,0]", "--R", "2",
                          "--n-grid", "25,100"], tmp_path)
    assert code == 0
    rows = rows_of(text)
    assert float(rows[0]["sup_error"]) > float(rows[1]["sup_error"])
    assert float(rows[0]["xi_radius"]) == 10.0


def test_probe_commands_run(tmp_path):
    code, text = run_cli(["probe-typical", "--set", "(-inf,0]", "--t", "1",
                          "--n-grid", "16,32", "--replicas", "120",
                          "--seed", "3"], tmp_path)
    assert code == 0
    assert len(rows_of(text)) == 2
    code, text = run_cli(["probe-concentration", "--pop-grid", "20,80",
                          "--n", "8", "--replicas", "200", "--seed", "3"],
                         tmp_path)
    assert code == 0
    rows = rows_of(text)
    assert len(rows) == 2
    assert 0.0 <= float(rows[0]["frequency"]) <= 1.0


@pytest.mark.parametrize("args", [
    ["ldp", "--set", "(-inf,0]", "--p", "0.8", "--n-grid", "16,36",
     "--replicas", "100"],
    ["probe-concentration", "--pop-grid", "2,3", "--n", "2", "--replicas", "5"],
    ["probe-typical", "--set", "(-inf,0]", "--t", "1", "--n-grid", "4,8",
     "--replicas", "5"],
])
def test_grid_streams_disjoint_across_seeds(args, tmp_path, monkeypatch):
    # seed 7919 at grid point 0 must not replay seed 0 at grid point 1
    from brwlab import ldp
    keys = []
    original = ldp.derive

    def recording_derive(*key):
        keys.append(key)
        return original(*key)

    monkeypatch.setattr(ldp, "derive", recording_derive)
    seen = []
    for seed in ("0", "7919"):
        keys.clear()
        code, _ = run_cli(args + ["--seed", seed, "--threads", "1"], tmp_path)
        assert code == 0
        seen.append(set(keys))
    assert seen[0] and seen[1]
    assert not seen[0] & seen[1]


@pytest.mark.parametrize("command", ["ldp", "probe-concentration"])
def test_batched_grid_rows_equal_per_point_estimates(command, tmp_path, monkeypatch):
    # every grid point's runs of blocks go to the pool in one map, and the
    # rows equal single-point estimates on the same (seed, grid index) keys
    # at any --threads
    from brwlab import engine, ldp
    from brwlab.cli import _fmt
    from brwlab.engine import BranchingLaw, ParticleMeasure
    from brwlab.intervals import IntervalSet
    from brwlab.rates import classify

    maps = []
    original = ldp.WorkerPool.map

    def counting_map(self, fn, jobs):
        maps.append(len(jobs))
        return original(self, fn, jobs)

    monkeypatch.setattr(ldp.WorkerPool, "map", counting_map)
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 3)
    law, half_line = BranchingLaw.binary_ternary(), IntervalSet.below(0)
    # three blocks per point, of R, R and 2 rows
    size = engine.block_rows(ParticleMeasure.delta(0), 16)
    replicas = 2 * size + 2
    if command == "ldp":
        grid = (36, 64, 100)
        args = ["ldp", "--set", "(-inf,0]", "--p", "0.8", "--n-grid",
                "36,64,100", "--replicas", str(replicas), "--seed", "7"]
        report = classify(half_line, 0.8, law.b)
        expected = []
        for idx, n in enumerate(grid):
            spec = ldp.StrategySpec.make("shift", report.x_star, 0.0, n)
            assert engine.block_rows(ParticleMeasure.delta(0), spec.m) == size
            est = ldp.ldp_lower_bound(spec, half_line, 0.8, law, replicas,
                                      seed=(7, idx), report=report)
            expected.append([n, "shift", spec.x, spec.r, spec.w, spec.q, spec.s,
                             est.log_prefix_prob, est.q_hat, est.ci_lo, est.ci_hi,
                             est.log_neg_log, est.theory_rate, est.relative_gap])
    else:
        grid = (20, 30, 40)
        args = ["probe-concentration", "--pop-grid", "20,30,40", "--n", "8",
                "--law", "2:0.5,3:0.5", "--replicas", str(replicas), "--seed", "7"]
        expected = []
        for idx, pop in enumerate(grid):
            assert engine.block_rows(ParticleMeasure.delta(0, count=pop), 8) == size
            res = ldp.concentration_probe(pop, half_line, 0.05, 8, law, replicas,
                                          seed=(7, idx))
            expected.append([pop, res.delta, res.n, res.replicas, res.frequency,
                             res.reference])
    maps.clear()
    texts = []
    for threads in ("1", "2", "3"):
        code, text = run_cli(args + ["--threads", threads], tmp_path)
        assert code == 0
        texts.append(text)
    assert texts[0] == texts[1] == texts[2]
    # the grid points share one law, so their nine blocks are dealt round
    # one run per process, except that at one process the ldp blocks hold
    # 94,576 sites at their final widths (m = 31, 58 and 92 free
    # generations), more than a run's 2^16, and are dealt round two runs
    assert maps == ([2, 2, 3] if command == "ldp" else [1, 2, 3])
    rows = [line.split(",") for line in texts[0].splitlines()
            if not line.startswith("#")][1:]
    assert rows == [[_fmt(value) for value in row] for row in expected]


def test_env_var_default_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("BRWLAB_SEED", "9")
    code, text = run_cli(["rate", "--set", "R", "--p", "0.3"], tmp_path)
    assert code == 0
    assert "seed=9 " in text


def test_config_file_merges_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# experiment defaults\nset=(-inf,0]\np=0.8\nb=2\nseed=5\n")
    code, text = run_cli(["rate", "--config", str(cfg)], tmp_path, "c1.csv")
    assert code == 0
    assert "seed=5" in text
    assert rows_of(text)[0]["regime"] == "shift"
    code, text = run_cli(["rate", "--config", str(cfg), "--p", "0.4"],
                         tmp_path, "c2.csv")
    assert code == 0
    assert rows_of(text)[0]["regime"] == "degenerate"


def test_config_unknown_key_exits_2(tmp_path, capsys):
    # a key that names no option of the subcommand is an error, not ignored
    cfg = tmp_path / "cfg"
    cfg.write_text("n=4\n# comment\nreplica=5\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3" in err and "'replica'" in err
    cfg.write_text("set=(-inf,0]\np=0.8\nmode=hybrid\n")
    assert main(["ldp", "--config", str(cfg)]) == 2
    assert f"{cfg}:3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "ldp", "probe-typical"])
def test_mode_and_cap_options_are_gone(command):
    for flag in ("--mode", "--cap"):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "1"])
        assert exc.value.code == 2


def test_missing_required_option_exits_2():
    assert main(["rate", "--p", "0.5"]) == 2  # --set absent


COMMANDS = ["rate", "simulate", "ldp", "interp", "enumerate",
            "probe-concentration", "probe-typical", "clt-scan"]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_lists_its_options(command, capsys):
    from brwlab import cli

    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: brwlab {command} ")
    for opt in cli._SPECS[command] + cli._COMMON:
        assert f"--{opt.name} " in out


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in out


def test_unknown_command_exits_2_and_names_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--p", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument command: invalid choice: 'bogus'" in err
    assert "(choose from " + ", ".join(f"'{c}'" for c in COMMANDS) + ")" in err


def test_usage_after_a_command_still_lists_every_command(capsys):
    # only the named subcommand's parser is built, yet the top-level usage
    # line of an error is the one with all eight
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--set", "R", "--p", "0.5", "extra"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "{" + ",".join(COMMANDS) + "}" in err
    assert "unrecognized arguments: extra" in err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_numeric_failure_exits_4(monkeypatch, capsys):
    from brwlab import cli
    from brwlab.errors import NumericError

    def boom(resolved):
        raise NumericError("synthetic convergence failure")

    monkeypatch.setitem(cli._DISPATCH, "rate", boom)
    code = main(["rate", "--set", "R", "--p", "0.5"])
    assert code == 4
    assert "numeric failure" in capsys.readouterr().err


def test_rate_on_an_interval_too_narrow_to_dilate_exits_4(capsys):
    # the centred interval reaches p only at an r that rounds to 1
    assert main(["rate", "--set", "[0,1e-9]", "--p", "0.5"]) == 4
    assert capsys.readouterr().err == (
        "brwlab: numeric failure: no dilation crossing for p=0.5: the widest "
        "component, of width 1e-09, reaches p only at an r that rounds to 1\n")


# -- parsers built once per process -----------------------------------------------

SESSION = [
    ["rate", "--set", "(-inf,0]", "--p", "0.8"],
    ["clt-scan", "--set", "[-1,1] U [2,3]", "--R", "3", "--n-grid", "9,36"],
    ["rate", "--set", "[-1,1]", "--p", "0.95", "--b", "3", "--seed", "4"],
    ["enumerate", "--n", "2", "--set", "(-inf,0]", "--p", "1"],
    ["simulate", "--n", "8", "--replicas", "2", "--seed", "3"],
    ["interp", "--k0", "3"],
    ["probe-typical", "--n-grid", "16,32", "--replicas", "50", "--seed", "2"],
    ["ldp", "--set", "(-inf,0]", "--p", "0.8", "--n-grid", "36,64",
     "--replicas", "100", "--seed", "5", "--threads", "2"],
]


def _fresh_python(*args):
    """stdout of ``python *args`` in a new interpreter on this checkout's
    sources, with BRWLAB_SEED unset."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("BRWLAB_SEED", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_repeated_calls_print_what_fresh_interpreters_print(capsys, monkeypatch):
    monkeypatch.delenv("BRWLAB_SEED", raising=False)
    fresh = [_fresh_python("-m", "brwlab.cli", *argv) for argv in SESSION]
    for _ in range(2):
        for argv, expected in zip(SESSION, fresh):
            assert main(argv) == 0
            assert capsys.readouterr().out == expected


def test_import_builds_no_parser():
    code = "import brwlab.cli\nprint(brwlab.cli._parser.cache_info().currsize)\n"
    assert _fresh_python("-c", code) == "0\n"


def _printed(parser, argv, capsys):
    """(exit code, stdout, stderr) of ``parser.parse_args(argv)`` that exits."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["52", "200"])
def test_cached_parsers_print_the_help_of_fresh_ones(columns, capsys, monkeypatch):
    # help is laid out when printed, at the terminal width of that moment
    from brwlab import cli

    monkeypatch.setenv("COLUMNS", columns)
    fresh = cli._parser.__wrapped__
    top = fresh(None).format_help()
    assert top.splitlines()[0].startswith("usage: brwlab [-h] [--version]")
    for command in [None, *COMMANDS]:
        assert cli._parser(command).format_help() == top
    for command in COMMANDS:
        argv = [command, "--help"]
        expected = _printed(fresh(None), argv, capsys)
        assert _printed(fresh(command), argv, capsys) == expected
        assert expected[0] == 0 and expected[1].startswith(f"usage: brwlab {command} ")
        for _ in range(2):
            assert _printed(cli._parser(command), argv, capsys) == expected


def test_a_usage_error_leaves_the_next_call_unchanged(capsys, monkeypatch):
    from brwlab import cli

    monkeypatch.delenv("BRWLAB_SEED", raising=False)
    ok = ["rate", "--set", "(-inf,0]", "--p", "0.8"]
    expected = _fresh_python("-m", "brwlab.cli", *ok)
    bad_type = _printed(cli._parser.__wrapped__("rate"), ["rate", "--p", "x"], capsys)
    assert bad_type[0] == 2 and "invalid float value: 'x'" in bad_type[2]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(ok + ["--bogus", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err
        assert _printed(cli._parser("rate"), ["rate", "--p", "x"], capsys) == bad_type
        assert main(ok) == 0
        assert capsys.readouterr().out == expected


def test_config_and_seed_env_do_not_carry_to_the_next_call(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("set=[-1,1]\np=0.95\nseed=5\n")
    monkeypatch.delenv("BRWLAB_SEED", raising=False)
    code, text = run_cli(["rate", "--config", str(cfg)], tmp_path, "a.csv")
    assert code == 0 and "# seed=5 " in text and rows_of(text)[0]["p"] == "0.95"
    # the next call reads neither the file's set and p nor its seed
    assert main(["rate"]) == 2
    assert "--set is required" in capsys.readouterr().err
    code, text = run_cli(["rate", "--set", "(-inf,0]", "--p", "0.8"], tmp_path, "b.csv")
    assert code == 0 and "# seed=0 " in text and rows_of(text)[0]["p"] == "0.8"
    monkeypatch.setenv("BRWLAB_SEED", "7")
    _, text = run_cli(["rate", "--set", "(-inf,0]", "--p", "0.8"], tmp_path, "c.csv")
    assert "# seed=7 " in text
    monkeypatch.delenv("BRWLAB_SEED")
    _, text = run_cli(["rate", "--set", "(-inf,0]", "--p", "0.8"], tmp_path, "d.csv")
    assert "# seed=0 " in text


def test_clt_scan_past_the_ldexp_range_exits_0(tmp_path):
    # from n = 1023 on, the path counts are divided as integers
    code, text = run_cli(["clt-scan", "--set", "(-inf,0]", "--n-grid", "1022,1024"], tmp_path)
    assert code == 0
    assert [row["n"] for row in rows_of(text)] == ["1022", "1024"]
