"""End-to-end CLI runs: dispatch, artifacts, exit codes, reproducibility."""
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from advalloc import cli, equilibrium, training
from advalloc.cli import FP_ITERATIONS, MIX_EPS, MW_HEADER, STRATEGIES_HEADER, run_cli
from advalloc.baselines import RESULTS_HEADER
from advalloc.completion import brute_force_completion, optimal_completion, optimal_gaps
from advalloc.config import load_config
from advalloc.equilibrium import payoff_game, solve_acceptance_lp, solve_zero_sum
from advalloc.game import format_sequence
from advalloc.persist import load_model, load_ring
from advalloc.rng import derive_rng
from advalloc.training import METRICS_HEADER

SMALL_CFG = """
n_users = 4
n_resources = 2
price_set = {1, 2, 3}
budget_set = {1, 2, 3}
sequence = [1, 2, 2, 3]
expert_prices = [1,1,2,3]; [1,2,2,2]; [2,2,3,3]
episodes = 40
batch = 4
hidden = 8
latent_dim = 4
mw_rollouts = 2
seed = 5
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return tuple(rows[0]), rows[1:]


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert run_cli(["oracle-check", "--frobnicate"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_runtime_failure_prints_one_diagnostic_line(self, tmp_path, capsys):
        code = run_cli(["ne", "--config", str(tmp_path / "missing.cfg"),
                        "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestOracleCheck:
    def test_all_cases_match(self, tmp_path, capsys):
        code = run_cli(["oracle-check", "--cases", "40", "--seed", "7",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "40/40 matched"
        assert (tmp_path / "run-manifest.txt").exists()
        assert not (tmp_path / "oracle-counterexample.txt").exists()

    @staticmethod
    def drawn_cases(seed, count):
        rng = derive_rng(seed, "oracle-check")
        return [cli._random_instance(rng) for _ in range(count)]

    def test_scores_the_drawn_cases_in_groups(self, tmp_path, monkeypatch):
        scored = []

        def recording(group):
            scored.append(list(group))
            return optimal_gaps(group)

        monkeypatch.setattr(cli, "optimal_gaps", recording)
        assert run_cli(["oracle-check", "--cases", "40", "--seed", "7",
                        "--out-dir", str(tmp_path)]) == 0
        groups = {}
        for case in self.drawn_cases(7, 40):
            groups.setdefault((case[0].n_users, case[0].n_resources), []).append(case)
        assert scored == list(groups.values())
        assert len(scored) == 15

    def test_mismatch_writes_the_first_case_in_draw_order(self, tmp_path, capsys,
                                                          monkeypatch):
        cases = self.drawn_cases(7, 40)
        # draw 20's (N, R) group is scored before draw 17's
        wrong = [cases[17], cases[20]]

        def off_by_one(group):
            return [g + (case in wrong) for case, g in zip(group, optimal_gaps(group))]

        monkeypatch.setattr(cli, "optimal_gaps", off_by_one)
        code = run_cli(["oracle-check", "--cases", "40", "--seed", "7",
                        "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out.strip() == "38/40 matched"
        assert "counterexample written to" in err
        cfg, prices, prefix = cases[17]
        assert (prices, prefix) == ((8, 12, 8, 12, 12, 2), (12, 12, 2, 2))
        fast = optimal_completion(cfg, prices, prefix)
        slow = brute_force_completion(cfg, prices, prefix)
        assert len(fast.full_sequence) == len(slow.full_sequence) == 6
        assert (tmp_path / "oracle-counterexample.txt").read_text() == (
            "completion oracle mismatch\n"
            "config: n_users=6 n_resources=3 price_set=(2, 8, 12) budget_set=(2, 12)\n"
            "prices: 8,12,8,12,12,2\n"
            "prefix: 12,12,2,2\n"
            f"fast gap: {fast.gap} via {format_sequence(fast.full_sequence)}\n"
            f"brute gap: {slow.gap} via {format_sequence(slow.full_sequence)}\n")


class TestTrain:
    def run(self, cfg_path, out, *extra):
        return run_cli(["train", "--config", str(cfg_path),
                        "--out-dir", str(out), *extra])

    def test_joint_writes_all_artifacts(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "joint"
        assert self.run(cfg_path, out, "--mode", "joint") == 0
        assert "episodes=40" in capsys.readouterr().out
        header, rows = read_csv(out / "metrics.csv")
        assert header == METRICS_HEADER
        assert len(rows) == 10
        for name in ("algorithm.model", "adversary.model", "algorithm.ring",
                     "adversary.ring", "run-manifest.txt"):
            assert (out / name).exists()
        assert load_ring(out / "adversary.ring").episodes[-1] == 40
        manifest = (out / "run-manifest.txt").read_text()
        assert "subcommand: train" in manifest
        assert "n_users = 4" in manifest

    def test_episode_flag_overrides_config(self, cfg_path, tmp_path):
        out = tmp_path / "short"
        assert self.run(cfg_path, out, "--episodes", "8") == 0
        _, rows = read_csv(out / "metrics.csv")
        assert len(rows) == 2

    def test_alg_vs_mw_uses_sequence_prefixes(self, cfg_path, tmp_path):
        out = tmp_path / "alg"
        assert self.run(cfg_path, out, "--mode", "alg-vs-mw") == 0
        header, rows = read_csv(out / "mw_mixture.csv")
        assert header == MW_HEADER
        # one expert per prefix of the 4-slot sequence
        assert len(rows) == 4
        assert sum(float(r[2]) for r in rows) == pytest.approx(1.0)

    def test_adv_vs_mw_uses_expert_prices(self, cfg_path, tmp_path):
        out = tmp_path / "adv"
        assert self.run(cfg_path, out, "--mode", "adv-vs-mw") == 0
        _, rows = read_csv(out / "mw_mixture.csv")
        assert len(rows) == 3
        assert (out / "adversary.model").exists()

    def test_nan_learning_rate_fails_before_writing(self, cfg_path, tmp_path, capsys):
        cfg_path.write_text(SMALL_CFG + "lr_alg = nan\n")
        out = tmp_path / "nan"
        assert self.run(cfg_path, out, "--mode", "joint") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lr_alg must be finite, got nan\n"
        assert not out.exists()

    def test_diverged_training_fails_and_marks_its_manifest(self, cfg_path, tmp_path,
                                                            capsys, monkeypatch):
        ascend = training._ascend

        def poisoning_ascend(net, grads, tcfg, lr):
            ascend(net, grads, tcfg, lr)
            net.params[0].flat[0] = np.nan

        monkeypatch.setattr(training, "_ascend", poisoning_ascend)
        out = tmp_path / "diverged"
        assert self.run(cfg_path, out, "--mode", "alg-vs-mw") == 1
        message = "algorithm net parameters became non-finite at iteration 1"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "algorithm.model").exists()
        lines = (out / "run-manifest.txt").read_text().splitlines()
        assert [line for line in lines if "failed" in line] == [f"failed: {message}"]
        assert lines[-1] == f"failed: {message}"

    def test_overflowing_training_fails_without_warnings(self, tmp_path):
        # a plain interpreter, outside the suite's warnings-as-errors setting,
        # shows whatever numpy would print on stderr
        diverging = tmp_path / "diverging.cfg"
        diverging.write_text(SMALL_CFG + "lr_alg = 1e300\nlr_adv = 1e300\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "advalloc.cli", "train", "--config", str(diverging),
             "--mode", "joint", "--out-dir", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 1
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: training diverged at iteration 2: overflow ")

    def test_alg_vs_mw_without_experts_fails(self, tmp_path, capsys):
        bare = tmp_path / "bare.cfg"
        bare.write_text("n_users = 3\nn_resources = 1\n"
                        "price_set = {1}\nbudget_set = {1, 2}\nepisodes = 8\n")
        code = run_cli(["train", "--config", str(bare), "--mode", "alg-vs-mw",
                        "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "expert_budgets" in capsys.readouterr().err


class TestEval:
    @pytest.fixture
    def trained(self, cfg_path, tmp_path):
        out = tmp_path / "trained"
        assert run_cli(["train", "--config", str(cfg_path),
                        "--out-dir", str(out)]) == 0
        return out

    def test_random_mode(self, cfg_path, trained, tmp_path, capsys):
        out = tmp_path / "ev"
        code = run_cli(["eval", "--config", str(cfg_path),
                        "--model", str(trained / "algorithm.model"),
                        "--n-sequences", "30", "--out-dir", str(out)])
        assert code == 0
        assert "mode=random" in capsys.readouterr().out
        header, rows = read_csv(out / "results.csv")
        assert header == RESULTS_HEADER
        assert rows[0][0] == "learned"
        assert rows[0][2] == ""    # no ratio column in expectation mode
        assert float(rows[0][4]) >= 0.0

    def test_snapshot_mode(self, cfg_path, trained, tmp_path, capsys):
        out = tmp_path / "evs"
        code = run_cli(["eval", "--config", str(cfg_path),
                        "--model", str(trained / "algorithm.model"),
                        "--adversary", str(trained / "adversary.model"),
                        "--ring", str(trained / "adversary.ring"),
                        "--n-sequences", "20", "--out-dir", str(out)])
        assert code == 0
        assert "mode=snapshots" in capsys.readouterr().out

    def test_ring_without_adversary_fails(self, cfg_path, trained, tmp_path):
        assert run_cli(["eval", "--config", str(cfg_path),
                        "--model", str(trained / "algorithm.model"),
                        "--ring", str(trained / "adversary.ring"),
                        "--out-dir", str(tmp_path / "x")]) == 1

    def test_broken_model_header_is_one_error_line(self, cfg_path, trained, tmp_path,
                                                   capsys):
        path = trained / "algorithm.model"
        head, _, tail = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        del header["hidden"]
        path.write_bytes(json.dumps(header).encode() + b"\n" + tail)
        capsys.readouterr()
        assert run_cli(["eval", "--config", str(cfg_path), "--model", str(path),
                        "--out-dir", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == "error: model header lacks the key 'hidden'\n"

    def test_adversary_model_is_rejected(self, cfg_path, trained, tmp_path, capsys):
        code = run_cli(["eval", "--config", str(cfg_path),
                        "--model", str(trained / "adversary.model"),
                        "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "pricing" in capsys.readouterr().err


class TestModelOfAnotherGame:
    """eval and bench reject nets built for a different game in one line."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("other-game")
        path = root / "small.cfg"
        path.write_text(SMALL_CFG)
        assert run_cli(["train", "--config", str(path), "--out-dir", str(root)]) == 0
        return root

    @pytest.mark.parametrize("command", [["eval"], ["bench", "--mode", "random"],
                                         ["bench", "--mode", "worst"]])
    @pytest.mark.parametrize("game, snapshots, shapes", [
        ("price_set = {1, 2}", False, ("(4, 3)", "(4, 2)")),
        ("price_set = {1, 2, 3, 4, 5}", False, ("(4, 3)", "(4, 5)")),
        ("budget_set = {1, 2}", True, ("(4, 3)", "(4, 2)")),
        ("budget_set = {1, 2, 3, 4, 5}", True, ("(4, 3)", "(4, 5)")),
    ])
    def test_rejected_with_both_shapes(self, trained, tmp_path, capsys, command,
                                       game, snapshots, shapes):
        key = game.split(" =")[0]
        lines = [line for line in SMALL_CFG.splitlines() if not line.startswith(key)]
        path = tmp_path / "other.cfg"
        path.write_text("\n".join(lines + [game]) + "\n")
        argv = [*command, "--config", str(path), "--model", str(trained / "algorithm.model"),
                "--n-sequences", "20", "--out-dir", str(tmp_path / "out")]
        if snapshots:
            argv += ["--adversary", str(trained / "adversary.model"),
                     "--ring", str(trained / "adversary.ring")]
        capsys.readouterr()
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert all(shape in err for shape in shapes)
        assert not (tmp_path / "out" / "results.csv").exists()


class TestNe:
    def test_acceptance_lp_prints_library_value(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "acc"
        code = run_cli(["ne", "--config", str(cfg_path),
                        "--mode", "acceptance-lp", "--out-dir", str(out)])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        value, probs = solve_acceptance_lp((1, 2, 2, 3), 2)
        assert printed == pytest.approx(value, abs=1e-9)
        header, rows = read_csv(out / "strategies.csv")
        assert header == STRATEGIES_HEADER
        assert [float(r[2]) for r in rows] == pytest.approx(list(probs), abs=1e-9)

    def test_acceptance_lp_needs_a_sequence(self, tmp_path, capsys):
        bare = tmp_path / "bare.cfg"
        bare.write_text("n_users = 2\nn_resources = 1\n"
                        "price_set = {1}\nbudget_set = {1, 2}\n")
        assert run_cli(["ne", "--config", str(bare), "--mode", "acceptance-lp",
                        "--out-dir", str(tmp_path / "x")]) == 1
        assert "sequence" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,count", [("lp", "5"), ("acceptance-lp", "0")])
    def test_iterations_rejected_outside_fp(self, cfg_path, tmp_path, capsys, mode,
                                            count):
        out = tmp_path / mode
        assert run_cli(["ne", "--config", str(cfg_path), "--mode", mode,
                        "--iterations", count, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --iterations needs --mode fp, not {mode}\n"
        assert not out.exists()

    def test_fp_records_its_default_iterations(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "fp"
        assert run_cli(["ne", "--config", str(cfg_path), "--mode", "fp",
                        "--out-dir", str(out)]) == 0
        manifest = (out / "run-manifest.txt").read_text()
        assert f"  iterations = {FP_ITERATIONS}\n" in manifest
        assert run_cli(["ne", "--config", str(cfg_path), "--mode", "lp",
                        "--out-dir", str(tmp_path / "lp")]) == 0
        assert "iterations" not in (tmp_path / "lp" / "run-manifest.txt").read_text()

    def test_strategy_files_rejected_outside_lp_and_fp(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "acc"
        assert run_cli(["ne", "--config", str(cfg_path), "--mode", "acceptance-lp",
                        "--strategy-files", str(tmp_path / "nonexistent.txt"),
                        "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --strategy-files needs --mode lp or fp, "
                                "not acceptance-lp\n")
        assert not out.exists()

    def test_lp_matches_library_and_fp_brackets_it(self, cfg_path, tmp_path, capsys):
        game = load_config(cfg_path).game
        expected = solve_zero_sum(payoff_game(game)).value

        assert run_cli(["ne", "--config", str(cfg_path), "--mode", "lp",
                        "--out-dir", str(tmp_path / "lp")]) == 0
        lp_out = capsys.readouterr().out.strip()
        assert float(lp_out) == pytest.approx(expected, abs=1e-9)

        assert run_cli(["ne", "--config", str(cfg_path), "--mode", "fp",
                        "--iterations", "3000",
                        "--out-dir", str(tmp_path / "fp")]) == 0
        fp_out = capsys.readouterr().out.strip()
        bracket = fp_out.split("bracket=[")[1].split("]")[0]
        lower, upper = (float(v) for v in bracket.split(","))
        assert lower <= expected <= upper

        header, rows = read_csv(tmp_path / "lp" / "strategies.csv")
        assert header == STRATEGIES_HEADER
        for side in ("budget", "price"):
            total = sum(float(r[2]) for r in rows if r[0] == side)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_strategy_rows_are_the_support_in_index_order(self, cfg_path, tmp_path):
        payoff = payoff_game(load_config(cfg_path).game)
        mixed = solve_zero_sum(payoff)
        assert run_cli(["ne", "--config", str(cfg_path), "--mode", "lp",
                        "--out-dir", str(tmp_path / "lp")]) == 0
        _, rows = read_csv(tmp_path / "lp" / "strategies.csv")
        expected = [[side, str(i), format(float(p), ".10g"), ",".join(map(str, seqs[i]))]
                    for side, mix, seqs in (("budget", mixed.row_mix, payoff.rows),
                                            ("price", mixed.col_mix, payoff.cols))
                    for i, p in enumerate(mix) if p > MIX_EPS]
        assert rows == expected
        assert len(rows) < payoff.shape[0] + payoff.shape[1]

    def test_strategy_files_restrict_one_side(self, cfg_path, tmp_path, capsys):
        prices = tmp_path / "prices.txt"
        prices.write_text("[1,1,2,3]\n{1,2,2,2}\n2,2,3,3\n")
        assert run_cli(["ne", "--config", str(cfg_path), "--mode", "lp",
                        "--strategy-files", "-", str(prices),
                        "--out-dir", str(tmp_path / "r")]) == 0
        restricted = float(capsys.readouterr().out.strip())
        game = load_config(cfg_path).game
        full = solve_zero_sum(payoff_game(game)).value
        # taking options away from the minimizer cannot lower the value
        assert restricted >= full - 1e-9
        _, rows = read_csv(tmp_path / "r" / "strategies.csv")
        assert {int(r[1]) for r in rows if r[0] == "price"} <= {0, 1, 2}


    @pytest.mark.parametrize("bad_line, message", [
        ("[]", "line 2 must not be empty"),
        ("{ }", "line 2 must not be empty"),
        ("1,x", "line 2: malformed integer sequence '1,x'"),
        ("[1,9]", "line 2: budgets entry 9 not in (1, 2, 3)"),
        ("[1,2,3,3,1]", "line 2: prices length 5 != n_users 4"),
    ])
    def test_bad_strategy_file_line_names_file_and_line(self, cfg_path, tmp_path, capsys,
                                                        bad_line, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"[1,2,2,3]  # fine\n{bad_line}\n[3,3]\n")
        # a prices line is read from the second file, every other from the first
        files = ["-", str(bad)] if "prices" in message else [str(bad)]
        assert run_cli(["ne", "--config", str(cfg_path), "--mode", "lp",
                        "--strategy-files", *files,
                        "--out-dir", str(tmp_path / "r")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad} {message}\n"
        assert not (tmp_path / "r" / "strategies.csv").exists()


FULL_7_USER_CFG = """
n_users = 7
n_resources = 3
price_set = {1, 3, 5, 7}
budget_set = {2, 4, 6}
"""
MB = 1_000_000
# (mode, --strategy-files variant) -> printed line and strategies.csv sha256
# of the same ne run solved over the whole built int8 matrix
DENSE_NE_OUTPUT = {
    ("lp", "none"): ("3.278761062\n",
                     "ececbc217554555c086ecf5b0dabe872349f27357eeb431ebb6c4bd4d1f1fb61"),
    ("lp", "budgets"): ("2.740740741\n",
                        "18614f8767220268acbf644a0449e83ecd88e5271cd9a7c1bd79ba256dc9f70a"),
    ("lp", "prices"): ("4.255271341\n",
                       "b6bbf825162fa3f55f22fc5fb7670e4c79eae856d9952c62394c2ba84aa1ad3e"),
    ("lp", "both"): ("3.751995089\n",
                     "383acd9bd72970d551196ab24bdeff76b95058956b9f79cff1a85aaa6605d1db"),
    ("fp", "none"): ("3.280002421 bracket=[3.26942029,3.290584551] width=0.02116426129\n",
                     "61689d30cfbc55d5b7a02ff70be225f860e60c391f74b1f0093e1546b3be356c"),
    ("fp", "budgets"): (
        "2.741494327 bracket=[2.738212928,2.744775726] width=0.006562797837\n",
        "48ea96f9bd36ed24887390560084ef2b29c7534e6b31e1de982c5d372d1f521b"),
    ("fp", "prices"): ("4.251950925 bracket=[4.238498123,4.265403727] width=0.02690560405\n",
                       "80af01414a1a3bbe9bfaefb6dc4446772b62de051dd5c544b78aa00c1d3fdf49"),
    ("fp", "both"): ("3.749621386 bracket=[3.741532663,3.75771011] width=0.01617744631\n",
                     "e77afd6370013a167f8a26020ec724b1c0a1c62c67290698ecbd06b04380783f"),
}


class TestNeFullGame:
    """ne reads the payoff rows and columns it needs, never the 2187x16384
    matrix, with the same output as a solve over the built matrix."""

    @pytest.fixture
    def full_cfg(self, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text(FULL_7_USER_CFG)
        budgets, prices = tmp_path / "budgets.txt", tmp_path / "prices.txt"
        rng = np.random.default_rng(12)
        # prefix-length budget rows and full-length price rows
        budgets.write_text("".join(
            "[" + ",".join(map(str, rng.choice((2, 4, 6), int(rng.integers(1, 8))))) + "]\n"
            for _ in range(60)))
        prices.write_text("".join(
            "[" + ",".join(map(str, rng.choice((1, 3, 5, 7), 7))) + "]\n" for _ in range(40)))
        return path, str(budgets), str(prices)

    def run_ne(self, full_cfg, out, mode, files, capsys):
        path, budgets, prices = full_cfg
        chosen = {"none": [], "budgets": [budgets], "prices": ["-", prices],
                  "both": [budgets, prices]}[files]
        extra = ["--strategy-files", *chosen] if chosen else []
        assert run_cli(["ne", "--config", str(path), "--mode", mode, *extra,
                        "--out-dir", str(out)]) == 0
        return capsys.readouterr().out, (out / "strategies.csv").read_bytes()

    @pytest.mark.parametrize("files", ["none", "budgets", "prices", "both"])
    @pytest.mark.parametrize("mode", ["lp", "fp"])
    def test_same_bytes_as_a_solve_over_the_built_matrix(self, full_cfg, tmp_path, capsys,
                                                         mode, files):
        printed, written = self.run_ne(full_cfg, tmp_path / "game", mode, files, capsys)
        assert (printed, hashlib.sha256(written).hexdigest()) == DENSE_NE_OUTPUT[mode, files]

    @pytest.mark.parametrize("mode", ["lp", "fp"])
    def test_peak_memory_stays_far_below_the_matrix(self, full_cfg, tmp_path, capsys, mode):
        # the int8 matrix alone is 35.8 MB
        tracemalloc.start()
        try:
            self.run_ne(full_cfg, tmp_path / mode, mode, "none", capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * MB

    def test_eight_user_lp_value(self, tmp_path, capsys):
        # the 6561x65536 int8 matrix alone would take 430 MB
        path = tmp_path / "full8.cfg"
        path.write_text(FULL_7_USER_CFG.replace("n_users = 7", "n_users = 8"))
        tracemalloc.start()
        try:
            assert run_cli(["ne", "--config", str(path), "--mode", "lp",
                            "--out-dir", str(tmp_path / "lp")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == "3.482957513\n"
        assert peak < 120 * MB

    @pytest.mark.parametrize("n_users, printed, bound", [
        # traced peaks measured at 15.0 MB and 63.9 MB; the 9-user peak is
        # mostly the column cache (111 columns of 19,683 float64 gaps, held
        # twice while it grows) and the 262,144 enumerated price sequences
        (8, "3.483609387 bracket=[3.466866867,3.500351906] width=0.03348503929\n", 17 * MB),
        (9, "3.609633271 bracket=[3.589288618,3.629977925] width=0.04068930706\n", 72 * MB),
    ], ids=["n8", "n9"])
    def test_fp_on_larger_games(self, tmp_path, capsys, n_users, printed, bound):
        # fp plays 3^(N-1) of the 4^N price sequences
        path = tmp_path / "full.cfg"
        path.write_text(FULL_7_USER_CFG.replace("n_users = 7", f"n_users = {n_users}"))
        tracemalloc.start()
        try:
            assert run_cli(["ne", "--config", str(path), "--mode", "fp",
                            "--out-dir", str(tmp_path / "fp")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == printed
        assert peak < bound

    @pytest.mark.parametrize("mode", ["lp", "fp"])
    def test_refuses_when_its_caches_would_pass_the_cap(self, full_cfg, tmp_path, capsys,
                                                        monkeypatch, mode):
        # lp: room for 8 cached rows 16384 wide and 8 columns, and it reads
        # more rows; fp plays the 729 undominated price sequences, so its
        # refusal names that game, after 25 rows and 32 columns of the 67 it
        # reads
        monkeypatch.setattr(equilibrium, "DEFAULT_MATRIX_CAP", 1_200_000)
        out = tmp_path / mode
        assert run_cli(["ne", "--config", str(full_cfg[0]), "--mode", mode,
                        "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        game, cached = {"lp": ("2187x16384 game", "8 rows and "),
                        "fp": ("2187x729 game", "25 rows and 32 columns ")}[mode]
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {game}: caching more than {cached}")
        assert "would pass the 1.2 MB cap" in captured.err
        assert not (out / "strategies.csv").exists()
        assert (out / "run-manifest.txt").read_text().splitlines()[-1].startswith(
            f"failed: {game}")


class TestBench:
    def test_worst_mode_table(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run_cli(["bench", "--config", str(cfg_path), "--mode", "worst",
                        "--n-sequences", "20", "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "results.csv")
        assert header == RESULTS_HEADER
        by_name = {r[0]: r for r in rows}
        assert set(by_name) == {"greedy", "threshold", "randomized"}
        # four users, two units: the drain-then-starve ratio hits U/L
        assert float(by_name["greedy"][2]) == 3.0

    def test_worst_mode_past_the_exact_size_cap_fails_loudly(self, tmp_path, capsys):
        # seven doubling levels over ten units: 19,448 reachable sold-count states
        path = tmp_path / "wide.cfg"
        path.write_text("n_users = 50\nn_resources = 10\nprice_set = {1}\n"
                        f"budget_set = {{{', '.join(map(str, range(1, 101)))}}}\n")
        assert run_cli(["bench", "--config", str(path), "--mode", "worst",
                        "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: randomized: ")
        assert "reachable sold-count states" in err[0]

    def test_worst_mode_keeps_the_rows_it_certified(self, tmp_path, capsys):
        # N=100: greedy and threshold certify at once, randomized is refused
        grid = "{" + ", ".join(map(str, range(1, 11))) + "}"
        path = tmp_path / "n100.cfg"
        path.write_text(f"n_users = 100\nn_resources = 20\nprice_set = {grid}\n"
                        f"budget_set = {grid}\n")
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(path), "--mode", "worst",
                        "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: randomized: exact worst case needs over 50000 cells")
        _, rows = read_csv(out / "results.csv")
        assert rows == [["greedy", "worst", "10", "20", "180"],
                        ["threshold", "worst", "3.125", "64", "136"]]
        assert [line.split()[0] for line in captured.out.splitlines()] == \
            ["greedy", "threshold"]
        manifest = (out / "run-manifest.txt").read_text().splitlines()
        assert manifest[-1] == "failed: " + err[0].removeprefix("error: ")

    def test_failed_run_marks_its_manifest(self, tmp_path, capsys):
        path = tmp_path / "wide.cfg"
        path.write_text("n_users = 50\nn_resources = 10\nprice_set = {1}\n"
                        f"budget_set = {{{', '.join(map(str, range(1, 101)))}}}\n")
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(path), "--mode", "worst",
                        "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        lines = (out / "run-manifest.txt").read_text().splitlines()
        assert lines[lines.index("artifacts:") + 1] == "  results.csv"
        _, rows = read_csv(out / "results.csv")   # the rules it certified
        assert [r[0] for r in rows] == ["greedy", "threshold"]
        assert lines[-1] == "failed: " + err.removeprefix("error: ").rstrip("\n")
        assert [line for line in lines if line.startswith("failed:")] == lines[-1:]

    def test_earlier_manifest_is_left_alone(self, cfg_path, tmp_path):
        out = tmp_path / "bench"
        assert run_cli(["bench", "--config", str(cfg_path), "--n-sequences", "5",
                        "--out-dir", str(out)]) == 0
        manifest = (out / "run-manifest.txt").read_bytes()
        assert b"failed:" not in manifest
        # fails reading its config, before it would write a manifest
        assert run_cli(["bench", "--config", str(tmp_path / "missing.cfg"),
                        "--out-dir", str(out)]) == 1
        assert (out / "run-manifest.txt").read_bytes() == manifest

    def test_policy_subset_and_learned_model(self, cfg_path, tmp_path):
        trained = tmp_path / "t"
        assert run_cli(["train", "--config", str(cfg_path),
                        "--out-dir", str(trained)]) == 0
        out = tmp_path / "bench"
        assert run_cli(["bench", "--config", str(cfg_path), "--mode", "worst",
                        "--policies", "greedy",
                        "--model", str(trained / "algorithm.model"),
                        "--adversary", str(trained / "adversary.model"),
                        "--ring", str(trained / "adversary.ring"),
                        "--n-sequences", "15", "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "results.csv")
        assert [r[0] for r in rows] == ["greedy", "learned"]

    def test_unknown_policy_name(self, cfg_path, tmp_path, capsys):
        assert run_cli(["bench", "--config", str(cfg_path),
                        "--policies", "psychic",
                        "--out-dir", str(tmp_path / "x")]) == 1
        assert "psychic" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--adversary", "missing.model"],
                                       ["--ring", "missing.ring"],
                                       ["--adversary", "missing.model",
                                        "--ring", "missing.ring"]])
    def test_snapshot_flags_need_a_model(self, cfg_path, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert run_cli(["bench", "--config", str(cfg_path), *flags,
                        "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: --adversary and --ring need --model"
        assert not out.exists()


class TestReproducibility:
    @pytest.mark.parametrize("argv_tail", [
        ["train", "--mode", "joint"],
        ["train", "--mode", "alg-vs-mw"],
        ["train", "--mode", "adv-vs-mw"],
        ["bench", "--mode", "random", "--n-sequences", "40", "--seed", "9"],
        ["ne", "--mode", "lp"],
    ])
    def test_same_seed_runs_are_byte_identical(self, cfg_path, tmp_path,
                                               argv_tail, capsys):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            argv = [argv_tail[0], "--config", str(cfg_path),
                    "--out-dir", str(out), *argv_tail[1:]]
            assert run_cli(argv) == 0
            # the manifest records the differing --out-dir flag by design
            blobs = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.name != "run-manifest.txt"}
            outputs.append(blobs)
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name

    @pytest.mark.parametrize("sample", [[], ["--sample"]])
    def test_same_seed_eval_is_byte_identical(self, cfg_path, tmp_path, sample):
        assert run_cli(["train", "--config", str(cfg_path),
                        "--out-dir", str(tmp_path / "t")]) == 0
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["eval", "--config", str(cfg_path),
                            "--model", str(tmp_path / "t" / "algorithm.model"),
                            "--n-sequences", "50", "--seed", "3",
                            "--out-dir", str(out), *sample]) == 0
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_model_files_are_reloadable_and_identical(self, cfg_path, tmp_path):
        models = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["train", "--config", str(cfg_path),
                            "--out-dir", str(out)]) == 0
            models.append(load_model(out / "algorithm.model"))
        for p, q in zip(models[0].params, models[1].params):
            np.testing.assert_array_equal(p, q)
