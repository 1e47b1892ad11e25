"""Equilibrium values: payoff construction, LP solving, fictitious play."""
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from advalloc import equilibrium
from advalloc.equilibrium import (
    FictitiousPlayResult,
    MixedStrategy,
    PayoffGame,
    PayoffTooLargeError,
    enumerate_strategies,
    fictitious_play,
    payoff_game,
    solve_acceptance_lp,
    solve_zero_sum,
    undominated_columns,
)
from advalloc.game import GameConfig, benchmark_rows, gap, welfare_grid
from advalloc.simplex import solve_lp


def scipy_game_value(C):
    """Independent oracle: column player's LP via HiGHS."""
    M, K = C.shape
    shift = C.min()
    Cs = C - shift + 1.0
    res = linprog(-np.ones(K), A_ub=Cs, b_ub=np.ones(M),
                  bounds=[(0, None)] * K, method="highs")
    assert res.status == 0
    return 1.0 / (-res.fun) + shift - 1.0


def cfg(n, r, prices, budgets):
    return GameConfig(n_users=n, n_resources=r, price_set=prices, budget_set=budgets)


FULL_GAME = cfg(7, 3, (1, 3, 5, 7), (2, 4, 6))   # 2187x16384, gaps 0..18
MB = 1_000_000


def table(game):
    """A PayoffGame's whole gap table, its rows stacked in the game's dtype."""
    return np.stack([game.row(i) for i in range(game.shape[0])])


def listed_strategies(game, seed=0):
    """Seeded (budget rows, price columns): prefix-length budget rows, as a
    --strategy-files budgets file may hold, and an explicit full-length
    price-column list."""
    rng = np.random.default_rng(seed)
    rows = [tuple(rng.choice(game.budget_set, int(rng.integers(1, game.n_users + 1))).tolist())
            for _ in range(12)]
    cols = [tuple(rng.choice(game.price_set, game.n_users).tolist()) for _ in range(9)]
    return rows, cols


class TestEnumerate:
    def test_lexicographic(self):
        got = enumerate_strategies((1, 2), 2)
        assert got.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_cardinality(self):
        assert enumerate_strategies((1, 3, 5, 7), 7).shape == (16384, 7)


class TestPayoffEntries:
    def test_single_user_closed_form(self):
        c = cfg(1, 1, (1, 2), (1, 2))
        # entry = b * 1(b < p)
        assert table(payoff_game(c)).tolist() == [[0, 1], [0, 0]]

    def test_entries_match_scalar_gap(self):
        c = cfg(3, 2, (1, 2), (1, 2, 3))
        g = payoff_game(c)
        rng = np.random.default_rng(5)
        for _ in range(25):
            i = int(rng.integers(g.shape[0]))
            j = int(rng.integers(g.shape[1]))
            assert g.row(i)[j] == gap(c, g.rows[i].tolist(), g.cols[j].tolist())
        assert (table(g) >= 0).all()

    def test_prefix_rows_padded(self):
        c = cfg(3, 1, (1, 2), (1, 2))
        g = payoff_game(c, row_strategies=[(2,), (1, 2), (1, 1, 2)],
                        col_strategies=[(1, 1, 1)])
        assert g.rows.tolist() == [[2, 0, 0], [1, 2, 0], [1, 1, 2]]
        assert g.row(0)[0] == 0      # accepted immediately
        assert g.row(1)[0] == 1      # unit burnt on the 1, benchmark 2
        assert g.row(2)[0] == 1
        for side in ("row_strategies", "col_strategies"):
            with pytest.raises(ValueError, match="need at least one pure strategy"):
                payoff_game(c, **{side: []})

    def test_empty_row_strategy_rejected(self):
        c = cfg(3, 1, (1, 2), (1, 2))
        with pytest.raises(ValueError, match=r"^pure strategy 1 \(budgets\) is empty$"):
            payoff_game(c, row_strategies=[(1, 2), (), (2,)])

    def test_full_enumeration_bytes_pinned(self):
        # sha256 of the 729x4096 matrix built by one welfare_grid call over
        # all rows, so the one-row suffix DP must reproduce it byte for byte
        C = table(payoff_game(cfg(6, 3, (1, 3, 5, 7), (2, 4, 6))))
        assert C.dtype == np.int8
        assert hashlib.sha256(C.astype(np.float64).tobytes()).hexdigest() == (
            "a64a5ff44969d9ebe2054ecd07ea40a41aedbacbf4bf012e513ee59647d0981e")

    def test_random_prefix_rows_against_listed_columns(self):
        c = cfg(4, 2, (1, 2, 3), (1, 2, 3))
        cols = [(1, 2, 3, 1), (3, 3, 1, 1), (2, 1, 2, 3), (1, 1, 1, 1), (3, 2, 1, 2)]
        rng = np.random.default_rng(8)
        rows = [tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(1, 5))))
                for _ in range(11)]
        g = payoff_game(c, row_strategies=rows, col_strategies=cols)
        assert g.shape == (11, 5) and not g.enumerated
        for i, r in enumerate(rows):
            for j, p in enumerate(cols):
                want = gap(c, r, p[: len(r)])
                assert g.row(i)[j] == g.col(j)[i] == want

    def test_row_subset_against_enumerated_columns(self):
        c = cfg(4, 2, (1, 2, 3), (1, 2, 3))
        rows = [r.tolist() for r in enumerate_strategies(c.budget_set, 4)[::8]]
        g = payoff_game(c, row_strategies=rows)
        assert g.shape == (11, 81) and g.enumerated
        for i, r in enumerate(rows):
            for j, p in enumerate(g.cols.tolist()):
                assert g.row(i)[j] == g.col(j)[i] == gap(c, r, p)

    @pytest.mark.parametrize("seed", range(8))
    def test_suffix_dp_matches_welfare_grid(self, seed):
        # enumerated columns go through the suffix DP; welfare_grid over the
        # same columns is its oracle
        rng = np.random.default_rng(seed)
        dtypes = set()
        for n in range(1, 7):
            for scale in (12, 400, 40_000):   # int8, int16 and int32 gaps
                n_prices = int(rng.integers(1, 5))
                prices = np.sort(rng.choice(np.arange(1, scale + 1), n_prices, replace=False))
                budgets = np.sort(rng.choice(np.arange(1, scale + 1), int(rng.integers(1, 4)),
                                             replace=False))
                c = cfg(n, int(rng.integers(1, n + 3)), tuple(prices.tolist()),
                        tuple(budgets.tolist()))
                # full-length and zero-padded prefix rows (an empty row is refused)
                rows = [tuple(rng.choice(budgets, int(rng.integers(1, n + 1))).tolist())
                        for _ in range(int(rng.integers(1, 40)))]
                for g in (payoff_game(c, row_strategies=rows),
                          payoff_game(c) if len(budgets) ** n <= 729 else None):
                    if g is None:
                        continue
                    cols = enumerate_strategies(c.price_set, n)
                    bench = benchmark_rows(g.rows, c.n_resources)
                    assert np.array_equal(g.cols, cols)
                    C = table(g)
                    assert C.dtype == g.dtype == equilibrium._narrowest_int(0, int(bench.max()))
                    assert np.array_equal(
                        C, bench[:, None] - welfare_grid(g.rows, cols, c.n_resources))
                    dtypes.add(C.dtype)
        assert dtypes == {np.dtype(np.int8), np.dtype(np.int16), np.dtype(np.int32)}


class TestNarrowValues:
    """Gaps are read in the narrowest signed integer dtype that holds them."""

    @pytest.fixture(scope="class")
    def full(self):
        return payoff_game(FULL_GAME)

    def test_full_game_is_int8(self, full):
        assert full.dtype == np.int8 and full.shape == (2187, 16384)
        rng = np.random.default_rng(4)
        for _ in range(40):
            i = int(rng.integers(full.shape[0]))
            j = int(rng.integers(full.shape[1]))
            row = full.row(i)
            assert row.dtype == np.int8 and row.shape == (16384,)
            # some price sequence sells exactly to the row's top three budgets
            assert row.min() == 0 and row.max() <= 18
            assert row[j] == gap(FULL_GAME, full.rows[i].tolist(), full.cols[j].tolist())

    @pytest.mark.parametrize("game, dtype", [
        (cfg(3, 2, (1, 2), (1, 2, 3)), np.int8),
        (cfg(3, 2, (50, 100), (50, 100)), np.int16),     # benchmark up to 200
        (cfg(2, 1, (1, 40_000), (1, 40_000)), np.int32),  # benchmark 40000
    ])
    def test_dtype_follows_the_largest_benchmark(self, game, dtype):
        g = payoff_game(game)
        assert g.dtype == dtype
        for i, r in enumerate(g.rows.tolist()):
            row = g.row(i)
            assert row.dtype == dtype
            for j, p in enumerate(g.cols.tolist()):
                assert row[j] == gap(game, r, p)

    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("game", [
        cfg(3, 2, (1, 2), (1, 2, 3)),
        cfg(4, 2, (1, 2, 3), (1, 2, 3)),
        cfg(5, 2, (1, 3), (1, 2, 4)),
        cfg(3, 2, (50, 100), (50, 100)),
    ])
    def test_same_results_as_float64_input(self, game, direct):
        # the on-demand game and the float64 copy of its table give the same
        # bytes, over full enumerations and over listed strategies
        for lists in ((None, None), listed_strategies(game)):
            g = payoff_game(game, *lists)
            values = table(g)
            C = values.astype(np.float64)
            if direct:   # the whole game as one LP, without strategy generation
                a, b = equilibrium._game_lps(values), equilibrium._game_lps(C)
                assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            a, b = solve_zero_sum(g), solve_zero_sum(C)
            assert (a.row_value, a.col_value) == (b.row_value, b.col_value)
            assert a.row_mix.tobytes() == b.row_mix.tobytes()
            assert a.col_mix.tobytes() == b.col_mix.tobytes()
            for iterations, every in ((1, 1), (997, 7), (5000, 100)):
                a = fictitious_play(g, iterations, checkpoint_every=every)
                b = fictitious_play(C, iterations, checkpoint_every=every)
                assert (a.lower, a.upper) == (b.lower, b.upper)
                assert a.row_avg.tobytes() == b.row_avg.tobytes()
                assert a.col_avg.tobytes() == b.col_avg.tobytes()

    def test_solves_stay_far_below_the_table(self):
        # the int8 table would take 36 MB, a float64 copy 287 MB
        g = payoff_game(FULL_GAME)
        tracemalloc.start()
        try:
            for solve in (solve_zero_sum, lambda p: fictitious_play(p, 100_000)):
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                solve(g)
                _, peak = tracemalloc.get_traced_memory()
                assert peak - base <= 16 * MB
        finally:
            tracemalloc.stop()


class TestPayoffGame:
    """Rows and columns computed on demand equal the dense gap grid's."""

    @pytest.mark.parametrize("listed", [False, True])
    @pytest.mark.parametrize("game", [
        cfg(4, 2, (1, 2, 3), (1, 2, 3)),
        cfg(3, 2, (50, 100), (50, 100)),
        cfg(2, 1, (1, 40_000), (1, 40_000)),
    ])
    def test_rows_and_columns_match_the_grid(self, game, listed):
        lists = listed_strategies(game, seed=3) if listed else (None, None)
        g = payoff_game(game, *lists)
        assert isinstance(g, PayoffGame) and g.enumerated == (not listed)
        if listed:
            rows, cols = lists
            assert g.rows.tolist() == [list(r) + [0] * (game.n_users - len(r)) for r in rows]
            assert g.cols.tolist() == [list(p) for p in cols]
        else:
            assert np.array_equal(g.rows, enumerate_strategies(game.budget_set, game.n_users))
            assert np.array_equal(g.cols, enumerate_strategies(game.price_set, game.n_users))
        grid = g.bench[:, None] - welfare_grid(g.rows, g.cols, game.n_resources)
        assert g.shape == grid.shape
        assert g.dtype == equilibrium._narrowest_int(0, int(g.bench.max()))
        for i in range(g.shape[0]):
            assert g.row(i).dtype == g.dtype
            assert np.array_equal(g.row(i), grid[i])
        for j in range(g.shape[1]):
            assert np.array_equal(g.col(j), grid[:, j])

    def test_full_game_rows_and_columns(self):
        g = payoff_game(FULL_GAME)
        assert g.shape == (2187, 16384)
        rng = np.random.default_rng(6)
        for i in rng.integers(g.shape[0], size=3):
            j = int(rng.integers(g.shape[1]))
            row, col = g.row(int(i)), g.col(j)
            assert row[j] == col[i] == gap(FULL_GAME, g.rows[i].tolist(), g.cols[j].tolist())
            for k in rng.integers(g.shape[1], size=20):
                assert row[k] == gap(FULL_GAME, g.rows[i].tolist(), g.cols[k].tolist())
            for k in rng.integers(g.shape[0], size=20):
                assert col[k] == gap(FULL_GAME, g.rows[k].tolist(), g.cols[j].tolist())

    @pytest.mark.parametrize("solve", [solve_zero_sum, lambda p: fictitious_play(p, 100_000)])
    def test_caches_refuse_past_the_cap(self, solve, monkeypatch):
        if solve is solve_zero_sum:
            # 8 float64 rows (1,048,576 B) and 8 columns (139,968 B) fit;
            # growing to 16 rows holds the old 8 and the new 16 at once
            # (3,285,088 B with the columns), which passes the cap, and the
            # LP reads more than 8 rows
            cap, cached, shape = 3_000_000, r"8 rows and \d+ columns", "2187x16384"
        else:
            # fictitious play caches rows over the 729 undominated price
            # sequences: buffers of 24 rows (139,968 B) and 24 columns
            # (419,904 B) fit; growing to 32 columns holds the old 24 and the
            # new 32 at once (1,119,744 B with the rows), which passes the
            # cap, and it reads 67 columns
            cap, cached, shape = 1_000_000, "22 rows and 24 columns", "2187x729"
        monkeypatch.setattr(equilibrium, "DEFAULT_MATRIX_CAP", cap)
        with pytest.raises(PayoffTooLargeError, match=(
                rf"^{shape} game: caching more than {cached} would pass "
                rf"the {cap / 1e6:.1f} MB cap; shrink the instance or use "
                r"`ne --mode acceptance-lp` for long sequences$")):
            solve(payoff_game(FULL_GAME))

    def test_traced_peak_stays_under_the_cap(self, monkeypatch):
        # one growth to 16 rows fits (3,285,088 B at its peak), the next does not
        monkeypatch.setattr(equilibrium, "DEFAULT_MATRIX_CAP", 3_300_000)
        reader = equilibrium._Reader(payoff_game(FULL_GAME))
        tracemalloc.start()
        try:
            reader.col(0)
            with pytest.raises(PayoffTooLargeError, match="more than 16 rows and 1 columns"):
                for i in range(32):
                    reader.row(i)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 3_285_088 <= peak <= 3_300_000

    @pytest.mark.parametrize("solve", [solve_zero_sum, lambda p: fictitious_play(p, 10_000)])
    def test_raw_source_shares_the_cap(self, solve, monkeypatch):
        rng = np.random.default_rng(8)
        values = rng.integers(0, 9, size=(60, 60)).astype(np.float64)
        # 8 rows and 8 columns (7,680 B) fit, growing either to 16 does not
        monkeypatch.setattr(equilibrium, "DEFAULT_MATRIX_CAP", 10_000)
        with pytest.raises(PayoffTooLargeError, match=r"^60x60 game: caching more than"):
            solve(values)

    @pytest.mark.parametrize("solve", [solve_zero_sum, lambda p: fictitious_play(p, 10_000)])
    def test_game_and_raw_sources_share_the_cap(self, solve, monkeypatch):
        # the cap counts the float64 caches, not the int8 gaps of the source:
        # 8 rows and 8 columns of 243 (31,104 B) fit, growing either to 16
        # (62,208 B) does not, whichever source the solve reads
        game = cfg(5, 2, (1, 2, 3), (1, 2, 3))
        g = payoff_game(game, col_strategies=enumerate_strategies(game.price_set, 5).tolist())
        assert g.dtype == np.int8 and not g.enumerated
        monkeypatch.setattr(equilibrium, "DEFAULT_MATRIX_CAP", 60_000)
        messages = []
        for source in (g, table(g).astype(np.float64)):
            with pytest.raises(PayoffTooLargeError) as err:
                solve(source)
            messages.append(str(err.value))
        assert messages == [
            "243x243 game: caching more than 8 rows and 8 columns would pass the "
            "0.1 MB cap; shrink the instance or use `ne --mode acceptance-lp` for "
            "long sequences"] * 2


class TestSolveZeroSum:
    @pytest.fixture(scope="class")
    def full(self):
        return payoff_game(FULL_GAME)

    def test_lowest_price_dominates(self):
        mixed = solve_zero_sum(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert mixed.value == pytest.approx(0.0, abs=1e-9)
        assert mixed.col_mix == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_matching_pennies(self):
        mixed = solve_zero_sum(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert mixed.value == pytest.approx(0.5, abs=1e-9)
        assert mixed.row_mix == pytest.approx([0.5, 0.5], abs=1e-8)
        assert mixed.col_mix == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_restricted_game_value(self):
        c = cfg(7, 3, (1, 2, 3), (1, 2, 3))
        price_rows = [(1, 1, 2, 2, 3, 3, 3), (1, 1, 1, 2, 2, 2, 3), (1, 2, 2, 2, 3, 3, 3)]
        g = payoff_game(c, col_strategies=price_rows)
        assert g.shape == (2187, 3)
        mixed = solve_zero_sum(g)
        assert mixed.value == pytest.approx(13.0 / 3.0, abs=1e-6)
        assert abs(mixed.row_value - mixed.col_value) <= 1e-6

    def test_random_matrices_match_scipy(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            M, K = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            C = rng.integers(0, 10, size=(M, K)).astype(float)
            mixed = solve_zero_sum(C)
            assert mixed.value == pytest.approx(scipy_game_value(C), abs=1e-7)
            # certificate: row_mix guarantees >= value, col_mix caps <= value
            assert (C @ mixed.col_mix).max() <= mixed.value + 1e-6
            assert (mixed.row_mix @ C).min() >= mixed.value - 1e-6

    def test_strategy_generation_path_matches_direct(self):
        # a dense random game against HiGHS solving the whole game as one LP
        rng = np.random.default_rng(3)
        C = rng.integers(0, 12, size=(80, 90)).astype(float)
        generated = solve_zero_sum(C, tol=1e-9)
        assert generated.value == pytest.approx(scipy_game_value(C), abs=1e-7)

    @pytest.mark.parametrize("seed", range(9))
    def test_strategy_generation_matches_the_gathering_loop(self, full, seed, monkeypatch):
        # seeded submatrices of the 7-user game, as integers and as floats
        rng = np.random.default_rng(seed)
        M, K = ((20, 40), (36, 63), (60, 120))[seed % 3]
        rows = np.sort(rng.choice(full.shape[0], M, replace=False))
        cols = np.sort(rng.choice(full.shape[1], K, replace=False))
        sub = np.stack([full.row(i) for i in rows])[:, cols]
        want = reference_strategy_generation(sub.astype(np.float64))
        lps = []

        def counting(*args, **kwargs):
            lps.append(args)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "solve_lp", counting)
        for C in (payoff_game(FULL_GAME, full.rows[rows].tolist(), full.cols[cols].tolist()),
                  sub.astype(np.float64)):
            lps.clear()
            got = solve_zero_sum(C)
            assert (got.row_value, got.col_value) == want[:2]
            assert got.row_mix.tobytes() == want[2].tobytes()
            assert got.col_mix.tobytes() == want[3].tobytes()
            assert len(lps) == want[4]   # one LP per round

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            solve_zero_sum(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            solve_zero_sum(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, bad):
        C = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            solve_zero_sum(C)


def reference_strategy_generation(C):
    """Strategy generation that gathers and upcasts the support columns every
    round: C[:, support] is column-major, so the cached columns must be too.
    Returns (lower, upper, row_mix, col_mix, rounds)."""
    M, K = C.shape
    rs, cs = [0], [0]
    for rounds in itertools.count(1):
        sub_row, sub_col = equilibrium._game_lps(C[np.ix_(rs, cs)])
        row_payoffs = C[:, cs].astype(np.float64, copy=False) @ sub_col
        col_payoffs = sub_row @ C[rs, :].astype(np.float64, copy=False)
        best_row, best_col = int(np.argmax(row_payoffs)), int(np.argmin(col_payoffs))
        upper, lower = float(row_payoffs[best_row]), float(col_payoffs[best_col])
        if upper - lower <= equilibrium.VALUE_TOL:
            row_mix, col_mix = np.zeros(M), np.zeros(K)
            row_mix[rs], col_mix[cs] = sub_row, sub_col
            return lower, upper, row_mix, col_mix, rounds
        if best_row not in rs:
            rs.append(best_row)
        if best_col not in cs:
            cs.append(best_col)


class TestAcceptanceLp:
    def test_uniform_abundant_is_zero(self):
        z, P = solve_acceptance_lp([3, 3], 5)
        assert z == pytest.approx(0.0, abs=1e-9)

    def test_known_small_instance(self):
        # one unit, budgets 1 then 2: P = (1/2, 1/2) equalizes both prefix
        # gaps at 1/2, and any other split raises one of them
        z, P = solve_acceptance_lp([1, 2], 1)
        assert z == pytest.approx(0.5, abs=1e-9)
        assert 1 - P[0] <= z + 1e-9
        assert 2 - P[0] - 2 * P[1] <= z + 1e-9

    def test_zero_padding_invariant(self):
        seq = [1, 1, 2, 2, 3]
        z1, _ = solve_acceptance_lp(seq, 2)
        z2, _ = solve_acceptance_lp(seq + [0, 0, 0], 2)
        assert z1 == pytest.approx(z2, abs=1e-9)

    def test_probabilities_feasible(self):
        seq = [1] * 5 + [2] * 5 + [3] * 5 + [4] * 5 + [5] * 5
        z, P = solve_acceptance_lp(seq, 5)
        assert (P >= -1e-9).all() and (P <= 1 + 1e-9).all()
        assert P.sum() <= 5 + 1e-8
        # every prefix's gap is within z
        for j in range(1, 26):
            bench = sum(sorted(seq[:j], reverse=True)[: min(5, j)])
            assert bench - np.dot(seq[:j], P[:j]) <= z + 1e-7

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_acceptance_lp([], 1)
        with pytest.raises(ValueError):
            solve_acceptance_lp([1, 2], 0)
        with pytest.raises(ValueError):
            solve_acceptance_lp([-1, 2], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_budgets(self, bad):
        with pytest.raises(ValueError, match="^budgets in the sequence must be finite"):
            solve_acceptance_lp([1.0, bad], 1)


def reference_fictitious_play(C, iterations, checkpoint_every):
    """Plain fictitious-play loop that reads each picked column with a stride."""
    M, K = C.shape
    row_payoff, col_payoff = np.zeros(M), np.zeros(K)
    row_counts, col_counts = np.zeros(M), np.zeros(K)
    lower, upper = -np.inf, np.inf
    for t in range(1, iterations + 1):
        i = int(np.argmax(row_payoff))
        j = int(np.argmin(col_payoff))
        row_counts[i] += 1
        col_counts[j] += 1
        row_payoff += C[:, j]
        col_payoff += C[i, :]
        if t % checkpoint_every == 0 or t == iterations:
            lower = max(lower, float(col_payoff.min()) / t)
            upper = min(upper, float(row_payoff.max()) / t)
    return lower, upper, row_counts / iterations, col_counts / iterations


class TestFictitiousPlay:
    def test_dominant_column(self):
        res = fictitious_play(np.array([[0.0, 1.0], [0.0, 0.0]]), 500)
        assert res.upper <= 0.05
        assert res.lower >= -1e-12
        assert isinstance(res, FictitiousPlayResult)

    def test_bracket_contains_lp_value(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            C = rng.integers(0, 8, size=(10, 10)).astype(float)
            lp = solve_zero_sum(C)
            fp = fictitious_play(C, 1000, checkpoint_every=50)
            assert fp.lower - 1e-9 <= lp.value <= fp.upper + 1e-9
            assert fp.width >= -1e-12
        # non-integer entries, negatives included: picks may differ from a
        # per-step loop where rounding breaks a tie, the bracket may not
        for _ in range(15):
            C = rng.normal(1.0, 2.5, size=(int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            lp = solve_zero_sum(C)
            fp = fictitious_play(C, 1000, checkpoint_every=int(rng.integers(1, 60)))
            assert fp.lower - 1e-9 <= lp.value <= fp.upper + 1e-9

    def test_averages_are_distributions(self):
        C = np.array([[2.0, 0.0], [1.0, 3.0]])
        res = fictitious_play(C, 300)
        assert res.row_avg.sum() == pytest.approx(1.0)
        assert res.col_avg.sum() == pytest.approx(1.0)

    def test_deterministic(self):
        C = np.arange(12, dtype=float).reshape(3, 4) % 5
        a = fictitious_play(C, 200)
        b = fictitious_play(C, 200)
        assert a.lower == b.lower and a.upper == b.upper
        assert (a.row_avg == b.row_avg).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            fictitious_play(np.zeros((2, 2)), 0)

    @pytest.mark.parametrize("bad", [True, False, 10.5, 10.0, np.float64(10), "10", None])
    def test_iterations_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            fictitious_play(np.zeros((2, 2)), bad)

    @pytest.mark.parametrize("bad", [True, 2.5, 2.0, np.bool_(True), "2", None])
    def test_checkpoint_every_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="checkpoint_every must be an integer"):
            fictitious_play(np.zeros((2, 2)), 10, checkpoint_every=bad)

    def test_numpy_integer_arguments(self):
        C = np.array([[2.0, 0.0], [1.0, 3.0]])
        res = fictitious_play(C, np.int64(300), checkpoint_every=np.int32(7))
        ref = fictitious_play(C, 300, checkpoint_every=7)
        assert type(res.iterations) is int and res.iterations == 300
        assert res.lower == ref.lower and res.upper == ref.upper
        assert np.array_equal(res.row_avg, ref.row_avg)

    @pytest.mark.parametrize("every", [0, -1, -100])
    def test_checkpoint_every_must_be_positive(self, every):
        with pytest.raises(ValueError, match="checkpoint_every"):
            fictitious_play(np.zeros((2, 2)), 10, checkpoint_every=every)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, bad):
        C = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            fictitious_play(C, 10)

    def test_bit_identical_to_reference_loop(self):
        # few distinct values, so both players meet many argmax/argmin ties
        rng = np.random.default_rng(21)
        cases = []   # (C, iterations, checkpoint_every)
        for low, high in ((0, 4), (0, 4), (-3, 3), (-5, 1)):   # negatives too
            for _ in range(6):
                M, K = int(rng.integers(1, 30)), int(rng.integers(1, 40))
                C = rng.integers(low, high, size=(M, K)).astype(float)
                cases.append((C, int(rng.integers(1, 1500)), int(rng.integers(1, 60))))
        # one row or one column: the pivot sits at either end of the other axis
        for shape in ((1, 9), (9, 1), (1, 1)):
            C = rng.integers(-2, 3, size=shape).astype(float)
            cases += [(C, 700, 1), (C, 701, 50)]
        # every step a checkpoint
        for _ in range(4):
            C = rng.integers(-1, 3, size=(7, 11)).astype(float)
            cases.append((C, int(rng.integers(1, 800)), 1))
        # a saddle point: once reached, one run spans thousands of steps and
        # many checkpoints, and iterations end partway through it
        C = rng.integers(0, 4, size=(12, 15)).astype(float)
        C[5, :], C[:, 9] = 6.0, -1.0
        C[5, 9] = 5.0
        cases += [(C, n, every) for n in (3000, 4321) for every in (1, 7, 100, 5000)]
        dominant = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]])   # row 0, column 0
        cases += [(dominant, 2500, 1), (dominant, 2499, 100)]
        # every stopping point of the first 120 steps, most of them inside a run
        C = rng.integers(0, 3, size=(3, 4)).astype(float)
        cases += [(C, n, every) for n in range(1, 121) for every in (1, 4)]
        for C, iterations, every in cases:
            res = fictitious_play(C, iterations, checkpoint_every=every)
            lower, upper, row_avg, col_avg = reference_fictitious_play(C, iterations, every)
            assert res.lower == lower and res.upper == upper
            assert np.array_equal(res.row_avg, row_avg)
            assert np.array_equal(res.col_avg, col_avg)


def random_small_games(seed, count):
    """Seeded games with N <= 5 and at most 1,024 price sequences."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        prices = np.sort(rng.choice(np.arange(1, 13), int(rng.integers(2, 6)), replace=False))
        budgets = np.sort(rng.choice(np.arange(1, 13), int(rng.integers(1, 5)), replace=False))
        n = int(rng.integers(1, 6))
        while len(prices) ** n > 1024:
            n -= 1
        games.append(cfg(n, int(rng.integers(1, 5)), prices.tolist(), budgets.tolist()))
    return games


DOMINANCE_GAMES = [   # (game, kept prices at a slot before the last)
    (cfg(4, 2, (1, 3, 5, 7), (2, 4, 6)), (1, 3, 5)),   # 7 meets no budget: becomes 5
    (cfg(3, 2, (1, 3, 9), (2, 4, 6)), (1, 3, 9)),      # no price only 6 meets: 9 stays
    (cfg(4, 2, (1, 2, 3, 4), (2, 4)), (1, 3)),         # 2 meets what 1 does, 4 what 3 does
    (cfg(4, 2, (1, 2, 3), (2,)), (1,)),                # one budget: 3 becomes 1
    (cfg(3, 1, (5, 6), (1, 2, 3)), (5,)),              # every price above every budget
    (cfg(1, 1, (1, 2, 3), (1, 2, 3)), ()),             # N=1: only the last slot
    (cfg(3, 5, (1, 2, 4, 8), (1, 4, 5)), (1, 2, 8)),   # more units than users
] + [(game, None) for game in random_small_games(seed=23, count=12)]


class TestSolveStrategyTypes:
    """The solvers read a PayoffGame or a raw 2-D array, nothing else."""

    def test_accepts_payoff_game(self):
        g = payoff_game(cfg(2, 1, (1, 2), (1, 2)))
        mixed = solve_zero_sum(g)
        assert isinstance(mixed, MixedStrategy)
        fp = fictitious_play(g, 100)
        assert fp.lower - 1e-9 <= mixed.value <= fp.upper + 1e-9

    @pytest.mark.parametrize("payoff, message", [
        (np.zeros(3), r"^payoff matrix must be 2-D and non-empty, got \(3,\)$"),
        (np.zeros((0, 3)), r"^payoff matrix must be 2-D and non-empty, got \(0, 3\)$"),
        (np.zeros((2, 2, 2)), r"^payoff matrix must be 2-D and non-empty, got \(2, 2, 2\)$"),
        (np.array([[0.0, np.nan], [1.0, 0.0]]), "^payoff matrix entries must be finite$"),
        (np.array([[0.0, 1.0], [-np.inf, 0.0]]), "^payoff matrix entries must be finite$"),
    ], ids=["1-D", "empty", "3-D", "nan", "inf"])
    def test_rejects_malformed_raw_source(self, payoff, message):
        for solve in (solve_zero_sum, fictitious_play):
            with pytest.raises(ValueError, match=message):
                solve(payoff)


class TestUndominatedColumns:
    """Fictitious play keeps only the price sequences two dominance rules keep."""

    @pytest.mark.parametrize("game, slot_prices", DOMINANCE_GAMES)
    def test_each_dropped_sequence_has_a_kept_one_never_worse(self, game, slot_prices):
        kept = undominated_columns(game)
        cols = enumerate_strategies(game.price_set, game.n_users)
        assert np.array_equal(kept, np.unique(kept))
        assert set(cols[kept, -1].tolist()) == {game.price_set[0]}
        if slot_prices is not None:
            assert len(kept) == len(slot_prices) ** (game.n_users - 1)
            assert set(cols[kept, :-1].ravel().tolist()) == set(slot_prices)
        # every budget sequence of every length: enumerated and zero-padded rows
        rows = [seq for n in range(1, game.n_users + 1)
                for seq in itertools.product(game.budget_set, repeat=n)]
        C = table(payoff_game(game, rows))
        dropped = np.setdiff1d(np.arange(cols.shape[0]), kept)
        never_worse = (C[:, kept, None] <= C[:, None, dropped]).all(axis=0)
        never_worse &= kept[:, None] < dropped[None, :]
        assert never_worse.any(axis=0).all()

    @pytest.mark.parametrize("game, slot_prices", DOMINANCE_GAMES)
    def test_same_bytes_as_the_dense_matrix(self, game, slot_prices):
        for rows in (None, listed_strategies(game, seed=4)[0]):   # padded rows too
            C = table(payoff_game(game, rows)).astype(np.float64)
            for iterations, every in ((1, 1), (997, 7), (5000, 100)):
                a = fictitious_play(C, iterations, checkpoint_every=every)
                b = fictitious_play(payoff_game(game, rows), iterations, checkpoint_every=every)
                assert (a.lower, a.upper) == (b.lower, b.upper)
                assert a.row_avg.tobytes() == b.row_avg.tobytes()
                assert a.col_avg.tobytes() == b.col_avg.tobytes()

    def test_the_full_game_plays_729_sequences(self):
        kept = undominated_columns(FULL_GAME)
        assert len(kept) == 729 and kept[-1] == 10920   # [5,5,5,5,5,5,1]

