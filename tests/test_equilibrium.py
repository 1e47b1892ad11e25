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
    PayoffMatrix,
    PayoffTooLargeError,
    build_payoff_matrix,
    enumerate_strategies,
    fictitious_play,
    solve_acceptance_lp,
    solve_zero_sum,
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


class TestEnumerate:
    def test_lexicographic(self):
        got = enumerate_strategies((1, 2), 2)
        assert got.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_cardinality(self):
        assert enumerate_strategies((1, 3, 5, 7), 7).shape == (16384, 7)


class TestBuildPayoff:
    def test_single_user_closed_form(self):
        c = cfg(1, 1, (1, 2), (1, 2))
        pm = build_payoff_matrix(c)
        # entry = b * 1(b < p)
        assert pm.values.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_entries_match_scalar_gap(self):
        c = cfg(3, 2, (1, 2), (1, 2, 3))
        pm = build_payoff_matrix(c)
        rng = np.random.default_rng(5)
        for _ in range(25):
            i = int(rng.integers(pm.rows.shape[0]))
            j = int(rng.integers(pm.cols.shape[0]))
            assert pm.values[i, j] == gap(c, pm.rows[i].tolist(), pm.cols[j].tolist())
        assert (pm.values >= 0).all()

    def test_prefix_rows_padded(self):
        c = cfg(3, 1, (1, 2), (1, 2))
        pm = build_payoff_matrix(c, row_strategies=[(2,), (1, 2), (1, 1, 2)],
                                 col_strategies=[(1, 1, 1)])
        assert pm.rows.tolist() == [[2, 0, 0], [1, 2, 0], [1, 1, 2]]
        assert pm.values[0, 0] == 0      # accepted immediately
        assert pm.values[1, 0] == 1      # unit burnt on the 1, benchmark 2
        assert pm.values[2, 0] == 1
        for side in ("row_strategies", "col_strategies"):
            with pytest.raises(ValueError, match="need at least one pure strategy"):
                build_payoff_matrix(c, **{side: []})

    def test_full_enumeration_bytes_pinned(self):
        # sha256 of the 729x4096 matrix built by one welfare_grid call over
        # all rows, so the row-blocked build must reproduce it byte for byte
        pm = build_payoff_matrix(cfg(6, 3, (1, 3, 5, 7), (2, 4, 6)))
        assert pm.values.dtype == np.int8
        assert hashlib.sha256(pm.values.astype(np.float64).tobytes()).hexdigest() == (
            "a64a5ff44969d9ebe2054ecd07ea40a41aedbacbf4bf012e513ee59647d0981e")

    def test_partial_last_block_with_prefix_rows(self, monkeypatch):
        c = cfg(4, 2, (1, 2, 3), (1, 2, 3))
        cols = [(1, 2, 3, 1), (3, 3, 1, 1), (2, 1, 2, 3), (1, 1, 1, 1), (3, 2, 1, 2)]
        rng = np.random.default_rng(8)
        rows = [tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(1, 5))))
                for _ in range(11)]
        # 3 rows per block: 11 rows leave a partial last block of 2
        monkeypatch.setattr(equilibrium, "_BLOCK_CELLS", 3 * len(cols) + 1)
        pm = build_payoff_matrix(c, row_strategies=rows, col_strategies=cols)
        assert pm.shape == (11, 5)
        for i, r in enumerate(rows):
            for j, p in enumerate(cols):
                assert pm.values[i, j] == gap(c, r, p[: len(r)])

    def test_partial_last_block_with_enumerated_columns(self, monkeypatch):
        c = cfg(4, 2, (1, 2, 3), (1, 2, 3))
        # 3 rows per block: 11 rows leave a partial last block of 2
        monkeypatch.setattr(equilibrium, "_BLOCK_CELLS", 3 * 3**4 + 1)
        rows = [r.tolist() for r in enumerate_strategies(c.budget_set, 4)[::8]]
        pm = build_payoff_matrix(c, row_strategies=rows)
        assert pm.shape == (11, 81)
        for i, r in enumerate(rows):
            for j, p in enumerate(pm.cols.tolist()):
                assert pm.values[i, j] == gap(c, r, p)

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
                # full-length and zero-padded prefix rows
                rows = [tuple(rng.choice(budgets, int(rng.integers(0, n + 1))).tolist())
                        for _ in range(int(rng.integers(1, 40)))]
                for pm in (build_payoff_matrix(c, row_strategies=rows),
                           build_payoff_matrix(c) if len(budgets) ** n <= 729 else None):
                    if pm is None:
                        continue
                    cols = enumerate_strategies(c.price_set, n)
                    bench = benchmark_rows(pm.rows, c.n_resources)
                    assert np.array_equal(pm.cols, cols)
                    assert pm.values.dtype == equilibrium._narrowest_int(0, int(bench.max()))
                    assert np.array_equal(
                        pm.values, bench[:, None] - welfare_grid(pm.rows, cols, c.n_resources))
                    dtypes.add(pm.values.dtype)
        assert dtypes == {np.dtype(np.int8), np.dtype(np.int16), np.dtype(np.int32)}

    def test_memory_cap(self):
        c = cfg(7, 3, (1, 3, 5, 7), (2, 4, 6))
        with pytest.raises(PayoffTooLargeError):
            build_payoff_matrix(c, max_bytes=1000)

    def test_memory_cap_message_names_existing_routes(self):
        c = cfg(7, 3, (1, 3, 5, 7), (2, 4, 6))
        with pytest.raises(PayoffTooLargeError) as err:
            build_payoff_matrix(c, max_bytes=1000)
        assert str(err.value) == (
            "2187x16384 needs 35.8 MB > cap; shrink the instance or raise max_bytes, "
            "or use `ne --mode acceptance-lp` for long sequences")


class TestNarrowValues:
    """Gaps are stored in the narrowest signed integer dtype that holds them."""

    @pytest.fixture(scope="class")
    def full(self):
        # the int8 matrix needs 35.8 MB, so a 40 MB cap admits it
        return build_payoff_matrix(FULL_GAME, max_bytes=40_000_000)

    def test_full_game_is_int8(self, full):
        assert full.values.dtype == np.int8
        assert full.values.nbytes == 2187 * 16384
        assert full.values.min() == 0 and full.values.max() <= 18
        rng = np.random.default_rng(4)
        for _ in range(40):
            i = int(rng.integers(full.shape[0]))
            j = int(rng.integers(full.shape[1]))
            assert full.values[i, j] == gap(FULL_GAME, full.rows[i].tolist(),
                                            full.cols[j].tolist())

    def test_cap_counts_real_bytes(self):
        with pytest.raises(PayoffTooLargeError, match="needs 35.8 MB"):
            build_payoff_matrix(FULL_GAME, max_bytes=30_000_000)

    @pytest.mark.parametrize("game, dtype", [
        (cfg(3, 2, (1, 2), (1, 2, 3)), np.int8),
        (cfg(3, 2, (50, 100), (50, 100)), np.int16),     # benchmark up to 200
        (cfg(2, 1, (1, 40_000), (1, 40_000)), np.int32),  # benchmark 40000
    ])
    def test_dtype_follows_the_largest_benchmark(self, game, dtype):
        pm = build_payoff_matrix(game)
        assert pm.values.dtype == dtype
        for i, r in enumerate(pm.rows.tolist()):
            for j, p in enumerate(pm.cols.tolist()):
                assert pm.values[i, j] == gap(game, r, p)

    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("game", [
        cfg(3, 2, (1, 2), (1, 2, 3)),
        cfg(4, 2, (1, 2, 3), (1, 2, 3)),
        cfg(5, 2, (1, 3), (1, 2, 4)),
        cfg(3, 2, (50, 100), (50, 100)),
    ])
    def test_same_results_as_float64_input(self, game, direct):
        pm = build_payoff_matrix(game)
        C = pm.values.astype(np.float64)
        if direct:   # the whole game as one LP, without strategy generation
            a, b = equilibrium._game_lps(pm.values), equilibrium._game_lps(C)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        a, b = solve_zero_sum(pm), solve_zero_sum(C)
        assert (a.row_value, a.col_value) == (b.row_value, b.col_value)
        assert np.array_equal(a.row_mix, b.row_mix)
        assert np.array_equal(a.col_mix, b.col_mix)
        for iterations, every in ((1, 1), (997, 7), (5000, 100)):
            a = fictitious_play(pm, iterations, checkpoint_every=every)
            b = fictitious_play(C, iterations, checkpoint_every=every)
            assert (a.lower, a.upper) == (b.lower, b.upper)
            assert np.array_equal(a.row_avg, b.row_avg)
            assert np.array_equal(a.col_avg, b.col_avg)

    def test_memory_stays_near_the_integer_matrix(self):
        # a full float64 copy of this matrix would add 287 MB
        tracemalloc.start()
        try:
            pm = build_payoff_matrix(FULL_GAME)
            _, peak = tracemalloc.get_traced_memory()
            assert peak <= pm.values.nbytes + 3 * MB
            for solve in (solve_zero_sum, lambda p: fictitious_play(p, 100_000)):
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                solve(pm)
                _, peak = tracemalloc.get_traced_memory()
                assert peak - base <= 16 * MB
        finally:
            tracemalloc.stop()


class TestSolveZeroSum:
    @pytest.fixture(scope="class")
    def full(self):
        return build_payoff_matrix(FULL_GAME)

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
        pm = build_payoff_matrix(c, col_strategies=price_rows)
        assert pm.shape == (2187, 3)
        mixed = solve_zero_sum(pm)
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
        sub = full.values[np.ix_(rows, cols)]
        want = reference_strategy_generation(sub.astype(np.float64))
        lps = []

        def counting(*args, **kwargs):
            lps.append(args)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "solve_lp", counting)
        for C in (PayoffMatrix(full.rows[rows], full.cols[cols], sub),
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


class TestSolveStrategyTypes:
    def test_accepts_payoff_matrix(self):
        c = cfg(2, 1, (1, 2), (1, 2))
        pm = build_payoff_matrix(c)
        mixed = solve_zero_sum(pm)
        assert isinstance(mixed, MixedStrategy)
        assert isinstance(pm, PayoffMatrix)
        fp = fictitious_play(pm, 100)
        assert fp.lower - 1e-9 <= mixed.value <= fp.upper + 1e-9
