"""Game mechanics: play-out, benchmark, gap, vector kernels."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advalloc import game
from advalloc.baselines import GreedyPolicy, play_protocol
from advalloc.completion import candidate_gaps
from advalloc.game import (
    AllocationTrace,
    GameConfig,
    benchmark,
    benchmark_rows,
    checked_rows,
    format_sequence,
    gap,
    parse_sequence,
    play_out,
    simulate,
    strategy_rows,
    validate_budgets,
    validate_prices,
    welfare_grid,
    welfare_paired,
)
from advalloc.nets import AlgorithmPolicy
from advalloc.training import algorithm_gradients, play_batch


def cfg(n, r, prices, budgets):
    return GameConfig(n_users=n, n_resources=r, price_set=prices, budget_set=budgets)


class TestGameConfig:
    def test_bounds(self):
        c = cfg(3, 2, (1, 2, 3), (2, 4, 6))
        assert c.upper_bound == 6
        assert c.lower_bound == 2
        assert c.n_prices == 3 and c.n_budgets == 3

    def test_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            cfg(3, 1, (3, 2, 1), (1, 2))
        with pytest.raises(ValueError):
            cfg(3, 1, (1, 1), (1, 2))
        with pytest.raises(ValueError):
            cfg(3, 1, (), (1,))
        with pytest.raises(ValueError):
            cfg(3, 1, (0, 1), (1,))
        with pytest.raises(ValueError):
            cfg(0, 1, (1,), (1,))
        with pytest.raises(ValueError):
            cfg(3, 0, (1,), (1,))
        with pytest.raises(ValueError):
            cfg(3, 1, (1.5, 2.5), (1, 2))

    @pytest.mark.parametrize("n,r", [(True, 1), (3, np.bool_(True)), (2.0, 1), (3, 1.5)])
    def test_rejects_non_integer_counts(self, n, r):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            cfg(n, r, (1,), (1,))

    def test_lists_coerced_to_tuples(self):
        c = cfg(2, 1, [1, 2], [3, 4])
        assert c.price_set == (1, 2)
        assert c.budget_set == (3, 4)


class TestSimulate:
    def test_single_unit_accepts_first_affordable(self):
        c = cfg(3, 1, (3,), (2, 4, 6))
        tr = simulate(c, [2, 4, 6], [3, 3, 3])
        assert tr.accepted == (False, True, False)
        assert tr.alg_welfare == 4
        assert tr.resources_before == (1, 1, 0)

    def test_all_prices_above_budgets(self):
        c = cfg(3, 3, (7,), (2, 4, 6))
        tr = simulate(c, [2, 4, 6], [7, 7, 7])
        assert tr.alg_welfare == 0
        assert tr.accepted == (False, False, False)

    def test_greedy_exhaustion(self):
        c = cfg(4, 2, (1,), (1, 3))
        tr = simulate(c, [1, 3, 3, 3], [1, 1, 1, 1])
        assert tr.accepted == (True, True, False, False)
        assert tr.alg_welfare == 4

    def test_length_mismatch_rejected(self):
        c = cfg(3, 1, (1,), (1, 2))
        with pytest.raises(ValueError):
            simulate(c, [1, 2], [1, 1, 1])

    def test_entry_outside_set_rejected(self):
        c = cfg(2, 1, (1,), (1, 2))
        with pytest.raises(ValueError):
            simulate(c, [1, 3], [1, 1])
        with pytest.raises(ValueError):
            simulate(c, [1, 2], [1, 2])

    def test_trace_is_consistent(self):
        c = cfg(5, 2, (1, 2, 3), (1, 2, 3))
        tr = simulate(c, [3, 1, 2, 3, 1], [2, 1, 3, 2, 1])
        assert isinstance(tr, AllocationTrace)
        assert tr.gap == tr.benchmark_value - tr.alg_welfare
        assert sum(tr.accepted) <= c.n_resources


class TestBenchmark:
    def test_top_two(self):
        c = cfg(3, 2, (1,), (2, 4, 6))
        value, flags = benchmark(c, [2, 4, 6])
        assert value == 10
        assert flags == (False, True, True)

    def test_top_two_with_ties(self):
        c = cfg(4, 2, (1,), (1, 3))
        value, flags = benchmark(c, [1, 3, 3, 3])
        assert value == 6
        # earliest-index tie-break marks the first two 3s
        assert flags == (False, True, True, False)

    def test_more_resources_than_users(self):
        c = cfg(2, 3, (1,), (5,))
        value, flags = benchmark(c, [5, 5])
        assert value == 10
        assert flags == (True, True)

    def test_validates_outside_input(self):
        with pytest.raises(ValueError, match=re.escape("budgets entry 3 not in (2, 4)")):
            benchmark(cfg(2, 1, (1,), (2, 4)), [3, 2])

    def test_simulate_validates_each_sequence_once(self, monkeypatch):
        seen = []
        validate = game.validate_sequence
        monkeypatch.setattr(game, "validate_sequence",
                            lambda c, seq, values, what, *rest: seen.append(what)
                            or validate(c, seq, values, what, *rest))
        trace = simulate(cfg(3, 2, (1, 3), (2, 4)), [4, 2, 4], [3, 3, 1])
        assert seen == ["budgets", "prices"]
        assert (trace.benchmark_value, trace.benchmark_flags) == (8, (True, False, True))


class TestGap:
    def test_simple(self):
        c = cfg(3, 1, (3,), (2, 4, 6))
        assert gap(c, [2, 4, 6], [3, 3, 3]) == 6 - 4

    def test_prices_equal_budgets_abundant(self):
        c = cfg(3, 3, (2, 4, 6), (2, 4, 6))
        assert gap(c, [2, 4, 6], [2, 4, 6]) == 0

    def test_restricted_game_cell(self):
        # brute-checked play-out: welfare 1+1 = 2, benchmark 2+2+2 = 6
        c = cfg(7, 3, (1, 2, 3), (1, 2, 3))
        assert gap(c, [1, 1, 1, 1, 2, 2, 2], [1, 1, 2, 2, 3, 3, 3]) == 4


seq_sets = st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True).map(sorted)


@st.composite
def random_instance(draw):
    prices = tuple(draw(seq_sets))
    budgets = tuple(draw(seq_sets))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, 4))
    c = GameConfig(n_users=n, n_resources=r, price_set=prices, budget_set=budgets)
    bs = tuple(draw(st.sampled_from(budgets)) for _ in range(n))
    ps = tuple(draw(st.sampled_from(prices)) for _ in range(n))
    return c, bs, ps


class TestProperties:
    @given(random_instance())
    @settings(max_examples=200, deadline=None)
    def test_gap_bounds_and_trace_invariants(self, inst):
        c, bs, ps = inst
        tr = simulate(c, bs, ps)
        assert 0 <= tr.gap <= tr.benchmark_value
        assert tr.resources_before[0] == c.n_resources
        for i in range(1, len(bs)):
            assert tr.resources_before[i] == tr.resources_before[i - 1] - tr.accepted[i - 1]
        for i, took in enumerate(tr.accepted):
            if took:
                assert bs[i] >= ps[i] and tr.resources_before[i] > 0

    @given(random_instance(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_benchmark_permutation_invariant(self, inst, rnd):
        c, bs, _ = inst
        shuffled = list(bs)
        rnd.shuffle(shuffled)
        assert benchmark(c, shuffled)[0] == benchmark(c, bs)[0]

    def test_simulate_is_order_dependent(self):
        c = cfg(3, 1, (2,), (1, 3))
        # low budget first burns nothing (rejected), high budget taken
        assert simulate(c, [1, 3, 1], [2, 2, 2]).alg_welfare == 3
        # reversal: unit goes to the 3 up front either way, but swapping a
        # mid-sequence accept changes welfare
        assert simulate(c, [3, 1, 1], [2, 2, 2]).alg_welfare == 3
        c2 = cfg(2, 1, (2,), (2, 3))
        assert simulate(c2, [2, 3], [2, 2]).alg_welfare == 2
        assert simulate(c2, [3, 2], [2, 2]).alg_welfare == 3

    @given(random_instance())
    @settings(max_examples=150, deadline=None)
    def test_vector_kernels_match_scalar(self, inst):
        c, bs, ps = inst
        tr = simulate(c, bs, ps)
        rows = np.array([bs])
        cols = np.array([ps])
        assert welfare_grid(rows, cols, c.n_resources)[0, 0] == tr.alg_welfare
        assert welfare_paired(rows, cols, c.n_resources)[0] == tr.alg_welfare
        assert benchmark_rows(rows, c.n_resources)[0] == tr.benchmark_value
        seen = []

        def price_at(i, left):
            seen.append(int(left[0]))
            return cols[:, i]

        welfare, accepted = play_out(rows, c.n_resources, price_at)
        assert seen == list(tr.resources_before)
        assert welfare.tolist() == [tr.alg_welfare]
        assert accepted.tolist() == [list(tr.accepted)]

    def test_vector_kernels_zero_padding_is_inert(self):
        c = cfg(4, 2, (1, 2), (1, 2))
        bs, ps = (2, 1), (1, 2)
        tr = simulate(c, bs, ps)
        rows = np.array([[2, 1, 0, 0]])
        cols = np.array([[1, 2, 1, 1]])
        assert welfare_grid(rows, cols, 2)[0, 0] == tr.alg_welfare
        assert benchmark_rows(rows, 2)[0] == tr.benchmark_value

    @pytest.mark.parametrize("top, n_resources",
                             [(6, 3), (6, 9), (6, 0), (300, 2), (40_000, 4), (5 * 10**9, 3)])
    def test_welfare_grid_matches_reference_loop(self, top, n_resources):
        # value ranges that select each narrow dtype (int8 up to int64), R above
        # and below N, no units at all, and zero budgets
        rng = np.random.default_rng(top + n_resources)
        rows = rng.integers(1, top + 1, size=(13, 6))
        rows[rng.random(rows.shape) < 0.2] = 0
        cols = rng.integers(1, top + 1, size=(17, 6))
        welfare = welfare_grid(rows, cols, n_resources)
        assert welfare.dtype == np.int64
        expected = np.zeros((13, 17), dtype=np.int64)
        for m in range(13):
            for k in range(17):
                left = n_resources
                for b, p in zip(rows[m].tolist(), cols[k].tolist()):
                    if left > 0 and b > 0 and b >= p:
                        expected[m, k] += b
                        left -= 1
        assert np.array_equal(welfare, expected)

    def test_abundant_lowest_price_gap_zero(self):
        # R >= N and min(A) <= min(B): posting min(A) accepts everyone
        c = cfg(3, 3, (1, 5), (2, 4))
        for bs in [(2, 2, 2), (2, 4, 2), (4, 4, 4)]:
            assert gap(c, bs, (1, 1, 1)) == 0


class TestSequenceText:
    def test_round_trip(self):
        assert parse_sequence("1,2,3") == (1, 2, 3)
        assert parse_sequence(" 4 , 5 ") == (4, 5)
        assert format_sequence((1, 2, 3)) == "1,2,3"
        assert parse_sequence("") == ()

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_sequence("1,x")

    def test_validate_budgets_partial(self):
        c = cfg(4, 1, (1,), (1, 2))
        assert validate_budgets(c, [1, 2], allow_partial=True) == (1, 2)
        with pytest.raises(ValueError):
            validate_budgets(c, [1, 2])
        with pytest.raises(ValueError):
            validate_budgets(c, [1, 2, 1, 2, 1], allow_partial=True)


class TestValidation:
    """Plain-int input takes a fast path; everything else the checked one."""

    def test_plain_ints_pass_through(self):
        c = cfg(3, 1, (1, 2), (2, 4))
        assert validate_prices(c, (1, 2, 1)) == (1, 2, 1)
        assert validate_budgets(c, [4, 2], allow_partial=True) == (4, 2)
        assert validate_budgets(c, (), allow_partial=True) == ()

    def test_numpy_ints_come_back_as_python_ints(self):
        c = cfg(3, 1, (1, 2), (2, 4))
        for seq, want in ((np.array([4, 2, 4]), (4, 2, 4)),
                          ([np.int64(4), 2, np.int32(2)], (4, 2, 2))):
            out = validate_budgets(c, seq)
            assert out == want
            assert all(type(v) is int for v in out)

    @pytest.mark.parametrize("bad", [True, np.bool_(True), 2.0, "2", None])
    def test_non_integer_entry_message(self, bad):
        c = cfg(3, 1, (1, 2), (2, 4))
        with pytest.raises(ValueError,
                           match=re.escape(f"budgets entries must be integers, got {bad!r}")):
            validate_budgets(c, (4, bad, 4))

    def test_first_non_integer_is_named(self):
        c = cfg(3, 1, (1, 2), (2, 4))
        with pytest.raises(ValueError, match=re.escape("prices entries must be integers, got 1.5")):
            validate_prices(c, (1, 1.5, False))

    def test_out_of_set_message(self):
        c = cfg(3, 1, (1, 2), (2, 4))
        with pytest.raises(ValueError, match=re.escape("budgets entry 3 not in (2, 4)")):
            validate_budgets(c, (2, 3, 5))
        with pytest.raises(ValueError, match=re.escape("prices entry 7 not in (1, 2)")):
            validate_prices(c, np.array([1, 7, 2]))

    def test_length_messages(self):
        c = cfg(3, 1, (1, 2), (2, 4))
        with pytest.raises(ValueError, match=re.escape("budgets length 2 != n_users 3")):
            validate_budgets(c, (2, 4))
        with pytest.raises(ValueError,
                           match=re.escape("prices longer than n_users: 4 > 3")):
            validate_prices(c, (1, 1, 1, 1), allow_partial=True)


class TestStrategyRows:
    """Pure-strategy lists become zero-padded rows and their lengths; every
    strategy must hold at least one entry."""

    def test_pads_partial_rows_and_reports_lengths(self):
        c = cfg(3, 1, (1, 2), (2, 4))
        rows, lengths = strategy_rows(c, [(4,), [2, 4], np.array([4, 4, 2])], "budgets",
                                      allow_partial=True)
        assert rows.dtype == lengths.dtype == np.int64
        assert rows.tolist() == [[4, 0, 0], [2, 4, 0], [4, 4, 2]]
        assert lengths.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("what", ["budgets", "prices"])
    def test_needs_at_least_one_strategy(self, what):
        with pytest.raises(ValueError, match=rf"^need at least one pure strategy \({what}\)$"):
            strategy_rows(cfg(3, 1, (1, 2), (2, 4)), [], what, allow_partial=True)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("what", ["budgets", "prices"])
    def test_empty_strategy_is_refused_by_its_index(self, what, position):
        c = cfg(3, 1, (1, 2), (2, 4))
        full = (2, 4, 4) if what == "budgets" else (1, 2, 1)
        strategies = [full] * 3
        strategies[position] = ()
        with pytest.raises(ValueError, match=rf"^pure strategy {position} \({what}\) is empty$"):
            strategy_rows(c, strategies, what, allow_partial=True)
        # without allow_partial an empty strategy is a wrong length, as before
        with pytest.raises(ValueError, match=rf"^{what} length 0 != n_users 3$"):
            strategy_rows(c, strategies, what)


class TestCheckedRows:
    """Every array entry point checks its rows with game.checked_rows, so each
    refuses a bad row with one message."""

    GAME = cfg(4, 2, (1, 2, 3), (1, 2, 3))
    VALID = np.array([[1, 2, 3, 1], [2, 2, 3, 3]])
    POLICY = AlgorithmPolicy(4, 3, hidden=(8,))
    # (what the rows are, a call that feeds them to one entry point)
    ENTRY_POINTS = {
        "play_batch": ("budgets", lambda c, rows: play_batch(
            c, TestCheckedRows.POLICY, rows, np.random.default_rng(0))),
        "algorithm_gradients": ("budgets", lambda c, rows: algorithm_gradients(
            c, TestCheckedRows.POLICY, rows, np.random.default_rng(0))),
        "candidate_gaps-prices": ("prices", lambda c, rows: candidate_gaps(
            c, rows, TestCheckedRows.VALID)),
        "candidate_gaps-budgets": ("budgets", lambda c, rows: candidate_gaps(
            c, TestCheckedRows.VALID, rows)),
        "play_protocol": ("budgets", lambda c, rows: play_protocol(c, GreedyPolicy(), rows)),
    }
    BAD_ROWS = {
        "float": (np.array([[1.0, 2.0, 3.0, 1.0]] * 2), "must be integer rows of shape "
                                                       "(M, 4), got float64 (2, 4)"),
        "bool": (np.ones((2, 4), dtype=bool), "must be integer rows of shape "
                                               "(M, 4), got bool (2, 4)"),
        "wide": (np.ones((2, 5), dtype=np.int64), "must be integer rows of shape "
                                                   "(M, 4), got int64 (2, 5)"),
        "outside-set": (np.array([[1, 2, 3, 1], [2, 4, 3, 3]]), "entry 4 not in (1, 2, 3)"),
    }

    @pytest.mark.parametrize("bad", list(BAD_ROWS))
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_every_entry_point_refuses_with_one_message(self, entry, bad):
        what, call = self.ENTRY_POINTS[entry]
        rows, message = self.BAD_ROWS[bad]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {message}')}$"):
            call(self.GAME, rows)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {message}')}$"):
            checked_rows(self.GAME, rows, what)

    def test_rows_come_back_int64_and_zeroed_past_their_lengths(self):
        rows, lengths = checked_rows(self.GAME, np.array([[2, 3, 0, 99], [1, 2, 3, 1]],
                                                         dtype=np.uint8), "budgets", [2, 4])
        assert rows.dtype == lengths.dtype == np.int64
        assert rows.tolist() == [[2, 3, 0, 0], [1, 2, 3, 1]]
        assert lengths.tolist() == [2, 4]
        full, lengths = checked_rows(self.GAME, self.VALID, "prices")
        assert full.tolist() == self.VALID.tolist() and lengths.tolist() == [4, 4]

    def test_one_length_per_row(self):
        with pytest.raises(ValueError, match="^one length per budgets row required$"):
            checked_rows(self.GAME, self.VALID, "budgets", [2])
