"""Worst-case completion: construction vs exhaustive enumeration."""
import bisect
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advalloc import completion
from advalloc.completion import (
    CompletionResult,
    CompletionTooLargeError,
    brute_force_completion,
    candidate_gaps,
    optimal_completion,
)
from advalloc.game import GameConfig, gap, simulate


def cfg(n, r, prices, budgets):
    return GameConfig(n_users=n, n_resources=r, price_set=prices, budget_set=budgets)


class TestBruteForce:
    def test_nothing_open(self):
        c = cfg(2, 1, (1, 2), (1, 2))
        res = brute_force_completion(c, (1, 2), (2, 1))
        assert res.full_sequence == (2, 1)
        assert res.gap == gap(c, (2, 1), (1, 2))

    def test_two_slot_enumeration(self):
        c = cfg(2, 1, (1, 2), (1, 2))
        res = brute_force_completion(c, (1, 1), ())
        assert res.gap == 1
        assert res.full_sequence == (1, 2)

    def test_cap(self):
        c = cfg(8, 1, (1,), (1, 2, 3))
        with pytest.raises(CompletionTooLargeError,
                           match=r"^6561 completions exceed cap 100; shrink the instance "
                                 r"or raise cap$"):
            brute_force_completion(c, (1,) * 8, (), cap=100)
        assert brute_force_completion(c, (1,) * 8, (1, 2), cap=729).gap == 2

    def test_refuses_sums_past_int64(self):
        c = cfg(3, 2, (1,), (1, 2**62))
        with pytest.raises(ValueError, match=r"brute force scores in int64: min\(R, N\)"):
            brute_force_completion(c, (1, 1, 1), ())

    def test_tie_break_lexicographic(self):
        # all-rejecting prices: every completion has the same welfare (prefix
        # only); max benchmark forces the largest budgets, which is unique,
        # so use an abundant case where several completions tie instead
        c = cfg(2, 2, (1,), (1, 2))
        res = brute_force_completion(c, (1, 1), ())
        # every completion is fully accepted: gap 0 everywhere -> lex smallest
        assert res.gap == 0
        assert res.full_sequence == (1, 1)


def enumerated_completion(c, prices, prefix):
    """The first gap-maximizing completion in itertools.product order, by gap()."""
    best = None
    for tail in itertools.product(c.budget_set, repeat=len(prices) - len(prefix)):
        g = gap(c, prefix + tail, prices)
        if best is None or g > best.gap:
            best = CompletionResult(gap=g, full_sequence=prefix + tail)
    return best


def brute_instance(rng, ties):
    """A seeded game, price row and prefix; ties draws games where many
    completions share the maximum gap."""
    n = int(rng.integers(1, 7))
    if ties:   # few distinct budgets, cheap prices, enough units for most
        budgets = tuple(range(1, int(rng.integers(1, 3)) + 1))
        prices = (1,) if rng.random() < 0.5 else (1, 2)
        r = int(rng.integers(max(1, n - 1), n + 2))
    else:
        budgets = tuple(sorted(rng.choice(np.arange(1, 13), int(rng.integers(1, 4)),
                                          replace=False).tolist()))
        prices = tuple(sorted(rng.choice(np.arange(1, 13), int(rng.integers(1, 4)),
                                         replace=False).tolist()))
        r = int(rng.integers(1, 4))
    c = cfg(n, r, prices, budgets)
    row = tuple(rng.choice(prices, int(rng.integers(0, n + 1))).tolist())
    prefix = tuple(rng.choice(budgets, int(rng.integers(0, len(row) + 1))).tolist())
    return c, row, prefix


class TestBlockedBruteForce:
    """brute_force_completion scores blocks of completions with the game's
    batch kernels; the per-completion gap() loop is its reference."""

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "tie-heavy"])
    def test_matches_the_gap_loop(self, ties):
        rng = np.random.default_rng(11 + ties)
        for _ in range(300):
            c, prices, prefix = brute_instance(rng, ties)
            got = brute_force_completion(c, prices, prefix)
            assert got == enumerated_completion(c, prices, prefix)
            assert all(type(v) is int for v in got.full_sequence + (got.gap,))

    @pytest.mark.parametrize("block", [1, 2, 5, 7])
    def test_block_boundaries(self, monkeypatch, block):
        monkeypatch.setattr(completion, "_BRUTE_BLOCK", block)
        rng = np.random.default_rng(20 + block)
        for i in range(80):
            c, prices, prefix = brute_instance(rng, ties=i % 2 == 1)
            assert brute_force_completion(c, prices, prefix) == \
                enumerated_completion(c, prices, prefix)
        # every completion ties at gap 0: the first one wins across blocks
        c = cfg(3, 3, (1,), (1, 2))
        assert brute_force_completion(c, (1, 1, 1), ()).full_sequence == (1, 1, 1)

    def test_memory_stays_flat(self):
        prices = (2, 4, 4, 2, 2, 4, 2, 4, 4, 2, 4, 2)
        small, large = cfg(12, 3, (2, 4), (1, 3)), cfg(12, 3, (2, 4), (1, 3, 5))
        # 2**12 completions (one block), 3**12, and five cases whose 205,161
        # completions fill 51 blocks, three of them shared between cases
        calls = ([(small, prices, ())], [(large, prices, ())],
                 [(small, prices, (3,)), (large, prices, (1, 5, 3)), (small, prices, ()),
                  (large, prices, (5,) * 5), (large, prices, (1,))])
        peaks = []
        tracemalloc.start()
        try:
            for cases in calls:
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                res = completion.brute_force_completions(cases)
                _, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - base)
        finally:
            tracemalloc.stop()
        assert [r.gap for r in res] == completion.optimal_gaps(cases) == [6, 6, 9, 0, 9]
        assert res == [brute_force_completion(*case) for case in cases]
        # a block of 4096 rows is about 0.4 MB; all 3**12 rows would be 51 MB
        assert max(peaks[1:]) <= peaks[0] + 64 * 1024
        assert max(peaks) <= 2_000_000


class TestGroupedReaders:
    """optimal_gaps and brute_force_completions score a group of cases of
    one sequence length and R in one call; the one-case readers are their
    reference, case by case."""

    @staticmethod
    def groups(seed, count):
        rng = np.random.default_rng(seed)
        by_shape = {}
        for i in range(count):
            c, prices, prefix = brute_instance(rng, ties=i % 3 == 0)
            by_shape.setdefault((len(prices), c.n_resources), []).append((c, prices, prefix))
        return list(by_shape.values())

    @pytest.mark.parametrize("block", [1, 5, 7])
    def test_match_the_one_case_readers(self, monkeypatch, block):
        monkeypatch.setattr(completion, "_BRUTE_BLOCK", block)
        for seed in (3, 5, 13):
            for group in self.groups(seed, 300):
                fast = completion.optimal_gaps(group)
                slow = completion.brute_force_completions(group)
                for case, f, s in zip(group, fast, slow):
                    assert f == optimal_completion(*case).gap == s.gap
                    assert s == brute_force_completion(*case)
                    assert all(type(v) is int for v in s.full_sequence + (s.gap, f))

    def test_first_maximum_per_case_across_blocks(self, monkeypatch):
        monkeypatch.setattr(completion, "_BRUTE_BLOCK", 3)
        # every completion ties at gap 0; the cases end and start mid-block
        cases = [(cfg(3, 3, (1,), (1, 2)), (1, 1, 1), prefix)
                 for prefix in ((), (2,), (2, 2), (), (1, 2, 2))]
        assert [r.full_sequence for r in completion.brute_force_completions(cases)] == \
            [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1), (1, 2, 2)]

    @pytest.mark.parametrize("reader", ["optimal_gaps", "brute_force_completions"])
    def test_rejects_mixed_groups(self, reader):
        c = cfg(3, 2, (1, 2), (1, 2))
        with pytest.raises(ValueError, match="needs cases of one sequence length"):
            getattr(completion, reader)([(c, (1, 2, 1), ()), (c, (1, 2), ())])


class TestOptimalCompletion:
    def test_prefix_preserved_and_gap_consistent(self):
        c = cfg(3, 2, (1, 2), (1, 2))
        res = optimal_completion(c, (1, 2, 2), (2,))
        assert res.full_sequence[:1] == (2,)
        assert res.gap == gap(c, res.full_sequence, (1, 2, 2))

    def test_empty_prefix_single_unit(self):
        c = cfg(2, 1, (1, 2), (1, 2))
        res = optimal_completion(c, (1, 2), ())
        assert res.gap == 1

    def test_partial_prefix_one_left(self):
        # first slot accepted at price 2, one unit left; only starving works
        c = cfg(3, 2, (1, 2), (1, 2))
        res = optimal_completion(c, (2, 2, 2), (2,))
        assert res.gap == 1
        assert res.full_sequence == (2, 1, 1)

    def test_all_prices_unaffordable(self):
        c = cfg(3, 2, (5, 7), (1, 2, 4))
        res = optimal_completion(c, (7, 5, 7), ())
        # nothing is ever accepted: best completion maximizes the benchmark
        # with sub-price budgets; 4 < 5 is the largest below every price
        assert res.full_sequence == (4, 4, 4)
        assert res.gap == 8

    def test_exhausted_prefix_spikes(self):
        c = cfg(3, 1, (1,), (1, 3))
        res = optimal_completion(c, (1, 1, 1), (1,))
        assert res.full_sequence == (1, 3, 3)
        assert res.gap == 3 - 1

    def test_full_prefix(self):
        c = cfg(2, 1, (1, 2), (1, 2))
        res = optimal_completion(c, (2, 1), (1, 1))
        assert res.full_sequence == (1, 1)
        assert res.gap == gap(c, (1, 1), (2, 1))


@st.composite
def completion_instance(draw):
    m = draw(st.integers(1, 3))
    budgets = tuple(sorted(draw(st.lists(st.integers(1, 6), min_size=m, max_size=m,
                                         unique=True))))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, 3))
    price_vals = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    prices_set = tuple(sorted(price_vals))
    c = GameConfig(n_users=n, n_resources=r, price_set=prices_set, budget_set=budgets)
    prices = tuple(draw(st.sampled_from(prices_set)) for _ in range(n))
    ell = draw(st.integers(0, n))
    prefix = tuple(draw(st.sampled_from(budgets)) for _ in range(ell))
    return c, prices, prefix


class TestEquivalence:
    @given(completion_instance())
    @settings(max_examples=300, deadline=None)
    def test_construction_matches_brute_force(self, inst):
        c, prices, prefix = inst
        fast = optimal_completion(c, prices, prefix)
        slow = brute_force_completion(c, prices, prefix)
        assert fast.gap == slow.gap
        assert fast.full_sequence[: len(prefix)] == prefix
        assert fast.gap == gap(c, fast.full_sequence, prices)

    def test_seeded_batch_matches(self):
        # mirror of the CLI equivalence suite at a fixed seed
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            r = int(rng.integers(1, 4))
            budgets = tuple(sorted(rng.choice(np.arange(1, 7), size=m, replace=False).tolist()))
            pset = tuple(sorted(rng.choice(np.arange(1, 7), size=int(rng.integers(1, 4)),
                                           replace=False).tolist()))
            c = GameConfig(n_users=n, n_resources=r, price_set=pset, budget_set=budgets)
            prices = tuple(int(rng.choice(pset)) for _ in range(n))
            ell = int(rng.integers(0, n + 1))
            prefix = tuple(int(rng.choice(budgets)) for _ in range(ell))
            assert (optimal_completion(c, prices, prefix).gap
                    == brute_force_completion(c, prices, prefix).gap)

    def test_result_type(self):
        c = cfg(2, 1, (1,), (1, 2))
        res = optimal_completion(c, (1, 1), ())
        assert isinstance(res, CompletionResult)


class TestTieBreak:
    def test_accepts_as_late_as_stays_optimal(self):
        # accepting at slot 0 ((2, 4, 4)) or at slot 1 ((1, 2, 4)) both give
        # gap 2; slot 0 rejects because a gap-2 completion rejects there
        c = cfg(3, 1, (1, 2), (1, 2, 4))
        res = optimal_completion(c, (2, 2, 1), ())
        assert gap(c, (2, 4, 4), (2, 2, 1)) == 2
        assert res.gap == 2
        assert res.full_sequence == (1, 2, 4)

    def test_rejecting_open_slot_spends_its_pick(self):
        # (3, 3, 6) also reaches gap 3, by accepting slot 1 and spiking
        # slot 2; a benchmark pick spent on slot 0 lets slot 1 reject
        c = cfg(3, 1, (3, 4, 6), (1, 3, 6))
        res = optimal_completion(c, (6, 3, 3), ())
        assert gap(c, (3, 3, 6), (6, 3, 3)) == 3
        assert res.gap == 3
        assert res.full_sequence == (3, 1, 1)

    def test_prefix_keeps_most_picks(self):
        # every completion has gap 0; a pick kept on the accepted prefix
        # slot lets slot 1 reject instead of accepting as in (5, 5, 5)
        c = cfg(3, 2, (1, 3, 5), (1, 5))
        res = optimal_completion(c, (3, 5, 1), (5,))
        assert res.gap == 0
        assert res.full_sequence == (5, 1, 1)

    def test_gap_zero_everywhere_rejects_then_accepts_cheapest(self):
        c = cfg(2, 1, (1, 3), (1, 3))
        res = optimal_completion(c, (3, 1), ())
        assert res.gap == 0
        assert res.full_sequence == (1, 1)

    @given(completion_instance())
    @settings(max_examples=300, deadline=None)
    def test_posted_budgets(self, inst):
        c, prices, prefix = inst
        res = optimal_completion(c, prices, prefix)
        trace = simulate(c, res.full_sequence, prices)
        budgets = c.budget_set
        for i in range(len(prefix), len(prices)):
            b = res.full_sequence[i]
            k = bisect.bisect_left(budgets, prices[i])
            if trace.resources_before[i] == 0:
                assert b == budgets[-1]
            elif trace.accepted[i]:
                assert b == budgets[k]
            else:
                assert b == budgets[k - 1]


def scan_instance(seed):
    """Seeded instance with N=25..60, R<=11, |B|<=6 and values in 1..12.

    Draws only through random.Random.random(), whose stream Python keeps
    fixed across versions, so the pinned gaps below stay reproducible.
    """
    rng = random.Random(seed)

    def below(k):
        return int(rng.random() * k)

    def subset(size):
        pool = list(range(1, 13))
        return tuple(sorted(pool.pop(below(len(pool))) for _ in range(size)))

    n = 25 + below(36)
    r = 1 + below(11)
    c = GameConfig(n_users=n, n_resources=r, price_set=subset(1 + below(6)),
                   budget_set=subset(1 + below(6)))
    prices = tuple(c.price_set[below(c.n_prices)] for _ in range(n))
    prefix = tuple(c.budget_set[below(c.n_budgets)] for _ in range(below(n + 1)))
    return c, prices, prefix


# Gaps of scan_instance(0..49), computed by the starve/exhaust-then-spike
# window scan that preceded the DP.
SCAN_GAPS = (30, 10, 25, 0, 16, 81, 50, 9, 33, 35, 0, 54, 14, 35, 23, 0, 0, 22, 19, 0,
             54, 10, 18, 8, 50, 14, 27, 20, 6, 0, 24, 16, 12, 19, 0, 72, 53, 2, 20, 18,
             40, 30, 0, 16, 48, 6, 50, 0, 9, 12)

# One adversary-signal row on the N=25 staircase game, from the window scan.
STAIRCASE_GAME = GameConfig(n_users=25, n_resources=5,
                            price_set=(1, 2, 3, 4, 5), budget_set=(1, 2, 3, 4, 5))
SIGNAL_PRICES = (5, 5, 4, 3, 4, 5, 4, 3, 3, 4, 5, 3, 5, 5, 5, 4, 3, 5, 4, 3, 5, 4, 5, 5, 3)
SIGNAL_BUDGETS = (2, 2, 2, 1, 2, 5, 3, 1, 3, 3, 2, 1, 1, 3, 5, 1, 1, 5, 3, 3, 2, 5, 1, 1, 1)
SIGNAL_ROW = (
    (20, 20, 20, 20, 16), (20, 20, 20, 20, 16), (20, 20, 20, 16, 16), (20, 20, 17, 16, 16),
    (20, 20, 20, 16, 16), (20, 20, 20, 20, 16), (16, 16, 16, 12, 12), (16, 16, 13, 12, 12),
    (16, 16, 13, 12, 12), (13, 13, 13, 9, 9), (13, 13, 13, 13, 9), (13, 13, 10, 9, 9),
    (13, 13, 13, 13, 9), (13, 13, 13, 13, 9), (13, 13, 13, 13, 9), (9, 9, 9, 5, 5),
    (9, 9, 6, 5, 5), (9, 9, 9, 9, 5), (5, 5, 5, 3, 2), (5, 5, 4, 3, 2),
    (4, 4, 4, 4, 4), (4, 4, 4, 4, 4), (4, 4, 4, 4, 4), (4, 4, 4, 4, 4),
    (2, 2, 2, 3, 4),
)


class TestPinnedWindowScan:
    @pytest.mark.parametrize("seed", range(len(SCAN_GAPS)))
    def test_gap_and_sequence(self, seed):
        c, prices, prefix = scan_instance(seed)
        res = optimal_completion(c, prices, prefix)
        assert res.gap == SCAN_GAPS[seed]
        assert res.full_sequence[: len(prefix)] == prefix
        assert len(res.full_sequence) == len(prices)
        assert gap(c, res.full_sequence, prices) == res.gap

    def test_staircase_signal_row(self):
        out = candidate_gaps(STAIRCASE_GAME, np.array([SIGNAL_PRICES]),
                             np.array([SIGNAL_BUDGETS]))
        assert out.shape == (1, 25, 5)
        assert out[0].tolist() == [list(row) for row in SIGNAL_ROW]


def scalar_candidate_gaps(c, price_rows, budget_rows, completion=optimal_completion):
    """candidate_gaps by its definition: one completion per (row, slot, candidate)."""
    return np.array([[[completion(c, tuple(p.tolist()), tuple(b[:i].tolist()) + (k,)).gap
                       for k in c.budget_set]
                      for i in range(c.n_users)]
                     for p, b in zip(price_rows, budget_rows)], dtype=np.int64)


def seeded_rows(c, seed, batch):
    rng = np.random.default_rng(seed)
    return (rng.choice(c.price_set, size=(batch, c.n_users)),
            rng.choice(c.budget_set, size=(batch, c.n_users)))


CANDIDATE_GAMES = {
    "more-units-than-users": cfg(5, 7, (1, 2, 3), (1, 2, 3)),
    "units-equal-users": cfg(4, 4, (1, 3, 5), (2, 4)),
    "one-unit-other-sets": cfg(6, 1, (2, 4, 6), (1, 3, 5)),
    "prices-outside-budgets": cfg(7, 3, (1, 2, 4, 8), (2, 4, 6)),
    "price-above-every-budget": cfg(8, 2, (7,), (1, 2, 5)),
    "price-below-every-budget": cfg(8, 2, (1,), (3, 5)),
    "nine-users": cfg(9, 4, (3, 5, 7, 9, 11), (1, 2, 4, 6, 10)),
}


BRUTE_FORCE_GAMES = {
    "more-units-than-users": cfg(4, 6, (1, 2, 3), (1, 2, 3)),
    "units-equal-users": cfg(5, 5, (1, 3, 5), (2, 4)),
    "one-unit-other-sets": cfg(6, 1, (2, 4, 6), (1, 3, 5)),
    "prices-outside-budgets": cfg(6, 2, (1, 2, 4, 8), (2, 4, 6)),
}


class TestCandidateGaps:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("game", list(CANDIDATE_GAMES))
    def test_matches_optimal_completion_bit_for_bit(self, game, seed):
        c = CANDIDATE_GAMES[game]
        prices, budgets = seeded_rows(c, seed, batch=12)
        out = candidate_gaps(c, prices, budgets)
        assert out.dtype == np.int64
        assert out.shape == (12, c.n_users, c.n_budgets)
        assert out.tobytes() == scalar_candidate_gaps(c, prices, budgets).tobytes()

    def test_matches_optimal_completion_on_staircase_game(self):
        prices, budgets = seeded_rows(STAIRCASE_GAME, seed=11, batch=6)
        out = candidate_gaps(STAIRCASE_GAME, prices, budgets)
        ref = scalar_candidate_gaps(STAIRCASE_GAME, prices, budgets)
        assert out.tobytes() == ref.tobytes()

    # the enumeration oracle shares no code with the table both fast routes read
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("game", list(BRUTE_FORCE_GAMES))
    def test_matches_brute_force_everywhere(self, game, seed):
        c = BRUTE_FORCE_GAMES[game]
        prices, budgets = seeded_rows(c, seed, batch=4)
        ref = scalar_candidate_gaps(c, prices, budgets, completion=brute_force_completion)
        assert candidate_gaps(c, prices, budgets).tolist() == ref.tolist()

    @pytest.mark.parametrize("prices, budgets, message", [
        ([[1, 2, 3]] * 2, [[1, 2, 3]] * 3, "2 price rows vs 3 budget rows"),
        ([[1, 2]], [[1, 2, 3]], r"prices must be integer rows of shape \(M, 3\), got int64 \(1, 2\)"),
        ([1, 2, 3], [[1, 2, 3]], r"prices must be integer rows of shape \(M, 3\), got int64 \(3,\)"),
        ([[1, 2, 3]], [[1.0, 2.0, 3.0]], "budgets must be integer rows of shape"),
        ([[1, 2, 3]], [[1, 4, 3]], r"budgets entry 4 not in \(1, 2, 3\)"),
        ([[1, 0, 3]], [[1, 2, 3]], r"prices entry 0 not in \(1, 2, 3\)"),
    ], ids=["row-counts", "slot-count", "one-dimensional", "float-budgets",
            "budget-outside-set", "price-outside-set"])
    def test_rejects(self, prices, budgets, message):
        c = cfg(3, 2, (1, 2, 3), (1, 2, 3))
        with pytest.raises(ValueError, match=message):
            candidate_gaps(c, np.array(prices), np.array(budgets))


class TestTableHeadroom:
    """(min(R, N) + 1) x max budget must stay within 2**61, the headroom
    below the table's "no pick left" sentinel."""

    OVER = cfg(4, 4, (2**62,), (1, 2**61, 2**62))   # exact gap 2**63 would wrap
    # R x max budget fits, but a pick from the sentinel would beat a real value
    SENTINEL = cfg(3, 1, (5, 2**61), (5, 2**61 - 1))
    EDGE = cfg(6, 3, (1, 2**59), (1, 2**59))        # 4 x 2**59 = 2**61 exactly

    @pytest.mark.parametrize("game, prices", [(OVER, (2**62,) * 4),
                                              (SENTINEL, (2**61, 2**61, 5))],
                             ids=["wraps", "sentinel"])
    def test_both_routes_refuse_a_game_past_the_limit(self, game, prices):
        message = r"completion values must stay within 2\*\*61: \(min\(R, N\) \+ 1\) x max budget"
        budgets = (game.budget_set[-1],) * game.n_users
        with pytest.raises(ValueError, match=message):
            candidate_gaps(game, np.array([prices]), np.array([budgets]))
        with pytest.raises(ValueError, match=message):
            optimal_completion(game, prices, budgets[:1])

    def test_both_routes_are_exact_at_the_limit(self):
        prices, budgets = (1, 1, 1, 2**59, 2**59, 2**59), (1, 1, 2**59, 1, 1, 1)
        ref = scalar_candidate_gaps(self.EDGE, [np.array(prices)], [np.array(budgets)],
                                    completion=brute_force_completion)
        assert ref.max() == 3 * 2**59 - 3   # the last three budgets are rejected and picked
        assert candidate_gaps(self.EDGE, np.array([prices]), np.array([budgets])).tolist() \
            == ref.tolist()
        for i in range(7):
            res = optimal_completion(self.EDGE, prices, budgets[:i])
            assert res.gap == brute_force_completion(self.EDGE, prices, budgets[:i]).gap
            assert gap(self.EDGE, res.full_sequence, prices) == res.gap
