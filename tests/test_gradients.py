"""Shadow-price and probability-gradient signals."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advalloc.completion import brute_force_completion, candidate_gaps
from advalloc.game import GameConfig
from advalloc.gradients import DualInfo, price_gradient, shadow_price


def cfg(n, r, prices, budgets):
    return GameConfig(n_users=n, n_resources=r, price_set=prices, budget_set=budgets)


class TestShadowPrice:
    def test_midpoint_of_top_two(self):
        c = cfg(4, 2, (1, 2, 3), (1, 3))
        d = shadow_price(c, (1, 3, 3, 3), 0, ())
        assert d == DualInfo(shadow_price=3.0, available=2)

    def test_padding_beyond_list(self):
        c = cfg(1, 2, (1,), (5,))
        d = shadow_price(c, (5,), 0, ())
        # sorted remaining [5]; 2nd and 3rd order statistics are both 0
        assert d.shadow_price == 0.0

    def test_plain_average(self):
        c = cfg(2, 1, (1,), (2, 4))
        d = shadow_price(c, (4, 2), 0, ())
        assert d.shadow_price == 3.0

    def test_exhausted_returns_upper_bound(self):
        c = cfg(3, 1, (1,), (2, 4))
        d = shadow_price(c, (2, 4, 4), 1, (True,))
        assert d.shadow_price == 4.0
        assert d.available == 0

    def test_slot_and_accepts_validation(self):
        c = cfg(2, 1, (1,), (1, 2))
        with pytest.raises(ValueError):
            shadow_price(c, (1, 2), 2, (True, False))
        with pytest.raises(ValueError):
            shadow_price(c, (1, 2), 1, ())
        with pytest.raises(ValueError):
            shadow_price(c, (1, 2), 1, (True, True))


class TestPriceGradient:
    def test_negative_signal_below_shadow(self):
        c = cfg(4, 2, (1, 2, 3), (1, 3))
        g = price_gradient(c, (1, 3, 3, 3), 0, ())
        # budget 1, shadow price 3: accepting costs 2 at any price <= 1
        assert g.per_action == (-2.0, 0.0, 0.0)
        assert g.slot == 0

    def test_zero_vector_when_exhausted(self):
        c = cfg(3, 1, (1, 2), (2, 4))
        g = price_gradient(c, (2, 4, 4), 1, (True,))
        assert g.per_action == (0.0, 0.0)

    def test_abundant_full_budget_signal(self):
        c = cfg(2, 4, (1, 2, 3, 4, 5), (1, 5))
        g = price_gradient(c, (5, 1), 0, ())
        # y exceeds remaining length: shadow price 0, signal = budget on
        # every price the user affords
        assert g.per_action == (5.0, 5.0, 5.0, 5.0, 5.0)

    def test_zero_above_budget(self):
        c = cfg(2, 1, (1, 2, 3), (2, 3))
        g = price_gradient(c, (2, 3), 0, ())
        assert g.per_action[2] == 0.0


class TestCandidateGaps:
    """Examples of one slot of candidate_gaps: the best completion gap of
    each candidate budget there, after the sampled budgets before it."""

    def slot_gaps(self, c, prices, budgets, slot):
        out = candidate_gaps(c, np.array([prices]), np.array([budgets]))
        return tuple(out[0, slot].tolist())

    def test_single_slot(self):
        c = cfg(1, 1, (2,), (1, 2, 3))
        # benchmark b, welfare b if b >= price
        assert self.slot_gaps(c, (2,), (1,), 0) == (1, 0, 0)

    def test_two_slot_example(self):
        c = cfg(2, 1, (1, 2), (1, 2))
        assert self.slot_gaps(c, (1, 2), (1, 2), 0) == (1, 0)

    def test_matches_brute_force_fixed_slot(self):
        c = cfg(4, 2, (1, 2, 3), (1, 2, 3))
        prices = (2, 1, 3, 2)
        sampled = (3, 1, 2, 1)
        slot = 1
        gaps = self.slot_gaps(c, prices, sampled, slot)
        for idx, b in enumerate(c.budget_set):
            ref = brute_force_completion(c, prices, sampled[:slot] + (b,))
            assert gaps[idx] == ref.gap


@st.composite
def grad_instance(draw):
    m = draw(st.integers(1, 3))
    budgets = tuple(sorted(draw(st.lists(st.integers(1, 6), min_size=m, max_size=m,
                                         unique=True))))
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 3))
    pset = tuple(sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3,
                                      unique=True))))
    c = GameConfig(n_users=n, n_resources=r, price_set=pset, budget_set=budgets)
    bs = tuple(draw(st.sampled_from(budgets)) for _ in range(n))
    ps = tuple(draw(st.sampled_from(pset)) for _ in range(n))
    slot = draw(st.integers(0, n - 1))
    max_acc = min(slot, r)
    n_acc = draw(st.integers(0, max_acc))
    accepts = [True] * n_acc + [False] * (slot - n_acc)
    return c, bs, ps, slot, tuple(accepts)


class TestProperties:
    @given(grad_instance())
    @settings(max_examples=200, deadline=None)
    def test_shadow_price_brackets_marginal_benchmark(self, inst):
        c, bs, _, slot, accepts = inst
        d = shadow_price(c, bs, slot, accepts)
        if d.available == 0:
            return
        remaining = sorted(bs[slot:], reverse=True)

        def stat(k):
            return remaining[k - 1] if k <= len(remaining) else 0

        def top(k):
            return sum(remaining[: min(k, len(remaining))])

        marginal = top(d.available + 1) - top(d.available)
        assert stat(d.available + 1) <= marginal <= stat(d.available)
        assert stat(d.available + 1) <= d.shadow_price <= stat(d.available)

    @given(grad_instance())
    @settings(max_examples=100, deadline=None)
    def test_price_gradient_support(self, inst):
        c, bs, _, slot, accepts = inst
        g = price_gradient(c, bs, slot, accepts)
        for price, val in zip(c.price_set, g.per_action):
            if price > bs[slot]:
                assert val == 0.0

    @given(grad_instance())
    @settings(max_examples=100, deadline=None)
    def test_candidate_gaps_row_matches_brute_force(self, inst):
        c, bs, ps, slot, _ = inst
        out = candidate_gaps(c, np.array([ps]), np.array([bs]))
        for idx, b in enumerate(c.budget_set):
            ref = brute_force_completion(c, ps, bs[:slot] + (b,))
            assert out[0, slot, idx] == ref.gap
