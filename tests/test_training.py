"""Tests for the training loops: MW updates, batched play, gradients, loops."""
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from advalloc import training
from advalloc.game import GameConfig, benchmark_rows, play_out, simulate
from advalloc.completion import candidate_gaps, optimal_completion
from advalloc.gradients import price_gradient
from advalloc.nets import (
    N_STEP_FEATURES,
    AdversaryPolicy,
    AlgorithmPolicy,
    add_grads,
    sample_categorical,
    scale_grads,
)
from advalloc.training import (
    METRICS_HEADER,
    TRAILING_EPISODES,
    BatchResult,
    MwState,
    SnapshotRing,
    TrainConfig,
    algorithm_gradients,
    make_adversary_policy,
    make_algorithm_policy,
    mw_update,
    normalize_payoffs,
    play_batch,
    train_adv_vs_mw,
    train_alg_vs_mw,
    train_joint,
)

SMALL = GameConfig(n_users=4, n_resources=2, price_set=(1, 2, 3), budget_set=(1, 2, 3))


def tiny_tcfg(**kw):
    base = dict(episodes=40, batch=4, seed=9, hidden=8, encoder_width=2,
                latent_dim=4, mw_rollouts=2)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_valid(self):
        t = TrainConfig()
        assert t.batch == 32 and t.xi == 1 and t.snapshot_window == 1000

    @pytest.mark.parametrize("kw", [
        dict(episodes=-1), dict(batch=0), dict(xi=0), dict(lr_alg=0.0),
        dict(lr_adv=-1.0), dict(mw_eta=0.0), dict(snapshot_window=0),
        dict(mw_rollouts=0), dict(clip=0.0), dict(stop_rtol=0.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    @pytest.mark.parametrize("field", ["episodes", "batch", "xi", "snapshot_window",
                                       "mw_rollouts", "latent_dim", "hidden",
                                       "encoder_width"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, np.bool_(True), "2", None])
    def test_integer_fields_reject_non_integers(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: bad})

    def test_integer_fields_take_numpy_integers_as_int(self):
        t = TrainConfig(episodes=np.int64(0), batch=np.int32(3))
        assert type(t.episodes) is int and t.episodes == 0
        assert type(t.batch) is int and t.batch == 3

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, np.bool_(True), "2", None])
    def test_seed_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {bad!r}")):
            TrainConfig(seed=bad)

    @pytest.mark.parametrize("seed", [0, -7, 2**70, np.int64(-3), np.uint32(5)])
    def test_seed_takes_any_integer_as_int(self, seed):
        t = TrainConfig(seed=seed)
        assert type(t.seed) is int and t.seed == int(seed)


class TestMw:
    def test_textbook_update(self):
        state = MwState(weights=np.ones(2), eta=0.01)
        out = mw_update(state, [5.0, 3.0])   # normalizes to (1, 0)
        assert np.allclose(out.weights, [1.01, 1.0])

    def test_zero_eta_is_identity(self):
        state = MwState(weights=np.array([2.0, 1.0]), eta=0.0)
        out = mw_update(state, [9.0, 1.0])
        assert np.array_equal(out.weights, [2.0, 1.0])

    def test_equal_payoffs_keep_distribution(self):
        state = MwState(weights=np.array([3.0, 1.0]), eta=0.5)
        out = mw_update(state, [7.0, 7.0])
        assert np.allclose(out.mixture, state.mixture)

    def test_normalizer_affine_bounds(self):
        r = normalize_payoffs([4.0, 8.0, 6.0])
        assert np.allclose(r, [0.0, 1.0, 0.5])
        assert np.allclose(normalize_payoffs([2.0, 2.0]), [0.5, 0.5])

    def test_weights_stay_positive_and_bounded(self):
        state = MwState.uniform(3, eta=1.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            state = mw_update(state, rng.normal(size=3))
            assert (state.weights > 0).all()
            assert np.isclose(state.mixture.sum(), 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mw_update(MwState.uniform(2), [1.0, 2.0, 3.0])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            MwState(weights=np.array([1.0, 0.0]))


class TestSnapshotRing:
    def test_keeps_most_recent_up_to_capacity(self):
        ring = SnapshotRing(3)
        for ep in (10, 20, 30, 40):
            ring.record(ep, [np.full(2, ep)])
        assert len(ring) == 3
        assert ring.episodes == (20, 30, 40)
        assert ring.latest().episode == 40

    def test_entries_are_copies(self):
        ring = SnapshotRing(2)
        arr = np.zeros(3)
        ring.record(1, [arr])
        arr += 5
        assert np.array_equal(ring.latest().params[0], np.zeros(3))

    def test_sample_uniform_and_seeded(self):
        ring = SnapshotRing(5)
        for ep in range(5):
            ring.record(ep, [np.array([float(ep)])])
        picks = [ring.sample(np.random.default_rng(7)).episode for _ in range(3)]
        assert picks[0] == picks[1] == picks[2]
        seen = {ring.sample(np.random.default_rng(k)).episode for k in range(40)}
        assert len(seen) >= 3

    def test_empty_ring_raises(self):
        ring = SnapshotRing(2)
        with pytest.raises(IndexError):
            ring.latest()
        with pytest.raises(ValueError):
            SnapshotRing(0)


def live_rows(cfg, res, lengths=None):
    """(batch, n_users) mask of the cells whose row can still sell: a unit is
    left before the slot and the slot lies within the row's length."""
    batch, n = res.accepted.shape
    left = cfg.n_resources - (np.cumsum(res.accepted, axis=1) - res.accepted)
    lengths = np.full(batch, n) if lengths is None else np.asarray(lengths)
    return (left > 0) & (np.arange(n) < lengths[:, None])


def any_price_when_settled(cfg, res):
    """The play's prices with the lowest price in every settled cell, which
    cannot sell at any price."""
    return np.where(res.price_idx >= 0, res.prices, cfg.price_set[0])


class TestPlayBatch:
    def test_matches_scalar_simulate(self):
        rng = np.random.default_rng(5)
        policy = AlgorithmPolicy(4, 3, hidden=(8,), encoder_width=2, rng=rng)
        budgets = rng.integers(1, 4, size=(6, 4))
        res = play_batch(SMALL, policy, budgets, sample=False)
        posted = any_price_when_settled(SMALL, res)
        for j in range(6):
            trace = simulate(SMALL, tuple(int(v) for v in budgets[j]),
                             tuple(int(v) for v in posted[j]))
            assert res.welfare[j] == trace.alg_welfare
            assert res.gap[j] == trace.gap
            assert tuple(res.accepted[j]) == trace.accepted
            assert res.benchmark[j] == trace.benchmark_value

    def test_lengths_mask_matches_prefix_simulate(self):
        rng = np.random.default_rng(6)
        policy = AlgorithmPolicy(4, 3, hidden=(8,), encoder_width=2, rng=rng)
        budgets = rng.integers(1, 4, size=(5, 4))
        lengths = np.array([1, 2, 3, 4, 2])
        res = play_batch(SMALL, policy, budgets, lengths=lengths, sample=False)
        posted = any_price_when_settled(SMALL, res)
        for j in range(5):
            k = lengths[j]
            trace = simulate(SMALL, tuple(int(v) for v in budgets[j, :k]),
                             tuple(int(v) for v in posted[j, :k]))
            assert res.gap[j] == trace.gap
            assert not res.accepted[j, k:].any()

    def test_argmax_mode_needs_no_rng(self):
        policy = AlgorithmPolicy(4, 3, hidden=(8,), encoder_width=2)
        res = play_batch(SMALL, policy, [[1, 2, 3, 1]], sample=False)
        assert isinstance(res, BatchResult)
        with pytest.raises(ValueError):
            play_batch(SMALL, policy, [[1, 2, 3, 1]], sample=True)

    def test_sampled_play_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        policy = AlgorithmPolicy(4, 3, hidden=(8,), encoder_width=2, rng=rng)
        budgets = [[2, 2, 3, 1], [1, 1, 1, 1]]
        a = play_batch(SMALL, policy, budgets, np.random.default_rng(3))
        b = play_batch(SMALL, policy, budgets, np.random.default_rng(3))
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.gap, b.gap)

    def test_rejects_bad_shapes(self):
        policy = AlgorithmPolicy(4, 3, hidden=(8,), encoder_width=2)
        with pytest.raises(ValueError):
            play_batch(SMALL, policy, [[1, 2]], sample=False)
        with pytest.raises(ValueError):
            play_batch(SMALL, policy, [[1, 2, 3, 1]], lengths=[0], sample=False)
        with pytest.raises(ValueError):
            play_batch(SMALL, policy, [[1, 2, 3, 1]], lengths=[5], sample=False)

    @pytest.mark.parametrize("play", [play_batch, algorithm_gradients])
    def test_rejects_live_budget_outside_the_set(self, play):
        policy = AlgorithmPolicy(4, 3, hidden=(8,), encoder_width=2)
        with pytest.raises(ValueError, match=r"^budgets entry 99 not in \(1, 2, 3\)$"):
            play(SMALL, policy, [[1, 2, 3, 1], [2, 99, 0, 99]], np.random.default_rng(0))

    @pytest.mark.parametrize("lengths, bad", [([2.7], "2.7"), ([3, 2.7], "2.7"),
                                              ([4, float("nan")], "nan")])
    @pytest.mark.parametrize("play", [play_batch, algorithm_gradients])
    def test_rejects_non_integer_lengths(self, play, lengths, bad):
        policy = AlgorithmPolicy(4, 3, hidden=(8,), encoder_width=2)
        rows = [[1, 2, 3, 1]] * len(lengths)
        with pytest.raises(ValueError, match=rf"^lengths entry {bad} is not an integer$"):
            play(SMALL, policy, rows, np.random.default_rng(0), lengths=lengths)

    @pytest.mark.parametrize("lengths", [[2], [2.0]])
    @pytest.mark.parametrize("play", [
        play_batch, lambda *args, **kw: algorithm_gradients(*args, **kw)[0]],
        ids=["play_batch", "algorithm_gradients"])
    def test_padding_past_lengths_is_free(self, lengths, play):
        policy = AlgorithmPolicy(4, 3, hidden=(8,), encoder_width=2)
        padded = play(SMALL, policy, [[2, 3, 0, 99]], None, lengths=lengths, sample=False)
        clean = play(SMALL, policy, [[2, 3, 1, 1]], None, lengths=[2], sample=False)
        assert padded.welfare.tolist() == clean.welfare.tolist()
        assert padded.benchmark.tolist() == clean.benchmark.tolist() == [5]

    @pytest.mark.parametrize("n_users,batch", [(1, 3), (2, 1), (4, 1), (4, 6), (9, 40)])
    @pytest.mark.parametrize("grads", [False, True])
    def test_one_policy_forward_per_slot(self, monkeypatch, n_users, batch, grads):
        # the perf harness times the pricer by wrapping AlgorithmPolicy.forward
        cfg = GameConfig(n_users=n_users, n_resources=2, price_set=(1, 2, 3),
                         budget_set=(1, 2, 3))
        rng = np.random.default_rng(n_users + batch)
        policy = AlgorithmPolicy(n_users, 3, hidden=(4,), encoder_width=2, rng=rng)
        calls = []
        forward = AlgorithmPolicy.forward

        def counted(self, history, current):
            calls.append(len(current))
            return forward(self, history, current)

        monkeypatch.setattr(AlgorithmPolicy, "forward", counted)
        budgets = rng.integers(1, 4, size=(batch, n_users))
        if grads:
            # the posted prices of every slot feed the generator's signal
            algorithm_gradients(cfg, policy, budgets, rng)
            assert calls == [batch] * n_users
            return
        # a play without gradients forwards a shrinking set of rows that holds
        # every live row, never fewer than 2 of a batch of 2 or more, and stops
        # once no row is live
        live = live_rows(cfg, play_batch(cfg, policy, budgets, rng)).sum(axis=0)
        assert len(calls) == np.count_nonzero(live) >= 1
        assert calls[0] == batch
        for i in range(1, len(calls)):
            assert max(live[i], min(batch, 2)) <= calls[i] <= calls[i - 1]

    @pytest.mark.parametrize("n_users,batch", [(1, 3), (2, 1), (4, 6), (9, 10), (25, 32),
                                               (9, 700), (25, 300)])
    def test_backprop_runs_per_block_of_slots(self, monkeypatch, n_users, batch):
        # the perf harness times the backward pass by wrapping AlgorithmPolicy.backprop:
        # plays never call it, gradient plays call it once per block of slots, each
        # block's tape at most _TAPE_BYTES
        cfg = GameConfig(n_users=n_users, n_resources=2, price_set=(1, 2, 3),
                         budget_set=(1, 2, 3))
        rng = np.random.default_rng(n_users + batch)
        policy = AlgorithmPolicy(n_users, 3, hidden=(4,), encoder_width=2, rng=rng)
        calls = []
        backprop = AlgorithmPolicy.backprop

        def counted(self, tape, grad_probs, **kw):
            calls.append(len(grad_probs))
            return backprop(self, tape, grad_probs, **kw)

        monkeypatch.setattr(AlgorithmPolicy, "backprop", counted)
        budgets = rng.integers(1, 4, size=(batch, n_users))
        play_batch(cfg, policy, budgets, rng)
        assert calls == []
        res, _ = algorithm_gradients(cfg, policy, budgets, rng)
        # slots with a live row form a prefix; the rest have no signal
        played = int(np.count_nonzero(live_rows(cfg, res).any(axis=0)))
        slot_bytes = 8 * batch * sum(policy.mlp.layer_sizes)   # float64 layer inputs and probs
        block = max(1, training._TAPE_BYTES // slot_bytes)
        full, rest = divmod(played, block)
        assert calls == [block] * full + [rest] * (rest > 0)
        assert (len(calls) > 1) == (batch >= 300)   # 2-slot blocks; the rest fit in one

    @pytest.mark.parametrize("built", [(4, 5), (4, 2), (5, 3)])
    def test_rejects_policy_built_for_another_game(self, built):
        policy = AlgorithmPolicy(*built, hidden=(4,), encoder_width=2)
        for play in (lambda: play_batch(SMALL, policy, [[1, 2, 3, 1]], sample=False),
                     lambda: algorithm_gradients(SMALL, policy, [[1, 2, 3, 1]], None,
                                                 sample=False)):
            with pytest.raises(ValueError, match=re.escape(f"{built}, config has (4, 3)")):
                play()


class TestAlgorithmGradients:
    def test_matches_per_slot_oracle(self):
        # block-backpropagated shadow-price signal == the scalar per-slot
        # gradient oracle, back-propagated one slot at a time on the same
        # deterministic trajectory; each slot's features and history are
        # rebuilt by hand from the posted prices, and argmax over them must
        # post the same price
        rng = np.random.default_rng(12)
        policy = AlgorithmPolicy(4, 3, hidden=(6,), encoder_width=2, rng=rng)
        budgets = rng.integers(1, 4, size=(5, 4))
        res, grads = algorithm_gradients(SMALL, policy, budgets, None, sample=False)

        ref = None
        history = np.zeros((5, 3, N_STEP_FEATURES))
        accepts = [[] for _ in range(5)]
        for i in range(4):
            y = [SMALL.n_resources - sum(a) for a in accepts]
            current = np.array([[
                (i + 1) / 4, y[j] / SMALL.n_resources,
                (budgets[j, i - 1] / SMALL.upper_bound) if i else 0.0,
                (res.prices[j, i - 1] / SMALL.price_set[-1]) if i else 0.0,
            ] for j in range(5)])
            probs, tape = policy.forward(history, current)
            prices = np.asarray(SMALL.price_set)[np.argmax(probs, axis=1)]
            assert prices.tolist() == res.prices[:, i].tolist()
            signal = [price_gradient(SMALL, tuple(budgets[j].tolist()), i, accepts[j]).per_action
                      for j in range(5)]
            ref = add_grads(ref, policy.backprop(tape, np.array(signal)))
            for j in range(5):
                took = bool(budgets[j, i] >= prices[j] and y[j] > 0)
                assert took == res.accepted[j, i]
                accepts[j].append(took)
            if i < 3:
                history[:, i] = current
        scale_grads(ref, 1.0 / 5)
        for a, b in zip(grads, ref):
            assert np.array_equal(a, b)

    def test_zero_resources_left_gives_zero_signal(self):
        cfg = GameConfig(n_users=3, n_resources=1, price_set=(1,), budget_set=(1, 2))
        policy = AlgorithmPolicy(3, 1, hidden=(4,), encoder_width=2)
        res, grads = algorithm_gradients(cfg, policy, [[2, 2, 2]], None, sample=False)
        # price 1 accepts the first user; later slots have y=0 and the first
        # slot's signal is b - (2+2)/2 = 0, so every gradient vanishes
        assert res.accepted[0, 0]
        assert all(np.allclose(g, 0) for g in grads)


def test_gradient_play_memory_stays_flat():
    # one N=25, batch-32 gradient play with 64-wide layers back-propagates
    # its slots in blocks, so its traced peak stays near a per-slot play's
    cfg = GameConfig(n_users=25, n_resources=5, price_set=(1, 2, 3, 4, 5),
                     budget_set=(1, 2, 3, 4, 5))
    rng = np.random.default_rng(25)
    policy = AlgorithmPolicy(25, 5, hidden=(64, 64, 64), rng=rng)
    budgets = rng.integers(1, 6, size=(32, 25))
    tracemalloc.start()
    try:
        algorithm_gradients(cfg, policy, budgets, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def same_bits(a, b):
    # array_equal alone treats -0.0 and 0.0 as equal
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def per_slot_gradients(cfg, policy, budgets, lengths, rng, sample):
    """Reference play: per slot, one forward on the raw history, the shadow-price
    signal from that slot's own sort, one backprop and one add_grads."""
    batch, n = budgets.shape
    price_arr = np.asarray(cfg.price_set)
    history = np.zeros((batch, n - 1, N_STEP_FEATURES))
    left = np.full(batch, cfg.n_resources)
    prev_b = prev_p = np.zeros(batch)
    price_idx, grads = [], None
    for i in range(n):
        current = np.stack([np.full(batch, (i + 1) / n), left / cfg.n_resources,
                            prev_b / float(cfg.upper_bound), prev_p / float(price_arr[-1])],
                           axis=1)
        probs, tape = policy.forward(history, current)
        idx = sample_categorical(rng, probs) if sample else np.argmax(probs, axis=1)
        rem = -np.sort(-budgets[:, i:], axis=1)
        width = n - i

        def stat(k):   # k-th largest remaining budget, 0 past the end
            return np.where((k >= 1) & (k <= width),
                            rem[np.arange(batch), np.clip(k - 1, 0, width - 1)], 0)

        b = budgets[:, i]
        signal = np.where((left > 0) & (i < lengths), b - (stat(left) + stat(left + 1)) / 2.0,
                          0.0)
        grads = add_grads(grads, policy.backprop(
            tape, signal[:, None] * (price_arr[None, :] <= b[:, None])))
        price = price_arr[idx]
        left = left - ((b >= price) & (left > 0) & (b > 0))
        if i < n - 1:
            history[:, i] = current
        prev_b, prev_p = b, price
        price_idx.append(idx)
    return np.stack(price_idx, axis=1), scale_grads(grads, 1.0 / batch)


def with_arch(cases, *arch):
    """cases as pytest params with the architecture columns arch appended,
    under the ids of the cases alone."""
    return [pytest.param(*case, *arch, id="-".join(map(str, case))) for case in cases]


def hidden_64(*case):
    """A case with three 64-wide hidden layers."""
    return pytest.param(*case, (64, 64, 64), id="-".join(map(str, case)) + "-h64")


# (n_users, n_resources, batch, padded, sample, encoder width[, hidden]): R >= N,
# padded rows, slots played with no unit left, sampled and argmax play, small
# tape blocks (batch 64) up to the whole play in one block (batch 1); each
# 64-wide N=25 case spans at least two tape blocks
BIT_CASES = with_arch([
    (1, 1, 1, False, False, 3), (1, 3, 10, False, True, 8), (2, 1, 10, True, False, 1),
    (2, 4, 32, False, True, 3), (7, 3, 1, False, True, 16), (7, 9, 10, True, False, 8),
    (7, 1, 32, True, True, 3), (25, 5, 1, True, False, 1), (25, 5, 10, False, True, 8),
    (25, 30, 32, True, True, 3), (25, 2, 64, False, False, 16), (25, 5, 32, False, False, 8),
], (9, 7)) + [
    hidden_64(25, 30, 1, False, True, 64), hidden_64(25, 30, 3, False, False, 16),
    hidden_64(25, 30, 3, True, True, 64), hidden_64(25, 5, 32, False, True, 8),
    hidden_64(25, 30, 32, False, False, 8),
]


@pytest.mark.parametrize("n_users, n_resources, batch, padded, sample, width, hidden",
                         BIT_CASES)
def test_gradients_match_per_slot_backprop_bit_for_bit(n_users, n_resources, batch, padded,
                                                       sample, width, hidden):
    cfg = GameConfig(n_users=n_users, n_resources=n_resources, price_set=(1, 2, 4, 5),
                     budget_set=(1, 2, 3, 4, 5))
    rng = np.random.default_rng(n_users * 1000 + n_resources * 100 + batch)
    policy = AlgorithmPolicy(n_users, 4, hidden=hidden, encoder_width=width, rng=rng)
    if n_users % 2:   # the zero biases of a fresh net, or perturbed ones
        policy.set_params([p + rng.normal(size=p.shape) for p in policy.params])
    budgets = rng.integers(1, 6, size=(batch, n_users))
    lengths = rng.integers(1, n_users + 1, size=batch) if padded else np.full(batch, n_users)
    budgets = np.where(np.arange(n_users) < lengths[:, None], budgets, 0)
    seed = int(rng.integers(1 << 30))
    res, grads = algorithm_gradients(cfg, policy, budgets, np.random.default_rng(seed),
                                     lengths=lengths if padded else None, sample=sample)
    price_idx, ref = per_slot_gradients(cfg, policy, budgets, lengths,
                                        np.random.default_rng(seed), sample)
    assert np.array_equal(res.price_idx, price_idx)
    assert all(same_bits(g, h) for g, h in zip(grads, ref))


# (n_users, n_resources, batch, kind of lengths, sample[, encoder width, hidden]):
# batches of 1, 2, 3, 32 and 40, full rows or random lengths, sampled and argmax
# play, R >= N so that no row sells out, and rows of length 1 beside one
# full-length row, which leave one live row for a play without gradients to
# forward beside a settled one; each 64-wide gradient play spans at least two
# tape blocks
PLAY_CASES = with_arch([
    (7, 3, 1, "full", True), (7, 2, 1, "random", False), (7, 3, 2, "full", False),
    (7, 2, 2, "random", True), (9, 3, 3, "random", True), (9, 2, 3, "full", False),
    (25, 5, 40, "full", True), (25, 4, 40, "random", False), (25, 5, 40, "random", True),
    (7, 7, 40, "full", True), (25, 30, 3, "random", False),
    (9, 9, 5, "one long", False), (25, 25, 40, "one long", True),
], 3, (16, 16)) + [
    hidden_64(25, 30, 1, "full", False, 64), hidden_64(25, 5, 3, "random", True, 64),
    hidden_64(25, 30, 32, "full", True, 3), hidden_64(25, 5, 32, "one long", False, 3),
]


@pytest.mark.parametrize("n_users, n_resources, batch, kind, sample, width, hidden",
                         PLAY_CASES)
def test_plays_match_a_full_batch_play_bit_for_bit(monkeypatch, n_users, n_resources, batch,
                                                   kind, sample, width, hidden):
    # per_slot_gradients forwards every row at every slot; both plays must give
    # its outcomes, its probabilities and prices wherever a row can still sell,
    # its gradients and its rng state, although neither forwards settled rows
    # or back-propagates their slots
    cfg = GameConfig(n_users=n_users, n_resources=n_resources, price_set=(1, 2, 4, 5),
                     budget_set=(1, 2, 3, 4, 5))
    rng = np.random.default_rng(n_users * 1000 + n_resources * 100 + batch)
    policy = AlgorithmPolicy(n_users, 4, hidden=hidden, encoder_width=width, rng=rng)
    policy.set_params([p + rng.normal(size=p.shape) for p in policy.params])
    budgets = rng.integers(1, 6, size=(batch, n_users))
    if kind == "random":
        full = rng.integers(1, n_users + 1, size=batch)
    else:
        full = np.full(batch, n_users) if kind == "full" else np.ones(batch, dtype=np.int64)
        full[batch // 2] = n_users
    lengths = None if kind == "full" else full
    budgets = np.where(np.arange(n_users) < full[:, None], budgets, 0)
    seed = int(rng.integers(1 << 30))

    seen = []   # the probabilities of each pricer forward
    forward = AlgorithmPolicy.forward

    def recorded(self, history, current):
        probs, tape = forward(self, history, current)
        seen.append(probs.copy())
        return probs, tape

    monkeypatch.setattr(AlgorithmPolicy, "forward", recorded)
    ref_rng = np.random.default_rng(seed)
    price_idx, ref_grads = per_slot_gradients(cfg, policy, budgets, full, ref_rng, sample)
    ref_probs = seen[:]
    prices = np.asarray(cfg.price_set)[price_idx]
    welfare, accepted = play_out(budgets, n_resources, lambda i, left: prices[:, i])
    gap = benchmark_rows(budgets, n_resources) - welfare

    for want_grads in (False, True):
        seen.clear()
        play_rng = np.random.default_rng(seed)
        if want_grads:
            res, grads = algorithm_gradients(cfg, policy, budgets, play_rng, lengths=lengths,
                                             sample=sample)
            assert np.array_equal(res.price_idx, price_idx)
            assert all(same_bits(g, h) for g, h in zip(grads, ref_grads))
            assert all(same_bits(p, q) for p, q in zip(seen, ref_probs))
        else:
            res = play_batch(cfg, policy, budgets, play_rng, lengths=lengths, sample=sample)
        live = live_rows(cfg, res, full)
        assert len(seen) == (n_users if want_grads else np.count_nonzero(live.any(axis=0)))
        for i, probs in enumerate(seen):   # each live row's probabilities, bit for bit
            rows = {row.tobytes() for row in probs}
            assert all(ref_probs[i][j].tobytes() in rows for j in np.flatnonzero(live[:, i]))
        assert np.array_equal(res.price_idx[live], price_idx[live])
        assert np.array_equal(res.prices[live], prices[live])
        assert np.array_equal(res.accepted, accepted)
        assert np.array_equal(res.welfare, welfare)
        assert np.array_equal(res.gap, gap)
        assert play_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("sample", [False, True])
def test_settled_cells_carry_no_price(sample):
    # a settled cell (no unit left, or past the row's end) is marked, and only
    # in a play without gradients; its price 0 is outside every price set
    cfg = GameConfig(n_users=9, n_resources=2, price_set=(1, 2, 4, 5), budget_set=(1, 2, 3, 4, 5))
    rng = np.random.default_rng(31)
    policy = AlgorithmPolicy(9, 4, hidden=(8,), encoder_width=2, rng=rng)
    policy.set_params([p + rng.normal(size=p.shape) for p in policy.params])
    budgets = rng.integers(1, 6, size=(30, 9))
    for lengths in (None, rng.integers(1, 10, size=30)):
        res = play_batch(cfg, policy, budgets, np.random.default_rng(1), lengths=lengths,
                         sample=sample)
        settled = ~live_rows(cfg, res, lengths)
        assert settled.any() and not settled.all()
        assert np.array_equal(res.price_idx == -1, settled)
        assert np.array_equal(res.prices == 0, settled)
        assert np.isin(res.price_idx[~settled], range(cfg.n_prices)).all()
        assert np.array_equal(res.prices[~settled],
                              np.asarray(cfg.price_set)[res.price_idx[~settled]])
        res, _ = algorithm_gradients(cfg, policy, budgets, np.random.default_rng(1),
                                     lengths=lengths, sample=sample)
        assert np.isin(res.price_idx, range(cfg.n_prices)).all()
        assert np.array_equal(res.prices, np.asarray(cfg.price_set)[res.price_idx])
    res = play_batch(cfg, policy, budgets, np.random.default_rng(1), sample=sample)
    with pytest.raises(ValueError, match="^prices entry 0 not in"):
        candidate_gaps(cfg, res.prices, budgets)


def test_play_without_gradients_memory_stays_small():
    # an 81-row, N=25 argmax play with 64-wide layers keeps no tapes and only
    # ever copies the history of the rows it still forwards
    cfg = GameConfig(n_users=25, n_resources=5, price_set=(1, 2, 3, 4, 5),
                     budget_set=(1, 2, 3, 4, 5))
    rng = np.random.default_rng(25)
    policy = AlgorithmPolicy(25, 5, hidden=(64, 64, 64), rng=rng)
    budgets = rng.integers(1, 6, size=(81, 25))
    tracemalloc.start()
    try:
        play_batch(cfg, policy, budgets, sample=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7e6


class TestLoops:
    def test_zero_episodes_returns_fresh_seeded_policies(self):
        res = train_joint(SMALL, tiny_tcfg(episodes=0))
        fresh_rng = np.random.default_rng(9)
        alg = make_algorithm_policy(SMALL, tiny_tcfg(episodes=0), fresh_rng)
        adv = make_adversary_policy(SMALL, tiny_tcfg(episodes=0), fresh_rng)
        for a, b in zip(res.algorithm.params, alg.params):
            assert np.array_equal(a, b)
        for a, b in zip(res.adversary.params, adv.params):
            assert np.array_equal(a, b)
        assert res.metrics == [] and res.episodes == 0 and len(res.alg_ring) == 0

    def test_joint_deterministic_under_seed(self):
        a = train_joint(SMALL, tiny_tcfg())
        b = train_joint(SMALL, tiny_tcfg())
        assert a.metrics == b.metrics
        for x, y in zip(a.algorithm.params, b.algorithm.params):
            assert np.array_equal(x, y)
        for x, y in zip(a.adversary.params, b.adversary.params):
            assert np.array_equal(x, y)

    def test_joint_bookkeeping(self):
        res = train_joint(SMALL, tiny_tcfg(episodes=20, batch=4))
        assert res.iterations == 5 and res.episodes == 20
        assert len(res.metrics) == 5
        assert res.alg_ring.episodes == (4, 8, 12, 16, 20)
        assert res.adv_ring.episodes == (4, 8, 12, 16, 20)
        assert len(METRICS_HEADER) == len(res.metrics[0]) == 4

    def test_joint_respects_xi(self):
        one = train_joint(SMALL, tiny_tcfg(episodes=8, xi=1))
        two = train_joint(SMALL, tiny_tcfg(episodes=8, xi=2))
        same = all(np.array_equal(x, y) for x, y in
                   zip(one.adversary.params, two.adversary.params))
        assert not same

    def test_alg_vs_mw_single_strategy_degenerate(self):
        res = train_alg_vs_mw(SMALL, tiny_tcfg(), [(1, 2, 3, 1)])
        assert np.allclose(res.mw.mixture, [1.0])
        assert res.adversary is None and res.adv_ring is None
        assert len(res.alg_ring) == res.iterations

    def test_alg_vs_mw_prefix_strategies(self):
        seq = (1, 2, 3, 3)
        strategies = [seq[:j] for j in range(1, 5)]
        res = train_alg_vs_mw(SMALL, tiny_tcfg(), strategies)
        assert res.mw.weights.shape == (4,)
        assert (res.mw.weights > 0).all()
        assert res.episodes == 40

    def test_adv_vs_mw_runs_and_tracks(self):
        experts = [(1, 1, 2, 2), (1, 2, 2, 3)]
        res = train_adv_vs_mw(SMALL, tiny_tcfg(), experts)
        assert res.algorithm is None and res.alg_ring is None
        assert len(res.adv_ring) == res.iterations
        assert np.isclose(res.mw.mixture.sum(), 1.0)
        assert all(len(row) == 4 for row in res.metrics)

    @pytest.mark.parametrize("n_budgets", [2, 5])
    @pytest.mark.parametrize("train", [
        lambda adversary: train_joint(SMALL, tiny_tcfg(), adversary=adversary),
        lambda adversary: train_adv_vs_mw(SMALL, tiny_tcfg(), [(1, 1, 2, 2)],
                                          adversary=adversary),
    ], ids=["joint", "adv-vs-mw"])
    def test_rejects_adversary_built_for_another_game(self, train, n_budgets):
        adversary = AdversaryPolicy(4, n_budgets, latent_dim=4, hidden=(8,))
        with pytest.raises(ValueError, match=re.escape(
                f"adversary was built for (n_users, n_budgets) = (4, {n_budgets}), "
                "config has (4, 3)")):
            train(adversary)

    def test_adv_vs_mw_rejects_partial_prices(self):
        with pytest.raises(ValueError):
            train_adv_vs_mw(SMALL, tiny_tcfg(), [(1, 2)])

    def test_empty_strategy_lists_rejected(self):
        with pytest.raises(ValueError, match="need at least one pure strategy"):
            train_alg_vs_mw(SMALL, tiny_tcfg(), [])
        with pytest.raises(ValueError, match="need at least one pure strategy"):
            train_adv_vs_mw(SMALL, tiny_tcfg(), [])

    def test_early_stop_on_target(self):
        # target chosen so the very first full window triggers the stop
        tcfg = tiny_tcfg(episodes=10_000, batch=500, target_gap=2.0, stop_rtol=5.0)
        res = train_alg_vs_mw(SMALL, tcfg, [(1, 2, 3, 1)])
        assert res.stopped_early
        assert res.episodes == 500
        assert len(res.metrics[0]) == 4

    def test_trailing_window_bounded(self):
        tcfg = tiny_tcfg(episodes=12, batch=4)
        res = train_joint(SMALL, tcfg)
        for it, mean_gap, mean_welfare, trailing in res.metrics:
            assert trailing >= 0.0
            assert mean_gap >= 0.0
        assert TRAILING_EPISODES == 500


def _fingerprint(res):
    """sha256 over metrics, counters, final params, MW weights and rings."""
    h = hashlib.sha256()
    h.update(repr((res.metrics, res.episodes, res.iterations, res.stopped_early)).encode())
    for net in (res.algorithm, res.adversary):
        if net is not None:
            for p in net.params:
                h.update(p.tobytes())
    if res.mw is not None:
        h.update(res.mw.weights.tobytes())
    for ring in (res.alg_ring, res.adv_ring):
        if ring is not None:
            h.update(repr(ring.episodes).encode())
            for entry in ring.entries:
                for p in entry.params:
                    h.update(p.tobytes())
    return h.hexdigest()


# Fingerprints computed when each loop still carried its own copy of the
# counter, trailing-window, metrics, hook, ring and early-stop code; the
# shared loop must reproduce them bit for bit.
PINNED_LOOPS = {
    "joint": (
        lambda hook: train_joint(SMALL, tiny_tcfg(xi=2, clip=1.0, snapshot_window=3),
                                 metrics_hook=hook),
        "9fc5b2064c68d526bc2677bd5eae4c73b03e479c617425c16512127f22ba70a8"),
    "alg-vs-mw": (
        lambda hook: train_alg_vs_mw(SMALL, tiny_tcfg(clip=1.0, snapshot_window=3),
                                     [(1, 2, 3, 1), (3, 3), (1,)], metrics_hook=hook),
        "9e98b2a5df1007d9a02f4439ac2879420e945df6fa9b6d14bf79ebe2dc1539de"),
    "adv-vs-mw": (
        lambda hook: train_adv_vs_mw(SMALL, tiny_tcfg(snapshot_window=3),
                                     [(1, 1, 2, 2), (1, 2, 2, 3), (3, 3, 3, 3)],
                                     metrics_hook=hook),
        "4c051d97f44b02d42e483c3dac4ffd18f384f0b06212349a93ffa9e52a431bb1"),
    "joint-early-stop": (
        lambda hook: train_joint(SMALL, tiny_tcfg(episodes=10_000, batch=125,
                                                  target_gap=2.0, stop_rtol=5.0),
                                 metrics_hook=hook),
        "c2696fec626e619184b23bf977f8eaa577f86d9e1b360706adba2ba7c0a8a8ec"),
}
# Fingerprints at N=25 computed while a gradient play still back-propagated
# blocks of at most 64 (row, slot) cells, so 5 blocks of a batch-10 play and
# 13 of a batch-32 one; the alg-vs-mw rollouts shrink their forwarded rows.
PINNED_LOOPS.update({
    "alg-vs-mw-n25": (
        lambda hook: train_alg_vs_mw(STAIRCASE, tiny_tcfg(episodes=30, batch=10,
                                                          snapshot_window=2),
                                     [STAIRCASE_ROW[:i + 1] for i in range(25)],
                                     metrics_hook=hook),
        "59a87fb9c85888ad41338aafd81d903011a0d5995ad1c88776e72c52310735d2"),
    "joint-n25": (
        lambda hook: train_joint(STAIRCASE, tiny_tcfg(episodes=64, batch=32,
                                                      snapshot_window=2),
                                 metrics_hook=hook),
        "6a157204b0af691ae30319b784f807787a2337af46eb2ccb06ebd4b5fd5042d5"),
})


@pytest.mark.parametrize("name", list(PINNED_LOOPS))
def test_loops_match_pinned_fingerprints(name):
    run, expected = PINNED_LOOPS[name]
    hooked = []
    res = run(hooked.append)
    assert _fingerprint(res) == expected
    assert hooked == res.metrics


def per_row_signal(cfg, price_rows, budget_rows):
    """The adversary signal as one optimal_completion call per (row, slot, candidate)."""
    return np.array([[[optimal_completion(cfg, tuple(p.tolist()), tuple(b[:i].tolist()) + (k,)).gap
                       for k in cfg.budget_set]
                      for i in range(cfg.n_users)]
                     for p, b in zip(price_rows, budget_rows)], dtype=np.int64)


STAIRCASE = GameConfig(n_users=25, n_resources=5, price_set=(1, 2, 3, 4, 5),
                       budget_set=(1, 2, 3, 4, 5))
STAIRCASE_ROW = tuple(v for v in range(1, 6) for _ in range(5))
SEVEN = GameConfig(n_users=7, n_resources=3, price_set=(1, 2, 3), budget_set=(1, 2, 3))
SIGNAL_RUNS = {
    "joint-n25": lambda: train_joint(STAIRCASE, tiny_tcfg(episodes=24, batch=8, xi=2)),
    "adv-vs-mw-n7": lambda: train_adv_vs_mw(
        SEVEN, tiny_tcfg(episodes=32, batch=8, snapshot_window=2),
        [(1, 1, 2, 2, 3, 3, 3), (2, 2, 2, 2, 2, 2, 2), (1, 2, 3, 1, 2, 3, 1)]),
}


@pytest.mark.parametrize("name", list(SIGNAL_RUNS))
def test_batched_signal_trains_like_the_per_row_loop(name, monkeypatch):
    batched = SIGNAL_RUNS[name]()
    calls = []
    monkeypatch.setattr(training, "candidate_gaps",
                        lambda *rows: calls.append(1) or per_row_signal(*rows))
    looped = SIGNAL_RUNS[name]()
    assert len(calls) == looped.iterations > 1
    assert batched.metrics == looped.metrics
    assert _fingerprint(batched) == _fingerprint(looped)


def test_overflow_inside_an_iteration_stops_training():
    # the first step leaves finite but huge params; the second forward overflows
    tcfg = tiny_tcfg(lr_alg=1e300, lr_adv=1e300)
    hooked = []
    with pytest.raises(ValueError, match=r"^training diverged at iteration 2: overflow "):
        train_joint(SMALL, tcfg, metrics_hook=hooked.append)
    assert [row[0] for row in hooked] == [1]


# (mode, run, the _ascend call that poisons its net, the net it names)
POISONED_RUNS = [
    ("joint", lambda hook: train_joint(SMALL, tiny_tcfg(), metrics_hook=hook),
     3, "adversary"),
    ("alg-vs-mw", lambda hook: train_alg_vs_mw(SMALL, tiny_tcfg(), [(1, 2, 3, 1)],
                                               metrics_hook=hook), 2, "algorithm"),
    ("adv-vs-mw", lambda hook: train_adv_vs_mw(SMALL, tiny_tcfg(), [(1, 1, 2, 2)],
                                               metrics_hook=hook), 2, "adversary"),
]


@pytest.mark.parametrize("mode, run, poisoned_call, kind", POISONED_RUNS,
                         ids=[r[0] for r in POISONED_RUNS])
def test_non_finite_params_stop_training(mode, run, poisoned_call, kind, monkeypatch):
    calls = []
    ascend = training._ascend

    def poisoning_ascend(net, grads, tcfg, lr):
        ascend(net, grads, tcfg, lr)
        calls.append(net)
        if len(calls) == poisoned_call:
            net.params[-1].flat[0] = np.nan

    monkeypatch.setattr(training, "_ascend", poisoning_ascend)
    hooked = []
    with pytest.raises(ValueError, match=f"^{kind} net parameters became non-finite "
                                         "at iteration 2$"):
        run(hooked.append)
    assert [row[0] for row in hooked] == [1]
