"""Tests for the training loops: MW updates, batched play, gradients, loops."""
import hashlib
import re

import numpy as np
import pytest

from advalloc.game import GameConfig, simulate
from advalloc.gradients import price_gradient
from advalloc.nets import N_STEP_FEATURES, AlgorithmPolicy, add_grads, scale_grads
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


class TestPlayBatch:
    def test_matches_scalar_simulate(self):
        rng = np.random.default_rng(5)
        policy = AlgorithmPolicy(4, 3, hidden=(8,), encoder_width=2, rng=rng)
        budgets = rng.integers(1, 4, size=(6, 4))
        res = play_batch(SMALL, policy, budgets, sample=False)
        for j in range(6):
            trace = simulate(SMALL, tuple(int(v) for v in budgets[j]),
                             tuple(int(v) for v in res.prices[j]))
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
        for j in range(5):
            k = lengths[j]
            trace = simulate(SMALL, tuple(int(v) for v in budgets[j, :k]),
                             tuple(int(v) for v in res.prices[j, :k]))
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
        # vectorized shadow-price signal == scalar per-slot gradient oracle,
        # accumulated through backprop on the same deterministic trajectory;
        # each slot's features and history are rebuilt by hand from the
        # posted prices, and argmax over them must post the same price
        rng = np.random.default_rng(12)
        policy = AlgorithmPolicy(4, 3, hidden=(6,), encoder_width=2, rng=rng)
        budgets = rng.integers(1, 4, size=(5, 4))
        res, grads = algorithm_gradients(SMALL, policy, budgets, None, sample=False)

        ref = None
        for j in range(5):
            bj = tuple(int(v) for v in budgets[j])
            history = np.zeros((1, 3, N_STEP_FEATURES))
            accepts = []
            y = SMALL.n_resources
            for i in range(4):
                current = np.array([[
                    (i + 1) / 4, y / SMALL.n_resources,
                    (bj[i - 1] / SMALL.upper_bound) if i else 0.0,
                    (res.prices[j, i - 1] / SMALL.price_set[-1]) if i else 0.0,
                ]])
                probs, tape = policy.forward(history, current)
                price = SMALL.price_set[int(np.argmax(probs[0]))]
                assert price == res.prices[j, i]
                signal = price_gradient(SMALL, bj, i, accepts)
                ref = add_grads(ref, policy.backprop(tape, np.array([signal.per_action])))
                took = bool(bj[i] >= price and y > 0)
                assert took == res.accepted[j, i]
                accepts.append(took)
                y -= took
                if i < 3:
                    history[0, i] = current[0]
        scale_grads(ref, 1.0 / 5)
        for a, b in zip(grads, ref):
            assert np.allclose(a, b, atol=1e-12)

    def test_zero_resources_left_gives_zero_signal(self):
        cfg = GameConfig(n_users=3, n_resources=1, price_set=(1,), budget_set=(1, 2))
        policy = AlgorithmPolicy(3, 1, hidden=(4,), encoder_width=2)
        res, grads = algorithm_gradients(cfg, policy, [[2, 2, 2]], None, sample=False)
        # price 1 accepts the first user; later slots have y=0 and the first
        # slot's signal is b - (2+2)/2 = 0, so every gradient vanishes
        assert res.accepted[0, 0]
        assert all(np.allclose(g, 0) for g in grads)


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

    def test_adv_vs_mw_rejects_partial_prices(self):
        with pytest.raises(ValueError):
            train_adv_vs_mw(SMALL, tiny_tcfg(), [(1, 2)])

    def test_empty_strategy_lists_rejected(self):
        with pytest.raises(ValueError):
            train_alg_vs_mw(SMALL, tiny_tcfg(), [])
        with pytest.raises(ValueError):
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


@pytest.mark.parametrize("name", list(PINNED_LOOPS))
def test_loops_match_pinned_fingerprints(name):
    run, expected = PINNED_LOOPS[name]
    hooked = []
    res = run(hooked.append)
    assert _fingerprint(res) == expected
    assert hooked == res.metrics
