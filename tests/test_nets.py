"""Gradient, sampling, and bookkeeping tests for the numpy policy networks."""
import re

import numpy as np
import pytest

from advalloc.nets import (
    N_STEP_FEATURES,
    AdversaryPolicy,
    AlgorithmPolicy,
    SoftmaxMlp,
    StaleTapeError,
    add_grads,
    clip_grads,
    glorot_uniform,
    leaky,
    sample_categorical,
    scale_grads,
    softmax_heads,
)

FD_STEP = 1e-5
FD_TOL = 1e-4


def fd_worst_error(params, forward, analytic, grad_on_probs, step=FD_STEP):
    """Max relative error between backprop and central finite differences,
    checked at every parameter coordinate."""

    def objective():
        return float((grad_on_probs * forward()).sum())

    worst = 0.0
    for p, a in zip(params, analytic):
        if p.size == 0:
            continue
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            plus = objective()
            p[idx] = orig - step
            minus = objective()
            p[idx] = orig
            fd = (plus - minus) / (2 * step)
            err = abs(a[idx] - fd) / max(abs(a[idx]), abs(fd), 1e-3)
            worst = max(worst, err)
    return worst


class TestSoftmaxHeads:
    def test_each_head_normalizes(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 8), scale=3.0)
        p = softmax_heads(z, (4, 4))
        assert np.allclose(p[:, :4].sum(axis=1), 1.0)
        assert np.allclose(p[:, 4:].sum(axis=1), 1.0)
        assert (p > 0).all()

    @pytest.mark.parametrize("heads", [(3, 4), (2, 3, 1)])
    def test_unequal_heads_rejected(self, heads):
        message = re.escape(f"softmax heads must share one size, got {heads}")
        with pytest.raises(ValueError, match=message):
            SoftmaxMlp((4, sum(heads)), heads)
        with pytest.raises(ValueError, match="one size"):
            softmax_heads(np.zeros((2, sum(heads))), heads)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax_heads(z, (3,)), softmax_heads(z + 100.0, (3,)))

    def test_large_logits_stable(self):
        z = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        p = softmax_heads(z, (2,))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)
        assert p[1, 0] == pytest.approx(0.0)


class TestSampleCategorical:
    def test_point_mass_always_drawn(self):
        probs = np.tile([0.0, 1.0, 0.0], (200, 1))
        draws = sample_categorical(np.random.default_rng(3), probs)
        assert (draws == 1).all()

    def test_zero_probability_never_drawn(self):
        probs = np.tile([0.5, 0.0, 0.5], (5000, 1))
        draws = sample_categorical(np.random.default_rng(4), probs)
        assert set(np.unique(draws)) <= {0, 2}
        frac = np.mean(draws == 0)
        assert 0.45 < frac < 0.55

    def test_uniform_at_zero_lands_on_first_nonzero(self):
        class ZeroRng:
            def random(self, size=None):
                return np.zeros(size)

        draws = sample_categorical(ZeroRng(), np.array([[0.0, 0.0, 0.3, 0.7]]))
        assert draws.tolist() == [2]

    def test_multi_axis_shapes(self):
        probs = np.full((6, 3, 2), 0.5)
        draws = sample_categorical(np.random.default_rng(5), probs)
        assert draws.shape == (6, 3)
        assert draws.min() >= 0 and draws.max() <= 1

    def test_unnormalized_rows_handled(self):
        probs = np.tile([2.0, 2.0], (4000, 1))
        draws = sample_categorical(np.random.default_rng(6), probs)
        assert 0.45 < np.mean(draws) < 0.55


class TestInit:
    def test_glorot_bounds(self):
        rng = np.random.default_rng(1)
        w = glorot_uniform(rng, 10, 30, (10, 30))
        bound = np.sqrt(6.0 / 40)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound

    def test_zero_init_gives_uniform_heads(self):
        mlp = SoftmaxMlp((4, 5, 8), (4, 4))
        probs, _ = mlp.forward(np.ones((3, 4)))
        assert np.allclose(probs, 0.25)

    def test_biases_start_at_zero(self):
        mlp = SoftmaxMlp((4, 5, 3), (3,), rng=np.random.default_rng(2))
        assert all(np.all(b == 0) for b in mlp.biases)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            SoftmaxMlp((4,), (4,))
        with pytest.raises(ValueError):
            SoftmaxMlp((4, 6), (2, 3))
        with pytest.raises(ValueError):
            SoftmaxMlp((4, 0), (0,))


class TestMlpGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(25):
            depth = rng.integers(1, 4)
            sizes = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
            n_heads = int(rng.integers(1, 4))
            sizes[-1] *= n_heads
            mlp = SoftmaxMlp(sizes, (sizes[-1] // n_heads,) * n_heads, rng=rng)
            batch = int(rng.integers(1, 4))
            x = rng.normal(size=(batch, sizes[0]))
            g = rng.normal(size=(batch, sizes[-1]))
            _, tape = mlp.forward(x)
            grads = mlp.backprop(tape, g)
            worst = max(worst, fd_worst_error(
                mlp.params, lambda: mlp.forward(x)[0], grads, g))
        assert worst <= FD_TOL

    def test_batch_is_sum_of_rows(self):
        rng = np.random.default_rng(13)
        mlp = SoftmaxMlp((4, 5, 3), (3,), rng=rng)
        x = rng.normal(size=(3, 4))
        g = rng.normal(size=(3, 3))
        _, tape = mlp.forward(x)
        batched = mlp.backprop(tape, g)
        summed = None
        for b in range(3):
            _, t = mlp.forward(x[b:b + 1])
            summed = add_grads(summed, mlp.backprop(t, g[b:b + 1]))
        for gb, gs in zip(batched, summed):
            assert np.allclose(gb, gs, atol=1e-12)


class TestPolicyGradients:
    def test_algorithm_policy_matches_fd(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(8):
            n_users = int(rng.integers(1, 4))
            n_prices = int(rng.integers(2, 4))
            pol = AlgorithmPolicy(n_users, n_prices, hidden=(6, 5), rng=rng)
            batch = int(rng.integers(1, 4))
            x = rng.normal(size=(batch, N_STEP_FEATURES))
            g = rng.normal(size=(batch, n_prices))
            grads = pol.backprop(x, g)
            worst = max(worst, fd_worst_error(pol.params, lambda: pol.forward(x), grads, g))
        assert worst <= FD_TOL

    def test_adversary_policy_matches_fd(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(8):
            n_users = int(rng.integers(1, 4))
            n_budgets = int(rng.integers(2, 4))
            pol = AdversaryPolicy(n_users, n_budgets, latent_dim=3,
                                  hidden=(6, 6), rng=rng)
            batch = int(rng.integers(1, 4))
            z = rng.normal(size=(batch, 3))
            g = rng.normal(size=(batch, n_users, n_budgets))
            _, tape = pol.forward(z)
            grads = pol.backprop(tape, g)
            worst = max(worst, fd_worst_error(
                pol.params,
                lambda: pol.forward(z)[0].reshape(batch, n_users * n_budgets),
                grads, g.reshape(batch, n_users * n_budgets)))
        assert worst <= FD_TOL

    def test_step_increases_objective(self):
        rng = np.random.default_rng(23)
        pol = AlgorithmPolicy(3, 3, hidden=(8,), rng=rng)
        x = rng.normal(size=(2, N_STEP_FEATURES))
        g = rng.normal(size=(2, 3))
        before = (g * pol.forward(x)).sum()
        pol.step(pol.backprop(x, g), lr=1e-3)
        after = (g * pol.forward(x)).sum()
        assert after > before


class TestTapes:
    def test_step_invalidates_tape(self):
        rng = np.random.default_rng(31)
        pol = AdversaryPolicy(2, 2, latent_dim=3, hidden=(4,), rng=rng)
        _, tape = pol.forward(rng.normal(size=(1, 3)))
        pol.step(pol.zero_grads(), lr=0.1)
        with pytest.raises(StaleTapeError):
            pol.backprop(tape, np.zeros((1, 2, 2)))

    def test_set_params_invalidates_tape(self):
        rng = np.random.default_rng(32)
        pol = AdversaryPolicy(2, 2, latent_dim=3, hidden=(4,), rng=rng)
        z = rng.normal(size=(1, 3))
        _, tape = pol.forward(z)
        pol.set_params(pol.get_params())
        with pytest.raises(StaleTapeError):
            pol.backprop(tape, np.zeros((1, 2, 2)))

    def test_inner_mlp_tape_also_invalidated(self):
        rng = np.random.default_rng(33)
        pol = AlgorithmPolicy(2, 2, hidden=(4,), rng=rng)
        _, tape = pol.mlp.forward(rng.normal(size=(1, N_STEP_FEATURES)))
        pol.set_params(pol.get_params())
        with pytest.raises(StaleTapeError):
            pol.mlp.backprop(tape, np.zeros((1, 2)))

    def test_get_set_params_roundtrip(self):
        rng = np.random.default_rng(34)
        pol = AlgorithmPolicy(3, 4, hidden=(5,), rng=rng)
        x = rng.normal(size=(2, N_STEP_FEATURES))
        saved = pol.get_params()
        before = pol.forward(x)
        pol.step([np.ones_like(p) for p in pol.params], lr=0.5)
        assert not np.allclose(before, pol.forward(x))
        pol.set_params(saved)
        assert np.array_equal(before, pol.forward(x))

    def test_set_params_shape_mismatch(self):
        pol = AdversaryPolicy(2, 2, latent_dim=3, hidden=(4,))
        bad = pol.get_params()
        bad[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            pol.set_params(bad)


class TestPolicies:
    def test_adversary_heads_normalize_per_slot(self):
        rng = np.random.default_rng(41)
        pol = AdversaryPolicy(4, 3, latent_dim=5, hidden=(8,), rng=rng)
        probs, _ = pol.forward(rng.normal(size=(6, 5)))
        assert probs.shape == (6, 4, 3)
        assert np.allclose(probs.sum(axis=2), 1.0)

    def test_batched_forward_matches_single_rows(self):
        rng = np.random.default_rng(43)
        pol = AlgorithmPolicy(3, 3, hidden=(6,), rng=rng)
        x = rng.normal(size=(4, N_STEP_FEATURES))
        batched = pol.forward(x)
        for b in range(4):
            assert np.allclose(batched[b], pol.forward(x[b])[0], atol=1e-14)

    def test_rejects_wrong_feature_width(self):
        pol = AlgorithmPolicy(3, 2, hidden=(4,))
        with pytest.raises(ValueError, match="input width 5 != 4"):
            pol.forward(np.zeros((1, 5)))


class TestGradHelpers:
    def test_add_and_scale(self):
        a = [np.ones(3), np.full((2, 2), 2.0)]
        b = [np.ones(3), np.ones((2, 2))]
        acc = add_grads(None, a)
        acc = add_grads(acc, b)
        assert np.array_equal(acc[0], np.full(3, 2.0))
        scale_grads(acc, 0.5)
        assert np.array_equal(acc[0], np.ones(3))
        assert np.array_equal(a[0], np.ones(3))  # source untouched

    def test_clip_reduces_norm(self):
        g = [np.full(4, 3.0)]
        clip_grads(g, 1.0)
        assert np.sqrt(np.square(g[0]).sum()) == pytest.approx(1.0)

    def test_clip_noop_below_limit(self):
        g = [np.full(4, 0.1)]
        clip_grads(g, 10.0)
        assert np.allclose(g[0], 0.1)


def loop_softmax_heads(z, head_sizes):
    """Reference: one softmax per head block, in a Python loop."""
    out = np.empty_like(z)
    start = 0
    for size in head_sizes:
        block = z[..., start:start + size]
        shifted = block - block.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out[..., start:start + size] = e / e.sum(axis=-1, keepdims=True)
        start += size
    return out


def loop_backprop(mlp, tape, grad_probs):
    """Reference: SoftmaxMlp.backprop with the softmax Jacobian applied one
    head block at a time, in a Python loop."""
    dz = np.empty_like(tape.probs)
    start = 0
    for size in mlp.head_sizes:
        p = tape.probs[:, start:start + size]
        g = grad_probs[:, start:start + size]
        inner = (g * p).sum(axis=1, keepdims=True)
        dz[:, start:start + size] = p * (g - inner)
        start += size
    grads = []
    for k in range(len(mlp.weights) - 1, -1, -1):
        grads.append(dz.sum(axis=0))
        grads.append(tape.activations[k].T @ dz)
        if k > 0:
            z = tape.activations[k - 1] @ mlp.weights[k - 1] + mlp.biases[k - 1]
            dz = (dz @ mlp.weights[k].T) * np.where(z > 0, 1.0, mlp.slope)
    return grads[::-1]


def same_bits(a, b):
    # array_equal alone treats -0.0 and 0.0 as equal
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestBitIdentity:
    """The vectorized paths reproduce the straightforward ones bit for bit."""

    @pytest.mark.parametrize("heads", [(5,) * 25, (3,) * 7, (9,), (12,), (17,)])
    @pytest.mark.parametrize("batch", [1, 3, 32, 81])
    def test_equal_heads_match_per_head_loop(self, heads, batch):
        rng = np.random.default_rng(batch * 100 + len(heads) + heads[0])
        z = rng.normal(size=(batch, sum(heads)), scale=4.0)
        assert same_bits(softmax_heads(z, heads), loop_softmax_heads(z, heads))

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0])
    def test_leaky_matches_where(self, slope):
        rng = np.random.default_rng(7)
        z = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324],
                            rng.normal(size=200, scale=10.0)])
        assert same_bits(leaky(z, slope), np.where(z > 0, z, slope * z))

    def test_equal_head_backprop_matches_per_head_loop(self):
        rng = np.random.default_rng(8)
        pol = AdversaryPolicy(25, 5, latent_dim=6, hidden=(16, 16), rng=rng)
        latents = rng.normal(size=(32, 6))
        signal = rng.normal(size=(32, 25, 5))
        probs, tape = pol.forward(latents)
        grads = pol.backprop(tape, signal)
        loop_grads = loop_backprop(pol.mlp, tape, signal.reshape(32, 125))
        logits = tape.activations[-1] @ pol.mlp.weights[-1] + pol.mlp.biases[-1]
        assert same_bits(probs.reshape(32, 125), loop_softmax_heads(logits, pol.mlp.head_sizes))
        assert all(same_bits(g, h) for g, h in zip(grads, loop_grads))

    @pytest.mark.parametrize("n_slots,batch,n_prices", [(1, 3, 2), (2, 1, 1), (4, 5, 3),
                                                        (7, 32, 1), (25, 10, 5), (6, 1, 4)])
    def test_block_backprop_matches_per_slot_backprop(self, n_slots, batch, n_prices):
        # one backprop over a block of slots rebuilds their activations with a
        # stacked forward and adds each slot's gradient in slot order, bit for
        # bit as add_grads over per-slot forwards and backprops; a block split
        # in two and added in turn gives the same bits
        rng = np.random.default_rng(n_slots * 100 + batch)
        pol = AlgorithmPolicy(n_slots, n_prices, hidden=(6, 1, 5), rng=rng)
        pol.set_params([p + rng.normal(size=p.shape) for p in pol.params])
        features = rng.normal(size=(n_slots, batch, N_STEP_FEATURES))
        signals = rng.normal(size=(n_slots, batch, n_prices))
        signals[:, 0] = 0.0   # a row without signal, like a played-out one
        ref = None
        for x, signal in zip(features, signals):
            ref = add_grads(ref, pol.backprop(x, signal))
        stacked_probs, _ = pol.mlp.forward(features)
        assert all(same_bits(stacked_probs[i], pol.forward(features[i]))
                   for i in range(n_slots))
        assert all(same_bits(g, h) for g, h in zip(pol.backprop(features, signals), ref))
        cut = n_slots // 2
        into = pol.backprop(features[:cut], signals[:cut]) if cut else None
        split = pol.backprop(features[cut:], signals[cut:], into=into)
        assert all(same_bits(g, h) for g, h in zip(split, ref))

    @pytest.mark.parametrize("batch", [1, 2, 17, 39])
    @pytest.mark.parametrize("hidden", [8, 16, 32, 64])
    def test_stacked_forward_matches_per_slot_forward(self, hidden, batch):
        # a gradient play forwards one slot at a time and back-propagates a
        # block from one stacked forward; on trained-like nets of the default
        # depth the two must give the same bits, or the block's gradient would
        # belong to prices the play never posted
        rng = np.random.default_rng(hidden * 1000 + batch)
        for _ in range(4):
            n_slots, n_prices = int(rng.integers(1, 26)), int(rng.integers(1, 6))
            pol = AlgorithmPolicy(n_slots, n_prices, hidden=(hidden,) * 3, rng=rng)
            pol.set_params([p + rng.normal(size=p.shape, scale=0.3) for p in pol.params])
            features = rng.random(size=(n_slots, batch, N_STEP_FEATURES))
            stacked = pol.mlp.forward(features)[0]
            assert all(same_bits(stacked[i], pol.forward(features[i])) for i in range(n_slots))
            signals = rng.normal(size=(n_slots, batch, n_prices))
            ref = None
            for x, signal in zip(features, signals):
                ref = add_grads(ref, pol.backprop(x, signal))
            assert all(same_bits(g, h) for g, h in zip(pol.backprop(features, signals), ref))


class TestSlope:
    BUILDERS = [
        lambda slope: SoftmaxMlp((3, 2), (2,), slope=slope),
        lambda slope: AlgorithmPolicy(3, 2, slope=slope),
        lambda slope: AdversaryPolicy(3, 2, slope=slope),
    ]

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("slope", [2.0, -0.01, 1.0 + 1e-12, float("nan"),
                                       float("inf"), -float("inf"), "steep", None])
    def test_rejected(self, build, slope):
        with pytest.raises(ValueError, match="slope"):
            build(slope)

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("slope", [0, 0.0, 0.2, 1])
    def test_accepted(self, build, slope):
        assert build(slope).slope == float(slope)
