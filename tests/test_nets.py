"""Gradient, sampling, and bookkeeping tests for the numpy policy networks."""
import re

import numpy as np
import pytest

from advalloc.nets import (
    N_STEP_FEATURES,
    AdversaryPolicy,
    AlgorithmPolicy,
    HistoryEncoder,
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

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        mlp = SoftmaxMlp((5, 6, 4), (4,), rng=rng)
        x = rng.normal(size=(2, 5))
        g = rng.normal(size=(2, 4))
        _, tape = mlp.forward(x)
        _, dx = mlp.backprop(tape, g, return_input_grad=True)
        for b in range(2):
            for j in range(5):
                xp = x.copy()
                xp[b, j] += FD_STEP
                xm = x.copy()
                xm[b, j] -= FD_STEP
                fd = ((g * mlp.forward(xp)[0]).sum()
                      - (g * mlp.forward(xm)[0]).sum()) / (2 * FD_STEP)
                assert abs(dx[b, j] - fd) <= 1e-6 * max(1.0, abs(fd))

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
            pol = AlgorithmPolicy(n_users, n_prices, hidden=(6, 5),
                                  encoder_width=3, rng=rng)
            batch = int(rng.integers(1, 4))
            hist = rng.normal(size=(batch, n_users - 1, 4))
            cur = rng.normal(size=(batch, 4))
            g = rng.normal(size=(batch, n_prices))
            _, tape = pol.forward(hist, cur)
            grads = pol.backprop(tape, g)
            worst = max(worst, fd_worst_error(
                pol.params, lambda: pol.forward(hist, cur)[0], grads, g))
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
        pol = AlgorithmPolicy(3, 3, hidden=(8,), encoder_width=4, rng=rng)
        hist = rng.normal(size=(2, 2, 4))
        cur = rng.normal(size=(2, 4))
        g = rng.normal(size=(2, 3))
        probs, tape = pol.forward(hist, cur)
        before = (g * probs).sum()
        pol.step(pol.backprop(tape, g), lr=1e-3)
        after = (g * pol.forward(hist, cur)[0]).sum()
        assert after > before


class TestTapes:
    def test_step_invalidates_tape(self):
        rng = np.random.default_rng(31)
        pol = AlgorithmPolicy(2, 2, hidden=(4,), encoder_width=2, rng=rng)
        hist = rng.normal(size=(1, 1, 4))
        cur = rng.normal(size=(1, 4))
        _, tape = pol.forward(hist, cur)
        pol.step(pol.zero_grads(), lr=0.1)
        with pytest.raises(StaleTapeError):
            pol.backprop(tape, np.zeros((1, 2)))

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
        pol = AlgorithmPolicy(2, 2, hidden=(4,), encoder_width=2, rng=rng)
        hist = rng.normal(size=(1, 1, 4))
        cur = rng.normal(size=(1, 4))
        _, tape = pol.forward(hist, cur)
        pol.set_params(pol.get_params())
        with pytest.raises(StaleTapeError):
            pol.mlp.backprop(tape.mlp_tape, np.zeros((1, 2)))

    def test_get_set_params_roundtrip(self):
        rng = np.random.default_rng(34)
        pol = AlgorithmPolicy(3, 4, hidden=(5,), encoder_width=3, rng=rng)
        hist = rng.normal(size=(2, 2, 4))
        cur = rng.normal(size=(2, 4))
        saved = pol.get_params()
        before, _ = pol.forward(hist, cur)
        pol.step([np.ones_like(p) for p in pol.params], lr=0.5)
        changed, _ = pol.forward(hist, cur)
        assert not np.allclose(before, changed)
        pol.set_params(saved)
        restored, _ = pol.forward(hist, cur)
        assert np.array_equal(before, restored)

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

    def test_single_user_policy_has_empty_history(self):
        rng = np.random.default_rng(42)
        pol = AlgorithmPolicy(1, 3, hidden=(4,), encoder_width=2, rng=rng)
        probs, _ = pol.forward(np.zeros((2, 0, 4)), rng.normal(size=(2, 4)))
        assert probs.shape == (2, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_history_padding_rows_are_inert_at_zero_weight(self):
        # zero-initialized encoder ignores history entirely
        pol = AlgorithmPolicy(3, 2, hidden=(4,), encoder_width=2)
        cur = np.ones((1, 4))
        a, _ = pol.forward(np.zeros((1, 2, 4)), cur)
        b, _ = pol.forward(np.ones((1, 2, 4)), cur)
        assert np.array_equal(a, b)

    def test_batched_forward_matches_single_rows(self):
        rng = np.random.default_rng(43)
        pol = AlgorithmPolicy(3, 3, hidden=(6,), encoder_width=3, rng=rng)
        hist = rng.normal(size=(4, 2, 4))
        cur = rng.normal(size=(4, 4))
        batched, _ = pol.forward(hist, cur)
        for b in range(4):
            single, _ = pol.forward(hist[b], cur[b])
            assert np.allclose(batched[b], single[0], atol=1e-14)

    def test_encoder_rejects_wrong_history_shape(self):
        enc = HistoryEncoder(3, 2)
        with pytest.raises(ValueError):
            enc.encode(np.zeros((1, 2, 4)))


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

    @pytest.mark.parametrize("n_users,batch", [(2, 1), (2, 40), (3, 1), (3, 2),
                                               (7, 1), (7, 32), (25, 1), (25, 17)])
    def test_encoded_history_matches_raw(self, n_users, batch):
        rng = np.random.default_rng(n_users * 10 + batch)
        pol = AlgorithmPolicy(n_users, 4, hidden=(12, 12), encoder_width=5, rng=rng)
        # bias is zero at init; make it matter
        pol.encoder.bias[...] = rng.normal(size=pol.encoder.bias.shape)
        raw = np.zeros((batch, n_users - 1, N_STEP_FEATURES))
        encoded = pol.encoder.empty(batch)
        for i in range(n_users):
            current = rng.normal(size=(batch, N_STEP_FEATURES))
            signal = rng.normal(size=(batch, 4))
            p_raw, t_raw = pol.forward(raw, current)
            p_enc, t_enc = pol.forward(encoded, current)
            assert same_bits(p_raw, p_enc), i
            assert same_bits(t_raw.encoded.flat, encoded.flat), i
            g_raw = pol.backprop(t_raw, signal)
            g_enc = pol.backprop(t_enc, signal)
            assert all(same_bits(g, h) for g, h in zip(g_raw, g_enc)), i
            if i < n_users - 1:
                raw[:, i] = current
                pol.encoder.extend(encoded, current)
        with pytest.raises(IndexError):   # every row is filled
            pol.encoder.extend(encoded, current)

    @pytest.mark.parametrize("n_users,batch,n_prices", [(1, 3, 2), (2, 1, 1), (4, 5, 3),
                                                        (7, 32, 1), (25, 10, 5)])
    def test_tape_block_matches_per_slot_backprop(self, n_users, batch, n_prices):
        # one backprop over a tape block recorded through a play adds each
        # slot's gradient in slot order, bit for bit as add_grads over per-slot
        # backprops on raw histories; later slots' rows filled into the
        # history stay unseen
        rng = np.random.default_rng(n_users * 100 + batch)
        pol = AlgorithmPolicy(n_users, n_prices, hidden=(6, 1, 5), encoder_width=3,
                              rng=rng)
        for p in pol.params:
            p += rng.normal(size=p.shape)
        pol.set_params(pol.get_params())
        raw = np.zeros((batch, n_users - 1, N_STEP_FEATURES))
        encoded = pol.encoder.empty(batch)
        whole = pol.tape_block(encoded, n_users)
        cut = n_users // 2   # a second block, back-propagated in two halves
        halves = pol.tape_block(encoded, max(cut, n_users - cut))
        signals = rng.normal(size=(n_users, batch, n_prices))
        signals[:, 0] = 0.0   # a row without signal, like a played-out one
        ref = into = None
        for i in range(n_users):
            current = rng.normal(size=(batch, N_STEP_FEATURES))
            p_raw, t_raw = pol.forward(raw, current)
            ref = add_grads(ref, pol.backprop(t_raw, signals[i]))
            if i == cut > 0:
                into = pol.backprop(halves, signals[:cut])
                halves.slots = 0
            # passes given their features apart, or filled into the history's row
            if i % 2:
                encoded.step[...] = current
                current = encoded.step
            for block in (whole, halves):
                probs, tape = pol.forward(block, current)
                assert tape is block and same_bits(probs, p_raw)
            if i < n_users - 1:
                raw[:, i] = current
                pol.encoder.extend(encoded, current)
        assert whole.slots == n_users
        assert all(same_bits(g, h) for g, h in zip(pol.backprop(whole, signals), ref))
        split = pol.backprop(halves, signals[cut:], into=into)
        assert all(same_bits(g, h) for g, h in zip(split, ref))

    def test_pass_reading_the_history_row_in_place_keeps_no_tape(self):
        rng = np.random.default_rng(5)
        pol = AlgorithmPolicy(3, 2, hidden=(4,), encoder_width=2, rng=rng)
        encoded = pol.encoder.empty(2)
        current = rng.normal(size=(2, N_STEP_FEATURES))
        apart, tape = pol.forward(encoded, current)
        encoded.step[...] = current
        in_place, no_tape = pol.forward(encoded, encoded.step)
        assert tape is not None and no_tape is None
        assert same_bits(apart, in_place)

    def test_tape_block_goes_stale_on_step(self):
        rng = np.random.default_rng(9)
        pol = AlgorithmPolicy(3, 2, hidden=(4,), encoder_width=2, rng=rng)
        encoded = pol.encoder.empty(2)
        block = pol.tape_block(encoded, 3)
        pol.forward(block, np.zeros((2, N_STEP_FEATURES)))
        pol.step(pol.zero_grads(), lr=0.1)
        with pytest.raises(StaleTapeError):
            pol.forward(block, np.zeros((2, N_STEP_FEATURES)))
        with pytest.raises(StaleTapeError):
            pol.backprop(block, np.zeros((1, 2, 2)))
        with pytest.raises(StaleTapeError):
            pol.tape_block(encoded, 3)

    def test_encoded_history_goes_stale_on_step(self):
        rng = np.random.default_rng(9)
        pol = AlgorithmPolicy(3, 2, hidden=(4,), encoder_width=2, rng=rng)
        encoded = pol.encoder.empty(2)
        _, tape = pol.forward(encoded, np.zeros((2, N_STEP_FEATURES)))
        pol.step(pol.zero_grads(), lr=0.1)
        with pytest.raises(StaleTapeError):
            pol.forward(encoded, np.zeros((2, N_STEP_FEATURES)))
        with pytest.raises(StaleTapeError):
            pol.encoder.extend(encoded, np.zeros((2, N_STEP_FEATURES)))
        with pytest.raises(StaleTapeError):
            pol.backprop(tape, np.zeros((2, 2)))


class TestSlope:
    BUILDERS = [
        lambda slope: SoftmaxMlp((3, 2), (2,), slope=slope),
        lambda slope: HistoryEncoder(2, 3, slope=slope),
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
