"""Simplex solver vs hand results and scipy's HiGHS as an independent oracle;
dual feasibility and strong duality of the returned duals; input validation;
the block update against the old dense pivot; payoff subgames against HiGHS."""
import numpy as np
import pytest
from scipy.optimize import linprog

from advalloc import equilibrium, simplex
from advalloc.equilibrium import payoff_game, solve_acceptance_lp, solve_zero_sum
from advalloc.game import GameConfig
from advalloc.simplex import (
    InfeasibleError,
    LpSolution,
    SimplexError,
    UnboundedError,
    solve_lp,
)

FULL_GAME = GameConfig(n_users=7, n_resources=3,
                       price_set=(1, 3, 5, 7), budget_set=(2, 4, 6))
SMALL_GAME = GameConfig(n_users=7, n_resources=3, price_set=(1, 2, 3), budget_set=(1, 2, 3))
# the acceptance LPs of the exact-n7 benchmark: (sequence, R)
ACCEPTANCE_LPS = {
    "staircase": (tuple(v for v in range(1, 6) for _ in range(5)), 5),
    "L40": (tuple(v for v in range(1, 21) for _ in range(2)), 10),
    "L60": (tuple(v for v in range(1, 21) for _ in range(3)), 10),
    "L240": (tuple(v for v in range(1, 21) for _ in range(12)), 10),
}


class TestHandCases:
    def test_basic_max(self):
        # min -(x+y) s.t. x+y <= 1
        res = solve_lp([-1, -1], A_ub=[[1, 1]], b_ub=[1])
        assert res.objective == pytest.approx(-1.0, abs=1e-9)
        assert res.x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_two_constraints(self):
        # classic diet-style: min 2x+3y, x+y >= 4, x >= 1  (as <= with negation)
        res = solve_lp([2, 3], A_ub=[[-1, -1], [-1, 0]], b_ub=[-4, -1])
        assert res.objective == pytest.approx(8.0, abs=1e-8)
        assert res.x == pytest.approx([4.0, 0.0], abs=1e-8)
        # negated rows keep their multipliers: x + y >= 4 binds at price 2
        assert res.duals == pytest.approx([2.0, 0.0], abs=1e-9)
        assert_dual_optimal(res, [2, 3], [[-1, -1], [-1, 0]], [-4, -1])

    def test_equality(self):
        res = solve_lp([1, 2], A_eq=[[1, 1]], b_eq=[3])
        assert res.objective == pytest.approx(3.0, abs=1e-9)
        assert res.x == pytest.approx([3.0, 0.0], abs=1e-9)
        assert res.duals.shape == (0,)

    def test_mixed(self):
        # min x1 + x2 + x3, x1 + x2 = 2, x2 + x3 >= 1
        res = solve_lp([1, 1, 1], A_ub=[[0, -1, -1]], b_ub=[-1],
                       A_eq=[[1, 1, 0]], b_eq=[2])
        assert res.objective == pytest.approx(2.0, abs=1e-8)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_lp([1], A_ub=[[1], [-1]], b_ub=[1, -3])

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            solve_lp([-1, 0], A_ub=[[0, 1]], b_ub=[1])

    def test_degenerate_does_not_cycle(self):
        # Beale's cycling example for Dantzig pivoting
        c = [-0.75, 150, -0.02, 6]
        A = [[0.25, -60, -1 / 25, 9],
             [0.5, -90, -1 / 50, 3],
             [0, 0, 1, 0]]
        b = [0, 0, 1]
        res = solve_lp(c, A_ub=A, b_ub=b)
        assert res.objective == pytest.approx(-0.05, abs=1e-9)

    def test_returns_solution_type(self):
        assert isinstance(solve_lp([0], A_ub=[[1]], b_ub=[1]), LpSolution)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_lp([1, 2], A_ub=[[1]], b_ub=[1])
        with pytest.raises(ValueError):
            solve_lp([1])


def assert_dual_optimal(res, c, A_ub, b_ub, tol=1e-9):
    """The duals are feasible (lambda >= 0, c + A_ub'lambda >= 0) and meet
    strong duality (-b_ub'lambda equals the objective)."""
    lam = res.duals
    assert lam.shape == (len(b_ub),)
    assert (lam >= -tol).all()
    assert (np.asarray(c) + np.asarray(A_ub, dtype=float).T @ lam >= -tol).all()
    assert -np.asarray(b_ub, dtype=float) @ lam == pytest.approx(res.objective, abs=tol)


def random_bounded_lps():
    """60 small integer LPs, each capped so it is bounded."""
    rng = np.random.default_rng(1234)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        b = rng.integers(0, 9, size=m).astype(float)
        c = rng.integers(-5, 6, size=n).astype(float)
        yield {"c": c, "A_ub": np.vstack([A, np.ones((1, n))]),
               "b_ub": np.concatenate([b, [50.0]])}


class TestAgainstScipy:
    def test_random_bounded_lps(self):
        for trial, lp in enumerate(random_bounded_lps()):
            c, A_full, b_full = lp["c"], lp["A_ub"], lp["b_ub"]
            ref = linprog(c, A_ub=A_full, b_ub=b_full, bounds=[(0, None)] * len(c),
                          method="highs")
            assert ref.status == 0
            res = solve_lp(c, A_ub=A_full, b_ub=b_full)
            assert res.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
            # returned point must be feasible
            assert (A_full @ res.x <= b_full + 1e-7).all()
            assert (res.x >= -1e-9).all()
            assert_dual_optimal(res, c, A_full, b_full)

    def test_random_with_equalities(self):
        rng = np.random.default_rng(99)
        solved = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            A_eq = rng.integers(0, 4, size=(1, n)).astype(float)
            if not A_eq.any():
                continue
            b_eq = np.array([float(rng.integers(1, 8))])
            c = rng.integers(-4, 5, size=n).astype(float)
            cap = np.ones((1, n))
            ref = linprog(c, A_ub=cap, b_ub=[30.0], A_eq=A_eq, b_eq=b_eq,
                          bounds=[(0, None)] * n, method="highs")
            if ref.status != 0:
                with pytest.raises(InfeasibleError):
                    solve_lp(c, A_ub=cap, b_ub=[30.0], A_eq=A_eq, b_eq=b_eq)
                continue
            res = solve_lp(c, A_ub=cap, b_ub=[30.0], A_eq=A_eq, b_eq=b_eq)
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            assert A_eq @ res.x == pytest.approx(b_eq, abs=1e-7)
            solved += 1
        assert solved > 30


class TestValidation:
    """solve_lp checks its inputs once, before building the tableau."""

    @pytest.mark.parametrize("kwargs, missing", [
        ({"A_ub": [[1.0]]}, "A_ub"),
        ({"b_ub": [1.0]}, "b_ub"),
        ({"A_ub": [[1.0]], "b_ub": [1.0], "A_eq": [[1.0]]}, "A_eq"),
        ({"A_ub": [[1.0]], "b_ub": [1.0], "b_eq": [1.0]}, "b_eq"),
    ])
    def test_constraints_come_in_pairs(self, kwargs, missing):
        with pytest.raises(ValueError, match=f"given together, got only {missing}"):
            solve_lp([-1.0], **kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"A_ub": [[1.0, 1.0]], "b_ub": [1.0, 2.0]}, "A_ub"),
        ({"A_ub": [[1.0, 1.0]], "b_ub": [[1.0]]}, "A_ub"),
        ({"A_eq": [[1.0, 1.0], [1.0, 0.0]], "b_eq": [1.0]}, "A_eq"),
        ({"A_eq": [[[1.0, 1.0]]], "b_eq": [1.0]}, "A_eq"),
    ])
    def test_shapes_must_match(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} shape .* inconsistent"):
            solve_lp([1.0, 2.0], **kwargs)

    def test_c_must_be_a_vector(self):
        with pytest.raises(ValueError, match="c must be a 1-D vector"):
            solve_lp([[1.0, 2.0]], A_ub=[[1.0, 1.0]], b_ub=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["c", "A_ub", "b_ub", "A_eq", "b_eq"])
    def test_entries_must_be_finite(self, name, bad):
        lp = {"c": [-1.0, -1.0], "A_ub": [[1.0, 1.0]], "b_ub": [2.0],
              "A_eq": [[1.0, -1.0]], "b_eq": [0.0]}
        lp[name] = np.array(lp[name])
        lp[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_lp(**lp)


def dense_pivot(T, obj, basis, row, col):
    """The full-tableau rank-1 update every pivot made before the block update."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    obj -= obj[col] * T[row]
    basis[row] = col


def recorded_lps(solve):
    """Run solve() and return the arguments of every solve_lp call it makes."""
    lps = []

    def recording(c, A_ub=None, b_ub=None):
        lps.append({"c": c, "A_ub": A_ub, "b_ub": b_ub})
        return solve_lp(c, A_ub=A_ub, b_ub=b_ub)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "solve_lp", recording)
        solve()
    return lps


def sparse_lps():
    """Larger LPs with ~5% nonzero entries, >= rows and equalities, feasible by
    construction, so pivots mix the block and the dense update."""
    rng = np.random.default_rng(7)
    for m, n in ((40, 60), (80, 150), (60, 300)):
        x0 = rng.integers(0, 3, size=n) * (rng.random(n) < 0.3)
        A = rng.integers(-4, 5, size=(m + 3, n)) * (rng.random((m + 3, n)) < 0.05)
        b = A @ x0
        b[:m] += rng.integers(0, 3, size=m)
        yield {"c": rng.integers(-5, 6, size=n),
               "A_ub": np.vstack([A[:m], np.ones((1, n))]),
               "b_ub": np.append(b[:m], x0.sum() + 50),
               "A_eq": A[m:], "b_eq": b[m:]}


def degenerate_equality_lps():
    """Small equality systems through a point with zeros: phase 1 leaves
    artificials basic at zero level, and many are driven out by a negative pivot."""
    rng = np.random.default_rng(0)
    for _ in range(40):
        A = rng.integers(-2, 3, size=(3, 4))
        x0 = rng.integers(0, 2, size=4) * (rng.random(4) < 0.5)
        yield {"c": rng.integers(-3, 4, size=4), "A_ub": np.ones((1, 4)), "b_ub": [10],
               "A_eq": A, "b_eq": A @ x0}


def outcome(lp, pivot=None, always_block=False):
    """Everything a solve returns, as bits, or the error it raised."""
    with pytest.MonkeyPatch.context() as mp:
        if pivot is not None:
            mp.setattr(simplex, "_pivot", pivot)
        if always_block:
            mp.setattr(simplex, "BLOCK_FIXED_CELLS", 0)
            mp.setattr(simplex, "BLOCK_CELL_COST", 0)
        try:
            res = solve_lp(**lp)
        except SimplexError as exc:
            return repr(exc)
        return res.x.tobytes(), res.objective, res.iterations, res.duals.tobytes()


@pytest.fixture(scope="module")
def full_game():
    return payoff_game(FULL_GAME)


class TestKernelBitIdentity:
    """The block update returns the dense update's solutions bit for bit,
    whichever path the size rule picks and with the block path forced."""

    def assert_same_as_dense(self, lps):
        for k, lp in enumerate(lps):
            reference = outcome(lp, pivot=dense_pivot)
            assert outcome(lp) == reference, f"LP {k}"
            assert outcome(lp, always_block=True) == reference, f"LP {k}"

    def test_acceptance_lps(self):
        lps = [lp for seq, r in ACCEPTANCE_LPS.values()
               for lp in recorded_lps(lambda: solve_acceptance_lp(seq, r))]
        assert [solve_lp(**lp).iterations for lp in lps] == [34, 52, 74, 267]
        self.assert_same_as_dense(lps)

    def test_full_game_strategy_generation(self, full_game):
        lps = recorded_lps(lambda: solve_zero_sum(full_game))
        assert len(lps) == 48
        assert sum(solve_lp(**lp).iterations for lp in lps) == 2219
        for k, lp in enumerate(lps):
            assert outcome(lp) == outcome(lp, pivot=dense_pivot), f"LP {k}"

    @pytest.mark.parametrize("family", [random_bounded_lps, sparse_lps,
                                        degenerate_equality_lps])
    def test_generated_lps(self, family):
        self.assert_same_as_dense(list(family()))


def payoff_submatrix(game, seed, M, K):
    """Sorted random rows, then sorted random columns, of a 7-user game."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(game.shape[0], M, replace=False))
    cols = np.sort(rng.choice(game.shape[1], K, replace=False))
    return np.stack([game.row(i) for i in rows])[:, cols].astype(np.float64)


def highs_value(C):
    """Game value by HiGHS: min v s.t. C y <= v, y a distribution."""
    M, K = C.shape
    res = linprog(np.append(np.zeros(K), 1.0),
                  A_ub=np.hstack([C, -np.ones((M, 1))]), b_ub=np.zeros(M),
                  A_eq=np.append(np.ones(K), 0.0)[None], b_eq=[1.0],
                  bounds=[(0, None)] * K + [(None, None)], method="highs")
    assert res.status == 0
    return res.fun


@pytest.fixture(scope="module")
def small_game():
    return payoff_game(SMALL_GAME)


class TestPayoffSubgamesAgainstHighs:
    """Seeded submatrices of both 7-user games solved within 1e-7 of HiGHS.
    The range keeps seeds 26 and 34 at 36x63 and 13 at 60x120 of the full
    game, which broke a solver that ran a second LP for the row player."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("M, K", [(20, 40), (36, 63), (60, 120)])
    @pytest.mark.parametrize("game", ["full_game", "small_game"])
    def test_value_matches_highs(self, request, game, M, K, seed):
        C = payoff_submatrix(request.getfixturevalue(game), seed, M, K)
        assert solve_zero_sum(C).value == pytest.approx(highs_value(C), abs=1e-7)
