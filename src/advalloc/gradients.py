"""Per-slot gradient signals on output probabilities.

The pricing side uses the resource constraint's shadow price: with y units
left before slot i, the shadow price is the midpoint of the y-th and
(y+1)-th largest remaining budgets (missing order statistics count as 0).
Accepting a budget b is worth b minus that shadow price, charged on every
price the user would accept.

Slots are 0-indexed throughout.
"""
from __future__ import annotations

import dataclasses
from typing import Sequence

from .game import GameConfig, validate_budgets


@dataclasses.dataclass(frozen=True)
class DualInfo:
    """Shadow price of one more resource unit, given the realized prefix."""

    shadow_price: float
    available: int


@dataclasses.dataclass(frozen=True)
class ProbGradient:
    """d objective / d P(action) for one slot, one entry per action."""

    slot: int
    per_action: tuple[float, ...]


def _check_slot(n: int, slot: int) -> None:
    if not 0 <= slot < n:
        raise ValueError(f"slot {slot} out of range for length {n}")


def _available(cfg: GameConfig, realized_accepts: Sequence[bool], slot: int) -> int:
    accepts = list(realized_accepts)
    if len(accepts) != slot:
        raise ValueError(f"need {slot} realized accepts, got {len(accepts)}")
    used = sum(bool(a) for a in accepts)
    if used > cfg.n_resources:
        raise ValueError(f"{used} accepts exceed {cfg.n_resources} resources")
    return cfg.n_resources - used


def shadow_price(cfg: GameConfig, budgets: Sequence[int], slot: int,
                 realized_accepts: Sequence[bool]) -> DualInfo:
    """Midpoint-of-order-statistics shadow price over the remaining budgets.

    y = 0 returns the upper bound U: the slot can never be accepted, and U
    zeroes every (b - shadow) * accept term so the slot is skipped.
    """
    budgets = validate_budgets(cfg, budgets, allow_partial=True)
    _check_slot(len(budgets), slot)
    y = _available(cfg, realized_accepts, slot)
    if y == 0:
        return DualInfo(shadow_price=float(cfg.upper_bound), available=0)
    remaining = sorted(budgets[slot:], reverse=True)

    def stat(k: int) -> int:  # 1-indexed order statistic, 0 beyond the list
        return remaining[k - 1] if k <= len(remaining) else 0

    return DualInfo(shadow_price=(stat(y) + stat(y + 1)) / 2.0, available=y)


def price_gradient(cfg: GameConfig, budgets: Sequence[int], slot: int,
                   realized_accepts: Sequence[bool]) -> ProbGradient:
    """Welfare gradient on the price distribution of one slot.

    Entry for price p is (b - shadow_price) when p <= b (the user would
    accept), else 0; the whole vector is 0 when no resource remains.
    """
    budgets = validate_budgets(cfg, budgets, allow_partial=True)
    _check_slot(len(budgets), slot)
    dual = shadow_price(cfg, budgets, slot, realized_accepts)
    if dual.available == 0:
        return ProbGradient(slot=slot, per_action=(0.0,) * cfg.n_prices)
    b = budgets[slot]
    signal = b - dual.shadow_price
    per_action = tuple(signal if p <= b else 0.0 for p in cfg.price_set)
    return ProbGradient(slot=slot, per_action=per_action)

