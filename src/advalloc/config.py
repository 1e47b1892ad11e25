"""Flat key/value experiment files.

One `key = value` pair per line; `#` starts a comment; blank lines are
skipped. Integer sets and sequences are comma-separated and may be wrapped
in {} or [] braces; strategy lists hold several such groups separated by
semicolons, e.g. `expert_prices = [1,1,2]; [1,2,2]`. Unknown or duplicated
keys are rejected so a typo cannot silently fall back to a default.

The game keys (n_users, n_resources, price_set, budget_set) are required.
Everything else is optional: `sequence` names a canonical budget order used
by per-user acceptance solving and prefix experts, `expert_budgets` /
`expert_prices` pin pure-strategy menus, and any training knob may be set
to override its default.
"""
from __future__ import annotations

import dataclasses

from .game import GameConfig, format_sequence, parse_sequence
from .training import TrainConfig

_GAME_INT_KEYS = ("n_users", "n_resources")
_GAME_SET_KEYS = ("price_set", "budget_set")
_TRAIN_INT_KEYS = ("episodes", "batch", "xi", "seed", "snapshot_window",
                   "mw_rollouts", "latent_dim", "hidden", "encoder_width")
_TRAIN_FLOAT_KEYS = ("lr_alg", "lr_adv", "mw_eta", "clip", "target_gap",
                     "stop_rtol")
_SEQ_KEYS = ("sequence",)
_SEQ_LIST_KEYS = ("expert_budgets", "expert_prices")
KNOWN_KEYS = (_GAME_INT_KEYS + _GAME_SET_KEYS + _TRAIN_INT_KEYS
              + _TRAIN_FLOAT_KEYS + _SEQ_KEYS + _SEQ_LIST_KEYS)


class ConfigError(ValueError):
    """Malformed experiment file."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment file: the game, training knobs, optional strategies."""

    game: GameConfig
    train: TrainConfig
    sequence: tuple[int, ...] | None = None
    expert_budgets: tuple[tuple[int, ...], ...] | None = None
    expert_prices: tuple[tuple[int, ...], ...] | None = None


def _strip_braces(text: str) -> str:
    text = text.strip()
    for left, right in ("{}", "[]", "()"):
        if text.startswith(left) and text.endswith(right):
            return text[1:-1]
    return text


def parse_group(value: str, where: str) -> tuple[int, ...]:
    """A non-empty, optionally braced integer group; errors start with where."""
    try:
        seq = parse_sequence(_strip_braces(value))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not seq:
        raise ConfigError(f"{where} must not be empty")
    return seq


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse experiment text; keyword overrides (episodes=, seed=, ...) win
    over values in the file."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        try:
            if key in _GAME_INT_KEYS or key in _TRAIN_INT_KEYS:
                values[key] = int(value)
            elif key in _TRAIN_FLOAT_KEYS:
                values[key] = float(value)
            elif key in _GAME_SET_KEYS or key in _SEQ_KEYS:
                values[key] = parse_group(value, f"line {lineno}: {key}")
            else:
                values[key] = tuple(parse_group(part, f"line {lineno}: {key}")
                                    for part in value.split(";"))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc

    for key, value in overrides.items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown override {key!r}")
        if value is not None:
            values[key] = value

    missing = [k for k in _GAME_INT_KEYS + _GAME_SET_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    try:
        game = GameConfig(**{k: values[k] for k in _GAME_INT_KEYS + _GAME_SET_KEYS})
        train = TrainConfig(**{k: values[k] for k in _TRAIN_INT_KEYS + _TRAIN_FLOAT_KEYS
                               if k in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sequence = values.get("sequence")
    if sequence is not None and len(sequence) != game.n_users:
        raise ConfigError(
            f"sequence has {len(sequence)} entries, n_users is {game.n_users}")
    return ExperimentConfig(game=game, train=train, sequence=sequence,
                            expert_budgets=values.get("expert_budgets"),
                            expert_prices=values.get("expert_prices"))


def load_config(path, **overrides) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, **overrides)


def render_config(ecfg: ExperimentConfig) -> str:
    """Canonical text for an experiment; parse_config inverts it."""
    lines = [f"n_users = {ecfg.game.n_users}",
             f"n_resources = {ecfg.game.n_resources}",
             "price_set = {%s}" % format_sequence(ecfg.game.price_set),
             "budget_set = {%s}" % format_sequence(ecfg.game.budget_set)]
    if ecfg.sequence is not None:
        lines.append(f"sequence = [{format_sequence(ecfg.sequence)}]")
    for key in _SEQ_LIST_KEYS:
        groups = getattr(ecfg, key)
        if groups is not None:
            rendered = "; ".join(f"[{format_sequence(g)}]" for g in groups)
            lines.append(f"{key} = {rendered}")
    defaults = TrainConfig()
    for key in _TRAIN_INT_KEYS + _TRAIN_FLOAT_KEYS:
        value = getattr(ecfg.train, key)
        if value != getattr(defaults, key):
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"
