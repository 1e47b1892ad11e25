"""Experiment-file parsing, overrides, and the canonical renderer."""
import pytest

from advalloc.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    render_config,
)
from advalloc.game import GameConfig
from advalloc.training import TrainConfig

MINIMAL = """
n_users = 4
n_resources = 2
price_set = {1, 2, 3}
budget_set = {1, 2, 3}
"""


class TestParsing:
    def test_minimal_game_with_default_training(self):
        ecfg = parse_config(MINIMAL)
        assert ecfg.game == GameConfig(4, 2, (1, 2, 3), (1, 2, 3))
        assert ecfg.train == TrainConfig()
        assert ecfg.sequence is None
        assert ecfg.expert_budgets is None

    def test_comments_blanks_and_brace_styles(self):
        text = """
        # full-line comment
        n_users = 3        # trailing comment
        n_resources=1
        price_set = [2, 4]
        budget_set = 2, 4, 8
        """
        ecfg = parse_config(text)
        assert ecfg.game.price_set == (2, 4)
        assert ecfg.game.budget_set == (2, 4, 8)

    def test_sequence_and_training_keys(self):
        text = MINIMAL + """
        sequence = [1, 2, 2, 3]
        lr_alg = 3e-3
        batch = 10
        target_gap = 7.834
        """
        ecfg = parse_config(text)
        assert ecfg.sequence == (1, 2, 2, 3)
        assert ecfg.train.lr_alg == pytest.approx(3e-3)
        assert ecfg.train.batch == 10
        assert ecfg.train.target_gap == pytest.approx(7.834)

    def test_expert_lists_split_on_semicolons(self):
        text = MINIMAL + "expert_prices = [1,1,2,3]; {1,2,2,2}; 2,2,3,3\n"
        ecfg = parse_config(text)
        assert ecfg.expert_prices == ((1, 1, 2, 3), (1, 2, 2, 2), (2, 2, 3, 3))

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL)
        assert load_config(path) == parse_config(MINIMAL)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")


class TestOverrides:
    def test_flag_values_win(self):
        ecfg = parse_config(MINIMAL + "episodes = 99\nseed = 1\n",
                            episodes=400, seed=7)
        assert ecfg.train.episodes == 400
        assert ecfg.train.seed == 7

    def test_none_override_keeps_file_value(self):
        ecfg = parse_config(MINIMAL + "episodes = 99\n", episodes=None)
        assert ecfg.train.episodes == 99

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown override"):
            parse_config(MINIMAL, warp_factor=9)


class TestRejections:
    @pytest.mark.parametrize("line,fragment", [
        ("frobnicate = 3", "unknown key"),
        ("n_users", "expected 'key = value'"),
        ("n_users = ", "expected 'key = value'"),
        ("batch = many", "batch"),
        ("sequence = {}", "must not be empty"),
        ("expert_prices = [1, two]", "expert_prices"),
        ("sequence = [1, 2]", "n_users"),
    ])
    def test_malformed_lines(self, line, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(MINIMAL + line + "\n")

    def test_duplicate_key_cites_both_lines(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(MINIMAL + "n_users = 9\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("n_users = 3\n")

    def test_invalid_game_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("n_users = 0\nn_resources = 1\n"
                         "price_set = {1}\nbudget_set = {1}\n")

    def test_invalid_training_value_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "lr_alg = -1.0\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["lr_alg", "lr_adv", "mw_eta", "clip",
                                     "target_gap", "stop_rtol"])
    def test_non_finite_training_float_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
            parse_config(MINIMAL + f"{key} = {value}\n")


class TestRenderRoundTrip:
    def test_defaults_round_trip(self):
        ecfg = parse_config(MINIMAL)
        assert parse_config(render_config(ecfg)) == ecfg

    def test_full_experiment_round_trips(self):
        text = MINIMAL + """
        sequence = [1, 2, 2, 3]
        expert_budgets = [1,1]; [1,2,2]
        expert_prices = [1,1,2,3]; [2,2,3,3]
        episodes = 500
        batch = 10
        xi = 2
        lr_alg = 0.003
        lr_adv = 0.01
        seed = 11
        mw_rollouts = 4
        hidden = 32
        clip = 5.0
        target_gap = 7.834
        stop_rtol = 0.06
        """
        ecfg = parse_config(text)
        again = parse_config(render_config(ecfg))
        assert again == ecfg

    def test_rendered_text_is_flat_key_value(self):
        rendered = render_config(parse_config(MINIMAL + "episodes = 7\n"))
        for line in rendered.strip().splitlines():
            key, eq, value = line.partition(" = ")
            assert eq and key and value
