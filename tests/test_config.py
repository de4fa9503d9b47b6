"""Flat key=value config parsing and validation."""
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qtlsim.config import (
    ConfigError,
    TrainConfig,
    config_to_text,
    parse_config_text,
    validate_config,
    with_overrides,
)


def test_defaults_match_training_setup():
    cfg = parse_config_text("")
    assert cfg.batch_size == 8
    assert cfg.lr == 1e-4
    assert cfg.weight_decay == 0.01
    assert cfg.ratios == (0.7, 0.15, 0.15)


def test_parse_with_comments_and_spacing():
    cfg = parse_config_text(
        "# a comment\n"
        "mode = purevqc\n"
        "embedding=amplitude   # trailing comment\n"
        "\n"
        "n_qubits = 9\n"
        "n_classes=3\n"
        "in_dim = 512\n"
        "balance = false\n"
    )
    assert cfg.mode == "purevqc"
    assert cfg.n_qubits == 9
    assert cfg.balance is False


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config_text("learning_rate = 0.1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("depth = 1\ndepth = 2\n")


def test_bad_value_type_names_key():
    with pytest.raises(ConfigError, match="n_qubits"):
        parse_config_text("n_qubits = four\n")


def test_purevqc_with_angle_embedding_names_offending_keys():
    with pytest.raises(ConfigError, match="mode, embedding"):
        parse_config_text("mode = purevqc\nembedding = angle\nn_qubits = 9\nin_dim = 512\n")


def test_dqc_with_amplitude_rejected():
    with pytest.raises(ConfigError, match="mode, embedding"):
        parse_config_text("mode = dqc\nembedding = amplitude\n")


def test_purevqc_qubit_count_checked():
    with pytest.raises(ConfigError, match="n_qubits"):
        parse_config_text("mode = purevqc\nembedding = amplitude\nn_qubits = 4\nin_dim = 512\n")


def test_ratio_sum_checked():
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config_text("train_ratio = 0.5\n")


def test_config_round_trips_through_text():
    cfg = parse_config_text("mode = dqc\nlr = 0.001\nseed = 99\nclass_names = a,b\n")
    again = parse_config_text(config_to_text(cfg))
    assert again == cfg
    assert again.class_name_list == ["a", "b"]


def test_numpy_float_overrides_round_trip_through_text():
    cfg = with_overrides(TrainConfig(), lr=np.float64(0.01),
                         train_ratio=np.float64(0.6), val_ratio=np.float64(0.25))
    text = config_to_text(cfg)
    assert "np.float64" not in text
    assert parse_config_text(text) == cfg


def test_numpy_scalar_overrides_round_trip_by_field_type():
    cfg = with_overrides(TrainConfig(), balance=np.True_, lr=np.float32(0.01),
                         seed=np.int64(7))
    back = parse_config_text(config_to_text(cfg))
    assert back == cfg
    assert back.balance is True and back.seed == 7
    assert float(back.lr) == float(cfg.lr)  # the float32 value the run used


def test_class_names_must_survive_the_text_form():
    for names in ("tumor#1,healthy", "a,b,c", "a,a", "a,", " a,b", "a, b", "a\nb,c"):
        with pytest.raises(ConfigError, match="class_names"):
            with_overrides(TrainConfig(), class_names=names)
    assert with_overrides(TrainConfig(), class_names="tumor 1,healthy").class_name_list \
        == ["tumor 1", "healthy"]


@given(names=st.one_of(st.just([]), st.lists(st.text(), min_size=2, max_size=4)),
       balance=st.sampled_from([True, False, np.True_, np.False_]),
       lr=st.floats(1e-6, 1.0).flatmap(lambda v: st.sampled_from([v, np.float32(v)])),
       seed=st.integers(0, 2**31).flatmap(lambda v: st.sampled_from([v, np.int64(v)])))
def test_every_valid_config_round_trips_through_text(names, balance, lr, seed):
    cfg = TrainConfig(class_names=",".join(names), n_classes=max(2, len(names)),
                      balance=balance, lr=lr, seed=seed)
    try:
        validate_config(cfg)
    except ConfigError:
        assume(False)
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_with_overrides_validates():
    cfg = TrainConfig()
    assert with_overrides(cfg, seed=5).seed == 5
    assert with_overrides(cfg, seed=None).seed == cfg.seed  # None means keep
    with pytest.raises(ConfigError):
        with_overrides(cfg, embedding="amplitude")
