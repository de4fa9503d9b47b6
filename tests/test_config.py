"""Flat key=value config parsing and validation."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qtlsim.hybrid import MAX_DEPTH, Head, layout_size

from qtlsim.config import (
    MAX_ARRAY_VALUES,
    ConfigError,
    TrainConfig,
    config_to_text,
    parse_config_text,
    validate_config,
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
    with pytest.raises(ConfigError, match="balance: cannot parse 'yes' as bool"):
        parse_config_text("balance = yes\n")


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


def test_ratios_must_be_positive():
    """A zero ratio whose partners sum to 1, and a nan one, are config
    errors that name the ratio keys."""
    for train_ratio in ("0", "nan"):
        with pytest.raises(ConfigError, match="train_ratio, val_ratio, test_ratio: .*positive"):
            parse_config_text(f"train_ratio = {train_ratio}\nval_ratio = 0.5\n"
                              f"test_ratio = 0.5\n")


def test_config_round_trips_through_text():
    cfg = parse_config_text("mode = dqc\nlr = 0.001\nseed = 99\nclass_names = a,b\n")
    again = parse_config_text(config_to_text(cfg))
    assert again == cfg
    assert again.class_name_list == ["a", "b"]


def test_numpy_float_overrides_round_trip_through_text():
    cfg = validate_config(replace(TrainConfig(), lr=np.float64(0.01),
                                  train_ratio=np.float64(0.6), val_ratio=np.float64(0.25)))
    text = config_to_text(cfg)
    assert "np.float64" not in text
    assert parse_config_text(text) == cfg


def test_numpy_scalar_overrides_round_trip_by_field_type():
    cfg = validate_config(replace(TrainConfig(), balance=np.True_, lr=np.float32(0.01),
                                  seed=np.int64(7)))
    back = parse_config_text(config_to_text(cfg))
    assert back == cfg
    assert back.balance is True and back.seed == 7
    assert float(back.lr) == float(cfg.lr)  # the float32 value the run used


def test_class_names_must_survive_the_text_form():
    for names in ("tumor#1,healthy", "a,b,c", "a,a", "a,", " a,b", "a, b", "a\nb,c"):
        with pytest.raises(ConfigError, match="class_names"):
            validate_config(replace(TrainConfig(), class_names=names))
    assert validate_config(replace(TrainConfig(), class_names="tumor 1,healthy")).class_name_list \
        == ["tumor 1", "healthy"]


def test_str_values_must_survive_the_text_form():
    """A manifest writes each value back as one comment-stripped, trimmed
    line, so a `#`, a line break or surrounding spaces in any str value
    would read back as another value: a config error naming the key."""
    for data in ("/tmp/run#1/x.csv", " x.csv", "x.csv\n", "a\rb.csv", "a\u2028b.csv"):
        with pytest.raises(ConfigError, match="data: must be one line"):
            validate_config(replace(TrainConfig(), data=data))
    cfg = validate_config(replace(TrainConfig(), data="/tmp/run 1/x=1.csv"))
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_counts_below_one_name_their_key():
    """The head's counts are checked by ``Head``, the run's by
    ``validate_config``; each names its key."""
    for key in ("n_qubits", "depth", "in_dim", "epochs", "batch_size", "synth_per_class",
                "synth_group_size"):
        with pytest.raises(ConfigError, match=f"^{key}: must be positive"):
            parse_config_text(f"{key} = 0\n")


def test_arrays_over_the_size_cap_name_their_keys():
    """The parameter vector and, for synthetic data, the feature matrix each
    hold at most MAX_ARRAY_VALUES float64 values: a config over the cap is a
    config error naming the keys that size the array; one at the cap passes.
    The synthetic matrix counts only when the data is synthetic."""
    theta = "^n_qubits, depth, n_classes, in_dim: "
    synth = "^synth_per_class, n_classes, in_dim: "
    for text, match in (("in_dim = 100000000000\n", theta),
                        ("n_classes = 10000000000\n", theta),
                        ("synth_per_class = 100000000000\n", synth),
                        ("in_dim = 1000000\n", synth),  # 4 million parameters, 200 million values
                        ("synth_per_class = 32769\n", synth)):  # one row of 512 over
        with pytest.raises(ConfigError, match=match + r"\d+ .* over the cap of 33554432$"):
            parse_config_text(text)
    assert MAX_ARRAY_VALUES == 2**25
    assert parse_config_text("synth_per_class = 32768\n").synth_per_class == 32768
    assert parse_config_text("in_dim = 1000000\ndata = x.csv\n").in_dim == 1000000
    head = lambda in_dim: Head("dqc", "dense_angle", 16, 1, 2, in_dim)  # noqa: E731
    widest = (MAX_ARRAY_VALUES - layout_size(head(1).layout)) // 32 + 1
    sizes = [layout_size(head(in_dim).layout) for in_dim in (widest, widest + 1)]
    assert sizes[0] <= MAX_ARRAY_VALUES < sizes[1]
    at_cap = f"embedding = dense_angle\nn_qubits = 16\nin_dim = {widest}\ndata = x.csv\n"
    parse_config_text(at_cap)
    with pytest.raises(ConfigError, match=theta):
        parse_config_text(at_cap.replace(str(widest), str(widest + 1)))


def test_minibatch_states_over_the_size_cap_name_their_keys():
    """A minibatch's adjoint sweep holds 2 * batch_size * 2**n_qubits state
    values, twice that for dense_angle's real halves: over MAX_ARRAY_VALUES
    is a config error naming batch_size and n_qubits; at the cap passes."""
    keys = "^batch_size, n_qubits: "
    big = "n_qubits = 16\nbatch_size = 4096\nsynth_per_class = 4000\nin_dim = 64\nepochs = 1\n"
    with pytest.raises(ConfigError, match=keys + r"536870912 minibatch state values in one "
                                                 r"array, over the cap of 33554432$"):
        parse_config_text(big)
    at_cap = "n_qubits = 16\nbatch_size = 256\nin_dim = 64\n"
    assert parse_config_text(at_cap).batch_size == 256
    with pytest.raises(ConfigError, match=keys + "67108864 "):
        parse_config_text(at_cap + "embedding = dense_angle\n")
    with pytest.raises(ConfigError, match=keys + "33685504 "):
        parse_config_text(at_cap.replace("256", "257"))


def test_depth_is_bounded_before_the_size_cap():
    """A head deeper than MAX_DEPTH layers is a config error naming depth,
    raised before the parameter count is read: depth 10**8 would also be
    over the size cap. A head at the bound parses."""
    assert MAX_DEPTH == 256
    for depth in (257, 100000000):
        with pytest.raises(ConfigError, match=f"^depth: at most 256 layers, got {depth}$"):
            parse_config_text(f"depth = {depth}\n")
    assert parse_config_text("depth = 256\n").depth == 256


def test_synthetic_data_needs_a_feature_per_class():
    """Synthetic classes sit on orthogonal axes, so in_dim below n_classes is
    a config error naming both keys; a feature file has no such limit."""
    for text in ("in_dim = 1\n", "in_dim = 3\nn_classes = 4\n"):
        with pytest.raises(ConfigError, match="^in_dim, n_classes: synthetic data needs "
                                              "in_dim >= n_classes"):
            parse_config_text(text)
    assert parse_config_text("in_dim = 2\n").in_dim == 2
    assert parse_config_text("in_dim = 1\ndata = x.csv\n").in_dim == 1


def test_overrides_replace_values_before_the_one_check():
    """A non-None override replaces its key's parsed value before the config
    is checked: a data file frees a config from the synthetic checks, and an
    override that breaks a rule is refused like a value in the text."""
    text = "in_dim = 64\nsynth_per_class = 300000\n"
    with pytest.raises(ConfigError, match="^synth_per_class, n_classes, in_dim: "):
        parse_config_text(text)
    cfg = parse_config_text(text, data="x.csv", seed=None)
    assert (cfg.data, cfg.seed, cfg.synth_per_class) == ("x.csv", 0, 300000)
    assert parse_config_text("in_dim = 1\n", data="x.csv").in_dim == 1
    assert parse_config_text("seed = 3\n", seed=7).seed == 7
    with pytest.raises(ConfigError, match="^data: must be one line"):
        parse_config_text("", data="run#1.csv")


def test_the_benchmark_heads_fit_well_inside_the_size_cap():
    """The heads that qtlbench/run.py trains and evaluates, and the default
    config's synthetic data, are each at least 300 times under the cap."""
    for head in (Head("dqc", "angle", 4, 1, 2, 512), Head("purevqc", "amplitude", 9, 3, 2, 512),
                 Head("dqc", "dense_angle", 8, 4, 2, 512)):
        assert 300 * layout_size(head.layout) <= MAX_ARRAY_VALUES
    default = TrainConfig()
    assert 300 * default.synth_per_class * default.n_classes * default.in_dim <= MAX_ARRAY_VALUES


def test_non_finite_floats_are_config_errors():
    """A nan or inf learning rate, weight decay or separation is rejected by
    name before any run, not left to train into a numerical abort."""
    for key in ("lr", "weight_decay", "synth_separation"):
        for raw in ("nan", "inf"):
            with pytest.raises(ConfigError, match=f"{key}: must be finite"):
                parse_config_text(f"{key} = {raw}\n")
    with pytest.raises(ConfigError, match="lr: must be positive"):
        parse_config_text("lr = -inf\n")


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

