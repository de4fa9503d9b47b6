"""Ingestion, synthetic data, group-aware splitting, batching."""
import numpy as np
import pytest

from qtlsim.data import (
    DataError,
    Dataset,
    Sample,
    SplitError,
    SplitSpec,
    balanced_group_split,
    batches,
    load_feature_csv,
    synth_dataset,
    write_feature_csv,
)


def make_grouped_dataset(rng, n_classes=3, n_groups_per_class=20, max_group=8, dim=2):
    """Random group sizes, one class per group."""
    samples = []
    for c in range(n_classes):
        for g in range(n_groups_per_class):
            size = int(rng.integers(1, max_group + 1))
            for k in range(size):
                samples.append(
                    Sample(c, f"c{c}g{g}", features=rng.standard_normal(dim))
                )
    names = tuple(f"class{c}" for c in range(n_classes))
    return Dataset(tuple(samples), names)


# --- CSV -----------------------------------------------------------------

def test_load_feature_csv_well_formed(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text(
        "group_id,label,f0,f1,f2\n"
        "p1,covid,1.5,-2.0,0.25\n"
        "p1,covid,0.5,0.txt_err".replace("0.txt_err", "1.0,2.0") + "\n"
        "p2,normal,-1.0,3.5,4.0\n"
    )
    ds = load_feature_csv(path)
    assert len(ds) == 3
    assert ds.class_names == ("covid", "normal")
    assert ds.samples[0].group_id == "p1"
    assert ds.samples[2].label == 1
    np.testing.assert_array_equal(ds.samples[0].features, [1.5, -2.0, 0.25])


def test_load_feature_csv_short_row_names_line(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text(
        "group_id,label,f0,f1\n"
        "p1,a,1.0,2.0\n"
        "p2,b,3.0\n"
    )
    with pytest.raises(DataError, match="line 3"):
        load_feature_csv(path)


def test_load_feature_csv_bad_float_names_line(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("group_id,label,f0\np1,a,zzz\n")
    with pytest.raises(DataError, match="line 2"):
        load_feature_csv(path)


def test_load_feature_csv_bad_header(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("id,label,f0\np1,a,1\n")
    with pytest.raises(DataError, match="header"):
        load_feature_csv(path)


def test_load_feature_csv_strict_labels(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("group_id,label,f0\np1,a,1.0\np2,b,2.0\n")
    with pytest.raises(DataError, match="unknown label"):
        load_feature_csv(path, class_names=["a"])
    ds = load_feature_csv(path, class_names=["b", "a"])
    assert ds.samples[0].label == 1  # pinned mapping, not first appearance


def test_csv_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(0)
    ds = synth_dataset(5, 2, 7, 3.0, seed=1)
    path = tmp_path / "rt.csv"
    write_feature_csv(path, ds)
    back = load_feature_csv(path)
    assert back.class_names == ds.class_names
    for a, b in zip(ds.samples, back.samples):
        assert a.group_id == b.group_id and a.label == b.label
        np.testing.assert_array_equal(a.features, b.features)  # exact round trip


# --- synthetic data -------------------------------------------------------

def test_synth_dataset_deterministic():
    a = synth_dataset(10, 3, 8, 2.0, seed=42)
    b = synth_dataset(10, 3, 8, 2.0, seed=42)
    for s, t in zip(a.samples, b.samples):
        np.testing.assert_array_equal(s.features, t.features)
        assert s.group_id == t.group_id and s.label == t.label


def test_synth_dataset_shapes_and_groups():
    ds = synth_dataset(6, 2, 5, 1.0, seed=0, group_size=3)
    assert len(ds) == 12
    groups = {s.group_id for s in ds.samples}
    assert len(groups) == 4  # 2 groups per class
    counts = np.bincount(ds.labels())
    np.testing.assert_array_equal(counts, [6, 6])


def test_synth_separated_classes_are_centroid_separable():
    """separation=10 leaves classes >= 99% separable by nearest centroid."""
    ds = synth_dataset(200, 2, 32, 10.0, seed=3)
    feats = np.stack([s.features for s in ds.samples])
    labels = ds.labels()
    centroids = np.stack([feats[labels == c].mean(axis=0) for c in range(2)])
    d = np.stack([np.linalg.norm(feats - centroids[c], axis=1) for c in range(2)])
    assert np.mean(d.argmin(axis=0) == labels) >= 0.99


def test_synth_zero_separation_is_not_separable():
    ds = synth_dataset(300, 2, 16, 0.0, seed=4)
    order = np.random.default_rng(0).permutation(len(ds))
    feats = np.stack([s.features for s in ds.samples])[order]
    labels = ds.labels()[order]
    half = len(ds) // 2
    centroids = np.stack([feats[:half][labels[:half] == c].mean(axis=0) for c in range(2)])
    d = np.stack([np.linalg.norm(feats[half:] - centroids[c], axis=1) for c in range(2)])
    acc = np.mean(d.argmin(axis=0) == labels[half:])
    assert 0.4 <= acc <= 0.6  # held-out accuracy hovers at chance


# --- splitting ------------------------------------------------------------

def test_split_groups_are_atomic_and_disjoint():
    rng = np.random.default_rng(5)
    for trial in range(10):
        ds = make_grouped_dataset(rng, max_group=int(rng.integers(2, 12)))
        spec = SplitSpec(seed=trial, balance=False)
        parts = balanced_group_split(ds, spec)
        group_sets = [frozenset(s.group_id for s in part.samples) for part in parts]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (group_sets[i] & group_sets[j])
        total = sum(len(p) for p in parts)
        assert total == len(ds)


def test_split_balance_gives_exact_per_class_counts():
    rng = np.random.default_rng(6)
    ds = make_grouped_dataset(rng, n_classes=3, n_groups_per_class=25)
    parts = balanced_group_split(ds, SplitSpec(seed=9, balance=True))
    for part in parts:
        counts = np.bincount(part.labels(), minlength=3)
        assert counts.min() == counts.max() > 0


def test_split_singleton_groups_balance_exact_ratio_counts():
    ds = synth_dataset(100, 2, 4, 1.0, seed=7)  # every sample its own group
    train, val, test = balanced_group_split(ds, SplitSpec(seed=0, balance=True))
    assert [len(train), len(val), len(test)] == [140, 30, 30]
    for part in (train, val, test):
        counts = np.bincount(part.labels(), minlength=2)
        assert counts[0] == counts[1]


def test_split_ratios_with_group_atomicity():
    rng = np.random.default_rng(8)
    ds = make_grouped_dataset(rng, n_classes=2, n_groups_per_class=40, max_group=6)
    train, val, test = balanced_group_split(ds, SplitSpec(seed=1, balance=True))
    total = len(train) + len(val) + len(test)
    for part, ratio in zip((train, val, test), (0.7, 0.15, 0.15)):
        assert abs(len(part) / total - ratio) <= 0.05


def test_split_deterministic_under_seed():
    rng = np.random.default_rng(9)
    ds = make_grouped_dataset(rng)
    a = balanced_group_split(ds, SplitSpec(seed=3))
    b = balanced_group_split(ds, SplitSpec(seed=3))
    for pa, pb in zip(a, b):
        assert [s.group_id for s in pa.samples] == [s.group_id for s in pb.samples]


def test_split_giant_group_is_an_error():
    # one group holds an entire class; val/test cannot receive that class
    samples = [Sample(0, "giant", features=np.zeros(2)) for _ in range(50)]
    samples += [Sample(1, f"g{i}", features=np.zeros(2)) for i in range(50)]
    ds = Dataset(tuple(samples), ("a", "b"))
    with pytest.raises(SplitError, match="missing from"):
        balanced_group_split(ds, SplitSpec(seed=0, balance=True))


def test_split_too_few_groups_is_an_error():
    samples = [Sample(0, "g1", features=np.zeros(2)),
               Sample(1, "g2", features=np.zeros(2))]
    ds = Dataset(tuple(samples), ("a", "b"))
    with pytest.raises(SplitError):
        balanced_group_split(ds, SplitSpec(seed=0))


def test_split_spec_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        SplitSpec(ratios=(0.5, 0.3, 0.3))
    with pytest.raises(ValueError, match="positive"):
        SplitSpec(ratios=(1.0, 0.0, 0.0))


# --- batching ---------------------------------------------------------------

def test_batches_sizes_with_remainder():
    ds = synth_dataset(5, 2, 3, 1.0, seed=10)  # 10 samples
    parts = batches(ds.samples, 8, epoch_seed=0)
    assert [len(b) for b in parts] == [8, 2]


def test_batches_deterministic():
    ds = synth_dataset(5, 2, 3, 1.0, seed=11)
    a = batches(ds.samples, 4, epoch_seed=5)
    b = batches(ds.samples, 4, epoch_seed=5)
    assert [[s.group_id for s in batch] for batch in a] == \
           [[s.group_id for s in batch] for batch in b]
    c = batches(ds.samples, 4, epoch_seed=6)
    assert [[s.group_id for s in batch] for batch in a] != \
           [[s.group_id for s in batch] for batch in c]


def test_batches_cover_dataset_exactly():
    ds = synth_dataset(7, 2, 3, 1.0, seed=12)
    parts = batches(ds.samples, 4, epoch_seed=1)
    seen = [s.group_id for batch in parts for s in batch]
    assert sorted(seen) == sorted(s.group_id for s in ds.samples)
    assert len(seen) == len(set(seen))


def test_batches_empty_dataset():
    with pytest.raises(DataError, match="empty"):
        batches([], 4, epoch_seed=0)


# --- samples ----------------------------------------------------------------

def test_sample_needs_exactly_one_payload():
    with pytest.raises(ValueError, match="features"):
        Sample(0, "g", features=None)
