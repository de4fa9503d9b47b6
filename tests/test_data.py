"""Ingestion, synthetic data, group-aware splitting, batching."""
import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtlsim.data import (
    DataError,
    Dataset,
    SplitError,
    SplitSpec,
    balanced_group_split,
    batches,
    load_feature_csv,
    synth_dataset,
)

from oracle import read_feature_csv, write_feature_csv


def make_grouped_dataset(rng, n_classes=3, n_groups_per_class=20, max_group=8, dim=2):
    """Random group sizes, one class per group."""
    rows, labels, group_ids = [], [], []
    for c in range(n_classes):
        for g in range(n_groups_per_class):
            size = int(rng.integers(1, max_group + 1))
            for k in range(size):
                rows.append(rng.standard_normal(dim))
                labels.append(c)
                group_ids.append(f"c{c}g{g}")
    names = tuple(f"class{c}" for c in range(n_classes))
    return Dataset(np.array(rows), labels, group_ids, names)


def label_names(ds):
    return [ds.class_names[label] for label in ds.labels]


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
    assert ds.group_ids == ("p1", "p1", "p2")
    np.testing.assert_array_equal(ds.labels, [0, 0, 1])
    np.testing.assert_array_equal(ds.features[0], [1.5, -2.0, 0.25])
    assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
    assert not ds.features.flags.writeable


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
    with pytest.raises(DataError, match="line 3: unknown label 'b'"):
        load_feature_csv(path, class_names=["a"])
    ds = load_feature_csv(path, class_names=["b", "a"])
    assert ds.labels[0] == 1  # pinned mapping, not first appearance


def test_csv_round_trip_preserves_values(tmp_path):
    ds = synth_dataset(5, 2, 7, 3.0, seed=1)
    path = tmp_path / "rt.csv"
    write_feature_csv(path, ds)
    back = load_feature_csv(path)
    assert back.class_names == ds.class_names
    assert back.group_ids == ds.group_ids
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.features, ds.features)  # exact round trip


# commas, quotes and spaces drawn often, so csv.writer quotes many fields
FIELD_TEXT = st.text(st.sampled_from(',"  ') | st.characters(
    blacklist_characters="\r\n\x00", blacklist_categories=("Cs",)), max_size=6)
FEATURE_TEXT = st.builds(
    lambda v, fmt, left, right: " " * left + fmt % v + " " * right,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["%r", "%.17g", "%e"]), st.integers(0, 2), st.integers(0, 2))


@given(data=st.data(), n_rows=st.integers(1, 6), width=st.integers(1, 4))
def test_loader_matches_the_float_reference(data, n_rows, width):
    """On rows written by csv.writer (random group ids and labels, finite
    values as repr, %.17g or %e, space-padded or not), the bulk parse
    equals csv.reader + float() bit for bit."""
    rows = [[data.draw(FIELD_TEXT), data.draw(FIELD_TEXT)]
            + [data.draw(FEATURE_TEXT) for _ in range(width)] for _ in range(n_rows)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feat.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group_id", "label"] + [f"f{i}" for i in range(width)])
            writer.writerows(rows)
        group_ids, labels, features = read_feature_csv(path)
        ds = load_feature_csv(path)
    assert ds.group_ids == tuple(group_ids)
    assert label_names(ds) == labels
    assert ds.class_names == tuple(dict.fromkeys(labels))
    assert ds.features.shape == features.shape
    assert ds.features.tobytes() == features.tobytes()


def test_load_feature_csv_skips_blank_lines_and_reads_crlf(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_bytes(b"group_id,label,f0,f1\r\n\r\np1,a,1.5,2\r\n\r\n\r\np2,b,-3,4e-1\r\n")
    ds = load_feature_csv(path)
    assert ds.group_ids == ("p1", "p2") and label_names(ds) == ["a", "b"]
    np.testing.assert_array_equal(ds.features, [[1.5, 2.0], [-3.0, 0.4]])


def test_load_feature_csv_quoted_group_id_with_a_comma(tmp_path):
    path = tmp_path / "feat.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerows([["group_id", "label", "f0", "f1"],
                          ["ward 3, bed 2", 'say "a"', "1.0", "2.0"],
                          ["p2", "b", "3.0", "4.0"]])
    ds = load_feature_csv(path)
    assert ds.group_ids == ("ward 3, bed 2", "p2")
    assert ds.class_names == ('say "a"', "b")
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("bad_row, message", [
    ("p9,a", "expected 4 fields, got 2"),
    ("p9,a,1.0", "expected 4 fields, got 3"),
    ("p9,a,1.0,2.0,3.0", "expected 4 fields, got 5"),
    ('"p9",a,1.0', "expected 4 fields, got 3"),
    ("p9,a,1.0,zzz", "f1 is not a number: 'zzz'"),
    ("p9,a,3#x,1.0", "f0 is not a number: '3#x'"),
    ("p9,a,1_000,1.0", "f0 is not a number: '1_000'"),
    ("p9,a,1.0,\u0661\u0662", "f1 is not a number"),
    ("p9,a,inf,1.0", "non-finite feature value"),
    ("p9,a,1.0,nan", "non-finite feature value"),
    ("p9,c,1.0,2.0", "unknown label 'c'"),
])
@pytest.mark.parametrize("lineno", [2, 4, 6])
def test_load_feature_csv_errors_name_their_line(tmp_path, bad_row, message, lineno):
    """Whatever the fault and wherever its line, the DataError names that
    line. Python's float() would accept 1_000 and non-ASCII digits; the
    loader does not."""
    lines = ["group_id,label,f0,f1"] + [f"p{i},{'ab'[i % 2]},{i}.5,-{i}" for i in range(5)]
    lines[lineno - 1] = bad_row
    path = tmp_path / "feat.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"line {lineno}: {message}"):
        load_feature_csv(path, class_names=["a", "b"])


def test_load_feature_csv_reports_a_malformed_line_before_a_label_before_a_value(tmp_path):
    """With several faulty lines, the error names the first malformed one,
    else the first unknown label, else the first non-finite value, wherever
    each lies in the file."""
    faulty = ["p0,a,nan,1.0", "p1,c,1.0,2.0", "p2,b,1.0"]
    path = tmp_path / "feat.csv"
    for n_faulty, message in ((3, "line 4: expected 4 fields, got 3"),
                              (2, "line 3: unknown label 'c'"),
                              (1, "line 2: non-finite feature value")):
        rows = ["group_id,label,f0,f1", *faulty[:n_faulty], "p3,b,1.0,2.0"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_feature_csv(path, class_names=["a", "b"])


def test_load_feature_csv_empty_single_value_names_its_line(tmp_path):
    """numpy skips an empty line, so an empty lone feature must not drop its row."""
    path = tmp_path / "feat.csv"
    path.write_text("group_id,label,f0\np1,a,1.0\np2,b,\np3,a,2.0\n")
    with pytest.raises(DataError, match="line 3: f0 is not a number: ''"):
        load_feature_csv(path)


def test_load_feature_csv_no_data_rows(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("group_id,label,f0\n\n")
    with pytest.raises(DataError, match="no data rows"):
        load_feature_csv(path)
    path.write_text("")
    with pytest.raises(DataError, match="empty file"):
        load_feature_csv(path)



@pytest.mark.parametrize("where", ["header", "first row", "past the first chunk"])
def test_load_feature_csv_refuses_text_that_is_not_utf8(tmp_path, where):
    """A Latin-1 byte in the header, in a row that the header read decodes
    with it, or in a row thousands of lines on, which the bulk parse and
    its re-read decode, is a DataError naming the file and no line: the
    text is decoded in chunks. A UTF-8 group id of the same name loads."""
    rows = [f"p{i},a,{i}.5\n" for i in range(3000)]
    path = tmp_path / "feat.csv"
    path.write_text("group_id,label,f0\n" + "".join(rows) + "caf\u00e9,b,1\n", encoding="utf-8")
    assert load_feature_csv(path).group_ids[-1] == "caf\u00e9"
    text = path.read_bytes().replace("\u00e9".encode(), b"\xe9")
    if where == "header":
        text = text.replace(b"f0", b"f\xff0", 1)
    elif where == "first row":
        text = text.replace(b"p1,", b"p\xfc1,", 1)
    path.write_bytes(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
        load_feature_csv(path)


# --- synthetic data -------------------------------------------------------

def test_synth_dataset_deterministic():
    a = synth_dataset(10, 3, 8, 2.0, seed=42)
    b = synth_dataset(10, 3, 8, 2.0, seed=42)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.group_ids == b.group_ids


def test_synth_dataset_shapes_and_groups():
    ds = synth_dataset(6, 2, 5, 1.0, seed=0, group_size=3)
    assert len(ds) == 12
    assert ds.features.shape == (12, 5)
    assert len(set(ds.group_ids)) == 4  # 2 groups per class
    counts = np.bincount(ds.labels)
    np.testing.assert_array_equal(counts, [6, 6])


def test_synth_separated_classes_are_centroid_separable():
    """separation=10 leaves classes >= 99% separable by nearest centroid."""
    ds = synth_dataset(200, 2, 32, 10.0, seed=3)
    feats = ds.features
    labels = ds.labels
    centroids = np.stack([feats[labels == c].mean(axis=0) for c in range(2)])
    d = np.stack([np.linalg.norm(feats - centroids[c], axis=1) for c in range(2)])
    assert np.mean(d.argmin(axis=0) == labels) >= 0.99


def test_synth_zero_separation_is_not_separable():
    ds = synth_dataset(300, 2, 16, 0.0, seed=4)
    order = np.random.default_rng(0).permutation(len(ds))
    feats = ds.features[order]
    labels = ds.labels[order]
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
        group_sets = [frozenset(part.group_ids) for part in parts]
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
        counts = np.bincount(part.labels, minlength=3)
        assert counts.min() == counts.max() > 0


def test_split_singleton_groups_balance_exact_ratio_counts():
    ds = synth_dataset(100, 2, 4, 1.0, seed=7)  # every sample its own group
    train, val, test = balanced_group_split(ds, SplitSpec(seed=0, balance=True))
    assert [len(train), len(val), len(test)] == [140, 30, 30]
    for part in (train, val, test):
        counts = np.bincount(part.labels, minlength=2)
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
        assert pa.group_ids == pb.group_ids


@given(seed=st.integers(0, 2**32 - 1), split_seed=st.integers(0, 2**16), balance=st.booleans(),
       n_classes=st.integers(2, 4), n_groups=st.integers(3, 60), max_group=st.integers(1, 8),
       mixed=st.floats(0.0, 0.5))
def test_split_invariants_over_random_group_structures(seed, split_seed, balance, n_classes,
                                                       n_groups, max_group, mixed):
    """Any group structure, some groups mixing classes: no group straddles
    two subsets, the subsets are disjoint and (without balance) cover every
    row, each row keeps its label and group, balance gives exactly equal
    per-class counts, and the same seed gives the same split or the same
    SplitError."""
    rng = np.random.default_rng(seed)
    labels, group_ids = [], []
    for g in range(n_groups):
        major = int(rng.integers(n_classes))
        for _ in range(int(rng.integers(1, max_group + 1))):
            labels.append(int(rng.integers(n_classes)) if rng.random() < mixed else major)
            group_ids.append(f"g{g}")
    rows = np.arange(len(labels), dtype=float)[:, None]  # feature 0 is the row number
    ds = Dataset(rows, labels, group_ids, tuple(f"c{c}" for c in range(n_classes)))
    spec = SplitSpec(seed=split_seed, balance=balance)
    try:
        parts = balanced_group_split(ds, spec)
    except SplitError as err:
        with pytest.raises(SplitError, match=re.escape(str(err))):
            balanced_group_split(ds, spec)
        return
    again = balanced_group_split(ds, spec)
    for part, repeat in zip(parts, again):
        assert part.features.tobytes() == repeat.features.tobytes()
        assert part.labels.tobytes() == repeat.labels.tobytes()
        assert part.group_ids == repeat.group_ids
    taken = [part.features[:, 0].astype(int) for part in parts]
    every = np.concatenate(taken)
    assert len(np.unique(every)) == len(every)
    if not balance:
        assert sorted(every) == list(range(len(ds)))
    group_sets = [set(part.group_ids) for part in parts]
    assert all(not group_sets[i] & group_sets[j] for i in range(3) for j in range(i + 1, 3))
    for part, idx in zip(parts, taken):
        assert len(part) > 0
        assert part.labels.tolist() == ds.labels[idx].tolist()
        assert list(part.group_ids) == [ds.group_ids[i] for i in idx]
        if balance:
            counts = np.bincount(part.labels, minlength=n_classes)
            assert counts.min() == counts.max() > 0


def test_split_giant_group_is_an_error():
    # one group holds an entire class; val/test cannot receive that class
    ds = Dataset(np.zeros((100, 2)), [0] * 50 + [1] * 50,
                 ["giant"] * 50 + [f"g{i}" for i in range(50)], ("a", "b"))
    with pytest.raises(SplitError, match="missing from"):
        balanced_group_split(ds, SplitSpec(seed=0, balance=True))


def test_split_too_few_groups_is_an_error():
    ds = Dataset(np.zeros((2, 2)), [0, 1], ["g1", "g2"], ("a", "b"))
    with pytest.raises(SplitError):
        balanced_group_split(ds, SplitSpec(seed=0))


def test_split_spec_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        SplitSpec(ratios=(0.5, 0.3, 0.3))
    with pytest.raises(ValueError, match="positive"):
        SplitSpec(ratios=(1.0, 0.0, 0.0))


# --- batching ---------------------------------------------------------------

def test_batches_sizes_with_remainder():
    parts = batches(10, 8, epoch_seed=0)
    assert [len(b) for b in parts] == [8, 2]


def test_batches_deterministic():
    a = batches(10, 4, epoch_seed=5)
    b = batches(10, 4, epoch_seed=5)
    assert [batch.tolist() for batch in a] == [batch.tolist() for batch in b]
    c = batches(10, 4, epoch_seed=6)
    assert [batch.tolist() for batch in a] != [batch.tolist() for batch in c]


def test_batches_cover_dataset_exactly():
    parts = batches(14, 4, epoch_seed=1)
    seen = np.concatenate(parts)
    assert sorted(seen.tolist()) == list(range(14))


def test_batches_empty_dataset():
    with pytest.raises(DataError, match="empty"):
        batches(0, 4, epoch_seed=0)


# --- the columnar dataset ---------------------------------------------------

def test_dataset_needs_a_feature_matrix():
    with pytest.raises(ValueError, match="feature matrix"):
        Dataset(None, [0], ["g"], ("a",))
    with pytest.raises(ValueError, match="feature matrix"):
        Dataset(np.zeros((2, 3)), [0], ["g", "h"], ("a",))
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.full((1, 2), np.nan), [0], ["g"], ("a",))
    with pytest.raises(ValueError, match="out of range for 2 classes"):
        Dataset(np.zeros((1, 2)), [2], ["g"], ("a", "b"))


def test_dataset_owns_a_read_only_copy_and_subsets_slice_it():
    source = np.arange(12.0).reshape(4, 3)
    ds = Dataset(source, [0, 1, 0, 1], ["a", "b", "c", "d"], ("x", "y"))
    source[0, 0] = 99.0
    assert ds.features[0, 0] == 0.0 and not ds.features.flags.writeable
    part = ds.subset([3, 1])
    np.testing.assert_array_equal(part.features, source[[3, 1]])
    np.testing.assert_array_equal(part.labels, [1, 1])
    assert part.group_ids == ("d", "b") and part.class_names == ("x", "y")
    assert len(ds.subset([])) == 0
