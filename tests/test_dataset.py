import re

import numpy as np
import pytest

from rampdro.dataset import (
    CsvFormatError,
    Dataset,
    flip_labels,
    generate_separable,
    inject_adversarial,
    load_csv,
    save_csv,
    select_corruption_indices,
)


def test_generate_labels_match_sign_and_reproducible():
    a = generate_separable(4, 2, 7)
    b = generate_separable(4, 2, 7)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, np.sign(a.points[:, 0]))
    assert np.all(a.points >= -10.0) and np.all(a.points <= 10.0)
    assert np.array_equal(a.weights, np.full(4, 0.25))


def test_generate_different_seeds_differ():
    a = generate_separable(50, 3, 1)
    b = generate_separable(50, 3, 2)
    assert not np.array_equal(a.points, b.points)


def test_generate_label_balance():
    ds = generate_separable(10_000, 10, 123)
    frac_pos = np.mean(ds.labels == 1.0)
    assert abs(frac_pos - 0.5) < 0.02


def test_generate_single_point():
    ds = generate_separable(1, 1, 0)
    assert ds.n == 1 and ds.d == 1
    assert ds.weights[0] == 1.0


def test_generate_validates():
    with pytest.raises(ValueError):
        generate_separable(0, 2, 1)
    with pytest.raises(ValueError):
        generate_separable(2, 0, 1)


def test_dataset_validation():
    pts = np.zeros((2, 2))
    with pytest.raises(ValueError):
        Dataset(pts, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    # the sum prints as a plain float, not as np.float64(...)
    with pytest.raises(ValueError, match=r"sum to 1, got 1\.1$"):
        Dataset(pts, np.array([1.0, -1.0]), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Dataset(pts, np.array([1.0, -1.0]), np.array([1.0, -0.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize("points,labels,weights,message", [
    ([[0.0, 1.0], [np.nan, 2.0]], [1.0, -1.0], [0.5, 0.5], "points must be finite, got nan at row 1, column 0"),
    ([[0.0, 1.0], [3.0, -np.inf]], [1.0, -1.0], [0.5, 0.5], "points must be finite, got -inf at row 1, column 1"),
    ([[0.0, 1.0], [2.0, 2.0]], [1.0, 0.5], [0.5, 0.5], "labels must be +1 or -1, got 0.5 at index 1"),
    ([[0.0, 1.0], [2.0, 2.0]], [1.0, -1.0], [1.5, -0.5], "weights must be strictly positive, got -0.5 at index 1"),
    ([[0.0, 1.0], [2.0, 2.0]], [1.0, -1.0], [np.nan, 1.0], "weights must be strictly positive, got nan at index 0"),
], ids=["nan-point", "inf-point", "label", "weight", "nan-weight"])
def test_dataset_validation_names_the_first_bad_entry(points, labels, weights, message):
    # plain values, not numpy reprs, and the position of the first bad entry
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(np.array(points), np.array(labels), np.array(weights))


def test_dataset_immutable():
    ds = generate_separable(3, 2, 0)
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


def test_dataset_owns_its_arrays():
    points = np.arange(6.0).reshape(3, 2)
    labels = np.array([1.0, -1.0, 1.0])
    weights = np.full(3, 1.0 / 3.0)
    older_view = points[:, :]
    ds = Dataset(points, labels, weights)
    # the caller's arrays stay writable, and neither they nor a view made
    # before the call write into the dataset
    assert points.flags.writeable and labels.flags.writeable and weights.flags.writeable
    points[0, 0] = 7.0
    older_view[1, 1] = 7.0
    labels[0] = -1.0
    weights[:] = 0.5
    assert np.array_equal(ds.points, np.arange(6.0).reshape(3, 2))
    assert np.array_equal(ds.labels, [1.0, -1.0, 1.0])
    assert np.array_equal(ds.weights, np.full(3, 1.0 / 3.0))
    for arr in (ds.points, ds.labels, ds.weights):
        assert not arr.flags.writeable and arr.flags.owndata


def test_dataset_copies_read_only_views():
    # a read-only view does not own its data: its base can still be written
    base = np.arange(6.0).reshape(3, 2)
    view = base[:, :]
    view.setflags(write=False)
    ds = Dataset(view, np.ones(3), np.full(3, 1.0 / 3.0))
    base[0, 0] = 7.0
    assert ds.points[0, 0] == 0.0


def test_built_datasets_adopt_their_fresh_arrays(tmp_path):
    base = generate_separable(20, 3, 4)
    for arr in (base.points, base.labels, base.weights):
        assert not arr.flags.writeable and arr.flags.owndata
    # a corruption shares the unchanged arrays with its base instead of copying
    flipped = flip_labels(base, 0.2, 5)
    assert np.shares_memory(flipped.points, base.points)
    assert np.shares_memory(flipped.weights, base.weights)
    injected = inject_adversarial(base, 0.2, 5)
    assert np.shares_memory(injected.weights, base.weights)
    save_csv(base, tmp_path / "ds.csv")
    loaded = load_csv(tmp_path / "ds.csv")
    for arr in (loaded.points, loaded.labels, loaded.weights):
        assert not arr.flags.writeable and arr.flags.owndata


def test_flip_none_is_identity():
    ds = generate_separable(10, 2, 3)
    assert flip_labels(ds, 0.0, 9).allclose(ds)


def test_flip_exact_count_and_involution():
    ds = generate_separable(10, 2, 3)
    flipped = flip_labels(ds, 0.2, 11)
    assert int(np.sum(flipped.labels != ds.labels)) == 2
    assert np.array_equal(flipped.points, ds.points)
    assert np.array_equal(flipped.weights, ds.weights)
    # same seed selects the same indices, so flipping twice restores
    assert flip_labels(flipped, 0.2, 11).allclose(ds)


def test_flip_count_snaps_binary_float_products():
    # 0.3 * 10 = 2.999...96 in binary; the intended count is 3
    assert select_corruption_indices(10, 0.3, 0).size == 3


def test_flip_fraction_range():
    ds = generate_separable(10, 2, 3)
    with pytest.raises(ValueError):
        flip_labels(ds, 0.6, 1)
    with pytest.raises(ValueError):
        flip_labels(ds, -0.1, 1)


def test_inject_none_is_identity():
    ds = generate_separable(8, 3, 5)
    assert inject_adversarial(ds, 0.0, 2).allclose(ds)


def test_inject_adversarial_count_and_content():
    ds = generate_separable(10_000, 4, 5)
    adv = inject_adversarial(ds, 0.3, 2)
    hit = (adv.points[:, 0] == -10.0) & (adv.labels == 1.0)
    assert int(hit.sum()) >= 3000
    idx = select_corruption_indices(10_000, 0.3, 2)
    assert idx.size == 3000
    assert np.all(adv.points[idx, 0] == -10.0)
    assert np.all(adv.labels[idx] == 1.0)
    # untouched coordinates survive
    rest = np.setdiff1d(np.arange(10_000), idx)
    assert np.array_equal(adv.points[rest], ds.points[rest])
    assert np.array_equal(adv.points[:, 1:], ds.points[:, 1:])


def test_injected_points_misclassified_by_canonical_hyperplane():
    ds = inject_adversarial(generate_separable(100, 3, 1), 0.25, 4)
    idx = select_corruption_indices(100, 0.25, 4)
    scores = ds.labels[idx] * ds.points[idx, 0]  # w = e1, b = 0
    assert np.all(scores == -10.0)


def test_csv_round_trip(tmp_path):
    ds = generate_separable(3, 2, 9)
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    again = load_csv(path)
    assert again.allclose(ds, tol=0.0)  # 17 significant digits round-trip exactly
    # and the serialized form is stable
    save_csv(again, tmp_path / "ds2.csv")
    assert (tmp_path / "ds.csv").read_text() == (tmp_path / "ds2.csv").read_text()


def test_csv_nonuniform_weights_round_trip(tmp_path):
    w = np.array([0.2, 0.3, 0.5])
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([1.0, -1.0, 1.0]), w)
    path = tmp_path / "w.csv"
    save_csv(ds, path)
    assert load_csv(path).allclose(ds, tol=0.0)


def test_csv_missing_weight_column_defaults_uniform(tmp_path):
    path = tmp_path / "nw.csv"
    path.write_text("x1,x2,y\n0.5,1.5,1\n-0.25,2,-1\n")
    ds = load_csv(path)
    assert np.array_equal(ds.weights, np.full(2, 0.5))


def test_csv_bad_label_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n1.0,1\n2.0,0\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(path)


@pytest.mark.parametrize("row,column", [("nan,2,-1", "x1"), ("inf,2,-1", "x1"), ("1,-inf,1", "x2")])
def test_csv_non_finite_feature_names_line(tmp_path, row, column):
    # the row parsed, and only Dataset rejected it, with no line number
    path = tmp_path / "nan.csv"
    path.write_text(f"x1,x2,y\n1,2,1\n{row}\n")
    with pytest.raises(CsvFormatError, match=f"line 3: feature {column} must be finite"):
        load_csv(path)


def test_csv_inconsistent_columns(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("x1,x2,y\n1.0,2.0,1\n1.0,-1\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(path)


def test_csv_nonpositive_weight(tmp_path):
    path = tmp_path / "w0.csv"
    path.write_text("x1,y,p\n1.0,1,0.0\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        load_csv(path)


def test_csv_infinite_weight_names_line(tmp_path):
    # an infinite weight reached Dataset, which reported only the sum
    path = tmp_path / "winf.csv"
    path.write_text("x1,y,p\n1.0,1,0.5\n2.0,1,inf\n")
    with pytest.raises(CsvFormatError, match="line 3: weight must be positive and finite, got inf"):
        load_csv(path)


def test_csv_header_validation(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b,y\n1.0,2.0,1\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        load_csv(path)


def test_csv_unparseable_number(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("x1,y\nfoo,1\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        load_csv(path)


def test_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError):
        load_csv(path)
