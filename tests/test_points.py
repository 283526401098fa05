import csv

import numpy as np
import pytest

from nnsums import PointSet


def test_basic_shape_and_dim():
    xs = PointSet([[0.0, 1.0], [2.0, 3.0]])
    assert len(xs) == 2
    assert xs.dim == 2
    assert xs.coords.shape == (2, 2)


def test_one_dimensional_input_promotes():
    xs = PointSet([0.0, 1.0, 3.0])
    assert xs.dim == 1
    assert len(xs) == 3


def test_coords_are_read_only():
    xs = PointSet([[0.0, 1.0]])
    with pytest.raises(ValueError):
        xs.coords[0, 0] = 5.0


def test_duplicates_allowed():
    xs = PointSet([[1.0, 2.0], [1.0, 2.0]])
    assert len(xs) == 2


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        PointSet([[0.0, np.inf]])
    with pytest.raises(ValueError):
        PointSet([[np.nan]])


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        PointSet(np.zeros((3, 0)))


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    xs = PointSet(rng.normal(size=(40, 3)))
    path = tmp_path / "pts.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([repr(float(v)) for v in row] for row in xs.coords)
    back = PointSet.from_csv(path)
    assert back.dim == 3
    np.testing.assert_array_equal(back.coords, xs.coords)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="row 2"):
        PointSet.from_csv(path)


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,abc\n")
    with pytest.raises(ValueError, match="row 2"):
        PointSet.from_csv(path)


def test_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no points"):
        PointSet.from_csv(path)
