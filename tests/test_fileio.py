"""CSV readers: accepted layouts and the errors they raise."""

import numpy as np
import pytest

from coopt.fileio import read_labels_csv, read_matrix_csv, read_weights_csv


def test_matrix_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n1,2\n\n  \n3,4\n\n")
    np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="empty matrix file"):
        read_matrix_csv(path)


def test_matrix_csv_non_numeric_token_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n\n3,x\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: not a numeric row"):
        read_matrix_csv(path)


def test_labels_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("0\n\n-1\n2\n")
    np.testing.assert_array_equal(read_labels_csv(path), [0, -1, 2])


def test_labels_csv_non_integer_line_names_its_line(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("0\n1.5\n")
    with pytest.raises(ValueError, match=r"l\.csv:2: not an integer label"):
        read_labels_csv(path)


def test_labels_csv_empty_file(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty label file"):
        read_labels_csv(path)


@pytest.mark.parametrize("text, shape", [("0.25,0.25\n0.25,0.25\n", r"\(2, 2\)"),
                                         ("0.25,0.25,0.25,0.25\n", r"\(1, 4\)")],
                         ids=["2x2", "1x4"])
def test_weights_csv_must_be_a_single_column(tmp_path, text, shape):
    path = tmp_path / "w.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"w\.csv: weights must be a single column, got shape "
                       + shape):
        read_weights_csv(path)
