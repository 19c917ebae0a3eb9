"""Text round-trips for the matrix exchange format."""

import numpy as np
import pytest

from dgalab.errors import InvalidInputError
from dgalab.matrixio import (
    matrix_to_text,
    read_matrix,
    text_to_matrix,
    write_matrix,
)


class TestRoundTrip:
    def test_bit_exact_for_random_doubles(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(scale=1e10, size=(7, 5)) * 10.0 ** rng.integers(-300, 300, size=(7, 5))
        path = tmp_path / "m.mat"
        write_matrix(path, mat)
        back = read_matrix(path)
        np.testing.assert_array_equal(back, mat)

    def test_text_is_byte_stable(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(4, 3))
        text = matrix_to_text(mat)
        assert matrix_to_text(text_to_matrix(text)) == text

    def test_header_and_shape_lines(self):
        text = matrix_to_text(np.array([[1.0, 0.0], [0.25, -3.5]]))
        lines = text.splitlines()
        assert lines[0] == "MAT 1"
        assert lines[1] == "2 2"
        assert lines[2] == "1 0"

    def test_binary_mask_prints_as_integers(self):
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        body = matrix_to_text(mask).splitlines()[2:]
        assert body == ["1 0 1", "0 0 1"]

    def test_vector_becomes_single_row(self):
        text = matrix_to_text(np.array([1.5, 2.5]))
        assert text.splitlines()[1] == "1 2"


class TestValidation:
    def test_missing_header(self):
        with pytest.raises(InvalidInputError):
            text_to_matrix("2 2\n1 0\n0 1\n")

    def test_wrong_row_width(self):
        with pytest.raises(InvalidInputError):
            text_to_matrix("MAT 1\n2 2\n1 0\n0\n")

    def test_missing_rows(self):
        with pytest.raises(InvalidInputError):
            text_to_matrix("MAT 1\n3 1\n1\n2\n")

    def test_extra_rows(self):
        with pytest.raises(InvalidInputError):
            text_to_matrix("MAT 1\n1 2\n1 2\n3 4\n")
        with pytest.raises(InvalidInputError):
            text_to_matrix("MAT 1\n1 2\n1 2\n\n3 4\n\n")
        np.testing.assert_array_equal(text_to_matrix("MAT 1\n1 2\n1 2\n\n \n"), [[1.0, 2.0]])

    def test_non_finite_rejected_on_write(self):
        with pytest.raises(InvalidInputError):
            matrix_to_text(np.array([[np.inf]]))

    def test_non_finite_rejected_on_read(self):
        with pytest.raises(InvalidInputError):
            text_to_matrix("MAT 1\n1 1\ninf\n")
