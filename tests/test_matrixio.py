"""The matrix exchange format that dump_case writes and numpy.loadtxt reads."""

import numpy as np

from dgalab.matrixio import dump_case


def dump_text(tmp_path, mat) -> str:
    (path,) = dump_case(tmp_path, [("m", mat)])
    with open(path) as fh:
        return fh.read()


def load(tmp_path) -> np.ndarray:
    return np.loadtxt(tmp_path / "m.mat", skiprows=2, ndmin=2)


class TestRoundTrip:
    def test_bit_exact_for_random_doubles(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(scale=1e10, size=(7, 5)) * 10.0 ** rng.integers(-300, 300, size=(7, 5))
        mat[0] = [1e300, -1e300, 5e-324, np.finfo(np.float64).max, 1.0 / 3.0]
        mat[1, :2] = [0.0, -0.0]
        dump_text(tmp_path, mat)
        back = load(tmp_path)
        np.testing.assert_array_equal(back, mat)
        assert np.signbit(back[1, 1]) and not np.signbit(back[1, 0])

    def test_text_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        text = dump_text(tmp_path, rng.normal(size=(4, 3)))
        assert dump_text(tmp_path, load(tmp_path)) == text

    def test_header_and_shape_lines(self, tmp_path):
        text = dump_text(tmp_path, np.array([[1.0, 0.0], [0.25, -3.5]]))
        assert text == "MAT 1\n2 2\n1 0\n0.25 -3.5\n"

    def test_binary_mask_prints_as_integers(self, tmp_path):
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert dump_text(tmp_path, mask).splitlines()[2:] == ["1 0 1", "0 0 1"]

    def test_vector_becomes_single_row(self, tmp_path):
        assert dump_text(tmp_path, np.array([1.5, 2.5])) == "MAT 1\n1 2\n1.5 2.5\n"
        np.testing.assert_array_equal(load(tmp_path), [[1.5, 2.5]])

    def test_non_finite_written_and_read_back(self, tmp_path):
        mat = np.array([[np.nan, 1.0], [np.inf, -np.inf]])
        assert dump_text(tmp_path, mat) == "MAT 1\n2 2\nnan 1\ninf -inf\n"
        np.testing.assert_array_equal(load(tmp_path), mat)


def test_dump_case_writes_each_named_matrix(tmp_path):
    out = tmp_path / "case"
    paths = dump_case(out, [("Q", np.eye(2)), ("got", np.zeros((1, 3)))])
    assert paths == [str(out / "Q.mat"), str(out / "got.mat")]
    assert (out / "got.mat").read_text() == "MAT 1\n1 3\n0 0 0\n"
