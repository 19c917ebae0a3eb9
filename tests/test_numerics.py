"""Kernels: the max-shifted exponent, softmax, simplex projection, symmetric eigenvalues."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgalab
from dgalab import oracles
from dgalab.errors import ConvergenceError, InvalidInputError
from dgalab.numerics import (
    condition_number,
    exp_rows,
    project_to_simplex,
    softmax,
    softmax_into,
    sym_eigenvalues,
)
from dgalab.oracles import jacobi_eigenvalues


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = softmax([1000.0, 1000.0, 1000.0])
        np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-15)

    def test_log_ratio_inputs(self):
        """exp/normalize of [ln 1, ln 3] is [1/4, 3/4]."""
        np.testing.assert_allclose(
            softmax([np.log(1.0), np.log(3.0)]), [0.25, 0.75], atol=1e-15
        )

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(scale=5.0, size=rng.integers(1, 40))
            out = softmax(v)
            assert abs(out.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(out, softmax(v + 123.456), atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            softmax([1.0, np.inf])
        with pytest.raises(InvalidInputError):
            softmax([])

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (10000, 32)])
    def test_rows_match_the_two_temporary_formula_bit_for_bit(self, shape):
        """One temporary, exp and division in place, gives the bits of
        exp(x - max) / sum, and leaves its input as it was. Each row's
        logits lie within +-reach, reach between 1 and 1000."""
        rng = np.random.default_rng(len(shape))
        reach = 10.0 ** rng.uniform(0.0, 3.0, size=shape[:-1] + (1,))
        mat = rng.uniform(-1.0, 1.0, size=shape) * reach
        before = mat.copy()
        e = np.exp(mat - mat.max(axis=-1, keepdims=True))
        got = softmax_into(mat, np.empty_like(mat))
        np.testing.assert_array_equal(got, e / e.sum(axis=-1, keepdims=True))
        np.testing.assert_array_equal(mat, before)

    def test_vector_input_is_left_as_it_was(self):
        v = np.array([3.0, -1.0, 0.5, 1000.0])
        before = v.copy()
        softmax(v)
        np.testing.assert_array_equal(v, before)

    @pytest.mark.parametrize("view", ["transposed", "strided"])
    def test_rows_view_input_is_left_as_it_was(self, view):
        mat = np.random.default_rng(7).normal(scale=30.0, size=(40, 24))
        mat = {"transposed": mat.T, "strided": mat[::3, 1::2]}[view]
        before = mat.copy()
        got = softmax_into(mat, np.empty_like(mat))
        np.testing.assert_array_equal(mat, before)
        assert not np.shares_memory(got, mat)

    def test_exp_rows_in_place_or_not_gives_the_shifted_exponent_and_sums(self):
        """exp(x - row max) and its row sums, into a second array or over mat.
        Rows whose max is +0 or -0 give the bits of either shift, as
        x - 0 == x - (-0) for every x != 0 and exp(+-0) == 1."""
        mat = np.array([[-0.0, -3.0, -1000.0], [0.0, -0.0, -2.5], [-0.0, 0.0, -0.0],
                        [-700.0, 5.0, 1000.0]])
        top = mat.max(axis=-1, keepdims=True)
        for zero in (0.0, -0.0):
            want = np.exp(mat - np.where(top == 0.0, zero, top))
            out, inplace = np.empty_like(mat), mat.copy()
            sums = exp_rows(mat, out)
            assert (out == want).all() and (sums == want.sum(axis=-1)).all()
            assert (exp_rows(inplace, inplace) == sums).all() and (inplace == want).all()

    @settings(max_examples=200)
    @given(row=st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=300))
    def test_exp_rows_of_a_1d_row_matches_its_one_row_matrix(self, row):
        """A 1-D row, shifted by a scalar max, gives the values and the sum of
        the same row as a (1, n) matrix, shifted by a (1, 1) max."""
        vec = np.array(row)
        out, out_mat = np.empty_like(vec), np.empty((1, vec.size))
        total, totals = exp_rows(vec, out), exp_rows(vec.reshape(1, -1), out_mat)
        assert np.ndim(total) == 0 and totals.shape == (1,)
        assert total == totals[0] and (out == out_mat[0]).all()


def test_np_exp_runs_only_in_exp_rows_and_the_oracles():
    """Every max-shifted exponent in the library goes through exp_rows; the
    oracles keep their own, so neither can hide a bug the other shares."""
    found = []
    for path in sorted(Path(dgalab.__file__).parent.glob("*.py")):
        if path.name == "oracles.py":
            continue
        owner = {}  # node -> name of its innermost enclosing def or class
        for node in ast.walk(ast.parse(path.read_text())):
            for child in ast.iter_child_nodes(node):
                owner[child] = getattr(node, "name", owner.get(node, "<module>"))
            if isinstance(node, ast.Attribute) and node.attr == "exp":
                found.append((path.name, owner[node]))
    assert sorted(set(found)) == [("numerics.py", "exp_rows")]


def test_no_oracle_binds_a_numerics_kernel():
    """oracles.py takes its softmax inline, so a bug in numerics' one kernel
    cannot hide in a fast path and in the oracle that checks it alike."""
    shared = [name for name, obj in vars(oracles).items()
              if getattr(obj, "__module__", None) == "dgalab.numerics"]
    assert shared == []


def brute_force_simplex_projection(v, steps=2001):
    """Grid search over the 1-simplex; oracle for 2-D projections."""
    ts = np.linspace(0.0, 1.0, steps)
    candidates = np.stack([ts, 1.0 - ts], axis=1)
    dists = np.linalg.norm(candidates - np.asarray(v), axis=1)
    return candidates[np.argmin(dists)]


class TestProjectToSimplex:
    def test_fixed_point_on_simplex(self):
        np.testing.assert_allclose(project_to_simplex([0.3, 0.7]), [0.3, 0.7], atol=1e-15)

    def test_vertex_projection_matches_grid_oracle(self):
        got = project_to_simplex([2.0, 0.0])
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)
        oracle = brute_force_simplex_projection([2.0, 0.0])
        np.testing.assert_allclose(got, oracle, atol=1e-3)

    def test_symmetric_overfull_input(self):
        np.testing.assert_allclose(
            project_to_simplex([0.5, 0.5, 0.5]), np.full(3, 1 / 3), atol=1e-15
        )

    def test_random_2d_against_grid_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(scale=2.0, size=2)
            np.testing.assert_allclose(
                project_to_simplex(v), brute_force_simplex_projection(v), atol=1e-3
            )

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            u, v = rng.normal(scale=3.0, size=(2, n))
            pu, pv = project_to_simplex(u), project_to_simplex(v)
            np.testing.assert_allclose(project_to_simplex(pu), pu, atol=1e-12)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12
            assert abs(pu.sum() - 1.0) <= 1e-12 and pu.min() >= 0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            project_to_simplex([np.nan, 0.0])


def eig_2x2_by_hand(a, b, d):
    """Characteristic polynomial roots of [[a, b], [b, d]]."""
    half_trace = 0.5 * (a + d)
    disc = np.sqrt(0.25 * (a - d) ** 2 + b * b)
    return np.array([half_trace + disc, half_trace - disc])


class TestSymEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(
            sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0], atol=1e-14
        )

    def test_2x2_against_characteristic_polynomial(self):
        got = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(got, [3.0, 1.0], atol=1e-14)
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b, d = rng.normal(scale=3.0, size=3)
            want = eig_2x2_by_hand(a, b, d)
            got = sym_eigenvalues(np.array([[a, b], [b, d]]))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_identity(self):
        for n in (1, 4, 9):
            np.testing.assert_allclose(sym_eigenvalues(np.eye(n)), np.ones(n), atol=1e-14)

    def test_trace_and_frobenius_reconstruction(self):
        """Eigenvalue sums and square-sums match the matrix invariants."""
        rng = np.random.default_rng(4)
        for n in (3, 10, 33, 128):
            b = rng.normal(size=(n, n))
            a = b + b.T
            eigs = sym_eigenvalues(a)
            assert np.all(np.diff(eigs) <= 1e-12)
            assert abs(eigs.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))
            fro = np.linalg.norm(a)
            assert abs(np.sqrt(np.sum(eigs**2)) - fro) <= 1e-8 * fro

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            sym_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sweep_budget_raises(self):
        a = np.eye(6) + 0.1
        with pytest.raises(ConvergenceError):
            jacobi_eigenvalues(a, max_sweeps=0)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("kind", ["repeated", "zero", "gram"])
    @settings(max_examples=20)
    @given(data=st.data())
    def test_matches_jacobi_oracle(self, kind, scale, data):
        """LAPACK and the cyclic Jacobi oracle agree within 1e-10 max|lambda|
        on integer matrices with repeated eigenvalues, the zero matrix and
        rank-2 Gram matrices, at scales 1e-100, 1 and 1e100."""
        n = data.draw(st.integers(1, 24))
        a = np.zeros((n, n))
        if kind == "repeated":
            # Two copies of one integer block: every eigenvalue but the
            # spare diagonal entry's appears at least twice.
            h = n // 2
            ints = data.draw(st.lists(st.integers(-3, 3), min_size=h * h, max_size=h * h))
            block = np.array(ints, dtype=np.float64).reshape(h, h)
            a[:h, :h] = a[h : 2 * h, h : 2 * h] = block + block.T
            if n % 2:
                a[-1, -1] = data.draw(st.integers(-3, 3))
            perm = data.draw(st.permutations(range(n)))
            a = a[np.ix_(perm, perm)]
        elif kind == "gram":
            entries = st.floats(-10.0, 10.0, allow_subnormal=False)
            x = np.array(data.draw(st.lists(entries, min_size=2 * n, max_size=2 * n)))
            a = x.reshape(n, 2) @ x.reshape(n, 2).T
        a = a * scale
        want = sym_eigenvalues(a)
        got = jacobi_eigenvalues(a)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestConditionNumber:
    def test_plain_ratio(self):
        assert condition_number([4.0, 2.0, 1.0]) == pytest.approx(4.0)

    def test_zero_mode_excluded(self):
        assert condition_number([1.0, 1e-15]) == pytest.approx(1.0)

    def test_manual_cutoff_case(self):
        assert condition_number([9.0, 3.0, 1e-12]) == pytest.approx(3.0)

    def test_degenerate_spectrum(self):
        with pytest.raises(InvalidInputError, match="no eigenvalue above the cutoff"):
            condition_number([0.0, 0.0])

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            condition_number([1.0, 2.0])
