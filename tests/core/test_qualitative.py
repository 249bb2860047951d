"""Unit and property tests for indicator encoding and the Table-2 forms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qualitative import (
    ModelForm,
    adjusted_coefficients,
    build_design,
    design_row,
    encode_indicators,
    num_parameters,
    term_names,
)


class TestIndicators:
    def test_one_hot_structure(self):
        Z = encode_indicators([0, 1, 2, 1], 3)
        assert Z.shape == (4, 2)
        assert Z.tolist() == [[0, 0], [1, 0], [0, 1], [1, 0]]

    def test_reference_state_all_zeros(self):
        Z = encode_indicators([0, 0], 4)
        assert np.all(Z == 0)

    def test_single_state_has_no_indicators(self):
        assert encode_indicators([0, 0, 0], 1).shape == (3, 0)

    def test_out_of_range_state_rejected(self):
        with pytest.raises(ValueError):
            encode_indicators([3], 3)
        with pytest.raises(ValueError):
            encode_indicators([-1], 3)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 8),
        states=st.lists(st.integers(0, 7), min_size=1, max_size=50),
    )
    def test_property_at_most_one_indicator_set(self, m, states):
        states = [s % m for s in states]
        Z = encode_indicators(states, m)
        assert np.all(Z.sum(axis=1) <= 1)
        # The encoding is invertible.
        for row, s in zip(Z, states):
            recovered = 0 if row.sum() == 0 else int(np.argmax(row)) + 1
            assert recovered == s


class TestDesignShapes:
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    STATES = [0, 1, 2, 1]

    @pytest.mark.parametrize(
        "form,cols",
        [
            (ModelForm.COINCIDENT, 3),
            (ModelForm.PARALLEL, 5),
            (ModelForm.CONCURRENT, 7),
            (ModelForm.GENERAL, 9),
        ],
    )
    def test_column_counts(self, form, cols):
        D = build_design(self.X, self.STATES, 3, form)
        assert D.shape == (4, cols)
        assert cols == num_parameters(2, 3, form)
        assert len(term_names(("x1", "x2"), 3, form)) == cols

    def test_m_equals_one_degenerates_to_coincident(self):
        for form in ModelForm:
            D = build_design(self.X, [0, 0, 0, 0], 1, form)
            assert D.shape == (4, 3)

    def test_intercept_column_is_ones(self):
        D = build_design(self.X, self.STATES, 3, ModelForm.GENERAL)
        assert np.all(D[:, 0] == 1.0)

    def test_general_interaction_columns(self):
        D = build_design(self.X, self.STATES, 3, ModelForm.GENERAL)
        names = term_names(("x1", "x2"), 3, ModelForm.GENERAL)
        # x1:s1 column: x1 value where state==1, else 0.
        col = D[:, names.index("x1:s1")]
        assert col.tolist() == [0.0, 3.0, 0.0, 7.0]

    def test_parallel_has_no_slope_interactions(self):
        names = term_names(("x1",), 3, ModelForm.PARALLEL)
        assert "x1:s1" not in names
        assert "b0:s1" in names

    def test_concurrent_has_no_intercept_offsets(self):
        names = term_names(("x1",), 3, ModelForm.CONCURRENT)
        assert "b0:s1" not in names
        assert "x1:s1" in names

    def test_state_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_design(self.X, [0, 1], 2, ModelForm.GENERAL)


class TestAdjustedCoefficients:
    def test_general_round_trip(self):
        # beta: b0, b0:s1, x1, x1:s1 for m=2, n=1.
        beta = np.array([1.0, 0.5, 2.0, -0.25])
        B = adjusted_coefficients(beta, 1, 2, ModelForm.GENERAL)
        assert B[0].tolist() == [1.0, 2.0]
        assert B[1].tolist() == [1.5, 1.75]

    def test_coincident_same_for_all_states(self):
        beta = np.array([1.0, 2.0])
        B = adjusted_coefficients(beta, 1, 1, ModelForm.COINCIDENT)
        assert B.shape == (1, 2)

    def test_parallel_only_intercept_varies(self):
        beta = np.array([1.0, 0.5, 2.0])  # b0, b0:s1, x1
        B = adjusted_coefficients(beta, 1, 2, ModelForm.PARALLEL)
        assert B[:, 0].tolist() == [1.0, 1.5]
        assert B[:, 1].tolist() == [2.0, 2.0]

    def test_concurrent_only_slopes_vary(self):
        beta = np.array([1.0, 2.0, 0.5])  # b0, x1, x1:s1
        B = adjusted_coefficients(beta, 1, 2, ModelForm.CONCURRENT)
        assert B[:, 0].tolist() == [1.0, 1.0]
        assert B[:, 1].tolist() == [2.0, 2.5]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            adjusted_coefficients(np.ones(3), 1, 2, ModelForm.GENERAL)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    def test_property_prediction_via_adjusted_equals_design_dot(self, n, m, seed):
        """B'[s] . (1, x) must equal the design-row dot product."""
        rng = np.random.default_rng(seed)
        beta = rng.normal(0, 1, num_parameters(n, m, ModelForm.GENERAL))
        B = adjusted_coefficients(beta, n, m, ModelForm.GENERAL)
        x = rng.normal(0, 1, n)
        for s in range(m):
            via_design = float(design_row(x, s, m, ModelForm.GENERAL) @ beta)
            via_adjusted = float(B[s, 0] + B[s, 1:] @ x)
            assert via_design == pytest.approx(via_adjusted, abs=1e-9)


class TestDesignRow:
    def test_matches_matrix_row(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        D = build_design(X, [0, 1], 2, ModelForm.GENERAL)
        row = design_row([3.0, 4.0], 1, 2, ModelForm.GENERAL)
        assert row == pytest.approx(D[1])

    @pytest.mark.parametrize("form", list(ModelForm))
    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(0, 5))
    def test_equals_the_design_matrix_row_exactly(self, form, m, n):
        """The direct row is bit-for-bit ``build_design(...)[0]`` — same
        products, so inf * 0 is nan and -x * 0 is -0.0 in both."""
        pool = [-3.5, 0.0, -0.0, 7.0, 1e308, -1e308, 5e-324, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(1000 * n + m)
        for state, _ in itertools.product(range(m), range(4)):
            values = [pool[i] for i in rng.integers(0, len(pool), n)]
            with np.errstate(all="ignore"):
                expected = build_design(
                    np.asarray(values, dtype=float).reshape(1, -1), [state], m, form
                )[0]
                row = design_row(values, state, m, form)
                beta = rng.normal(0, 1, len(row))
                dot, reference = row @ beta, expected @ beta
            assert row.dtype == expected.dtype and row.shape == expected.shape
            assert len(row) == len(term_names([f"x{j}" for j in range(n)], m, form))
            assert np.array_equal(row, expected, equal_nan=True)
            assert np.array_equal(np.signbit(row), np.signbit(expected))
            assert dot == reference or (np.isnan(dot) and np.isnan(reference))

    def test_rejects_what_the_matrix_path_rejects(self):
        for state, m in [(-1, 3), (3, 3), (1, 1)]:
            with pytest.raises(ValueError, match="state index out of range"):
                design_row([1.0], state, m, ModelForm.GENERAL)
        with pytest.raises(ValueError, match="num_states must be at least 1"):
            design_row([1.0], 0, 0, ModelForm.GENERAL)
