"""Algebra presets: pinned matrices, product identities, layer verification."""

import numpy as np
import pytest

from kronmri.algebra import MAX_TRIALS, AlgebraPreset, preset, verify_algebra
from kronmri.errors import ConfigError, NumericError
from kronmri.rng import Rng
from kronmri.tensor import Tensor


class TestPresetMatrices:
    def test_real(self):
        p = preset("real")
        assert p.n == 1
        assert np.array_equal(p.matrices[0], [[1.0]])

    def test_complex_pinned(self):
        p = preset("complex")
        assert np.array_equal(p.matrices[0], np.eye(2))
        assert np.array_equal(p.matrices[1], [[0.0, -1.0], [1.0, 0.0]])

    def test_complex_j_squares_to_minus_identity(self):
        j = preset("complex").matrices[1]
        assert np.array_equal(j @ j, -np.eye(2))

    def test_entries_are_signs(self):
        for name in ("real", "complex", "quaternion"):
            for m in preset(name).matrices:
                assert set(np.unique(m)).issubset({-1.0, 0.0, 1.0})

    def test_first_matrix_is_identity(self):
        for name in ("real", "complex", "quaternion"):
            p = preset(name)
            assert np.array_equal(p.matrices[0], np.eye(p.n))

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            preset("octonion")


class TestTableOracle:
    def test_complex_pinned_product(self):
        # (1 + 2i)(3 + 4i) = -5 + 10i
        p = preset("complex")
        assert np.allclose(p.product([1, 2], [3, 4]), [-5.0, 10.0])

    def test_quaternion_basis_products(self):
        q = preset("quaternion")
        one, i, j, k = np.eye(4)
        assert np.array_equal(q.product(i, j), k)      # ij = k
        assert np.array_equal(q.product(j, i), -k)     # ji = -k
        assert np.array_equal(q.product(j, k), i)
        assert np.array_equal(q.product(k, i), j)
        for unit in (i, j, k):
            assert np.array_equal(q.product(unit, unit), -one)

    def test_ijk_equals_minus_one(self):
        q = preset("quaternion")
        one, i, j, k = np.eye(4)
        assert np.array_equal(q.product(q.product(i, j), k), -one)

    def test_real_commutes(self):
        p = preset("real")
        assert p.product([3.0], [4.0]) == pytest.approx([12.0])
        assert p.product([4.0], [3.0]) == pytest.approx([12.0])


class TestLayerRealization:
    def test_complex_pinned_through_layer(self):
        p = preset("complex")
        layer = p.layer(np.array([1.0, 2.0]))
        out = layer(Tensor(np.array([[3.0, 4.0]]))).data[0]
        assert np.allclose(out, [-5.0, 10.0], atol=1e-14)

    def test_quaternion_ij_through_layer(self):
        q = preset("quaternion")
        layer = q.layer(np.array([0.0, 1.0, 0.0, 0.0]))     # multiply by i
        out = layer(Tensor(np.array([[0.0, 0.0, 1.0, 0.0]]))).data[0]
        assert np.allclose(out, [0.0, 0.0, 0.0, 1.0], atol=1e-14)  # = k

    def test_materialized_weight_is_left_multiplication_matrix(self):
        # Every column u of the materialized W must equal q * e_u from the
        # table, i.e. W is the left-multiplication matrix of q.
        q = preset("quaternion")
        coeffs = Rng(200).uniform((4,), -2, 2)
        w = q.layer(coeffs).materialize_weight().data
        for u in range(4):
            e = np.zeros(4)
            e[u] = 1.0
            assert np.allclose(w[:, u], q.product(coeffs, e), atol=1e-14)

    def test_unit_j_matches_pinned_matrix(self):
        q = preset("quaternion")
        w = q.layer(np.array([0.0, 0.0, 1.0, 0.0])).materialize_weight().data
        assert np.array_equal(w, q.matrices[2])

    def test_real_layer_is_scalar_multiplication(self):
        p = preset("real")
        layer = p.layer(np.array([2.5]))
        assert layer(Tensor(np.array([[1.5]]))).data[0, 0] == pytest.approx(3.75)

    def test_mixing_is_frozen(self):
        layer = preset("complex").layer(np.array([1.0, 0.0]))
        assert layer.train_mixing is False
        assert layer.param_count() == 2 * 1 + 2  # blocks + bias only


class TestVerify:
    @pytest.mark.parametrize("name", ["real", "complex", "quaternion"])
    def test_thousand_trials(self, name):
        report = verify_algebra(preset(name), 1000, Rng(300))
        assert report["passed"]
        assert report["trials"] == 1000
        assert report["max_abs_deviation"] < 1e-10

    def test_corrupted_preset_fails(self):
        bad = AlgebraPreset("quaternion")
        bad.matrices[1] = -bad.matrices[1]  # flip the sign convention of i
        with pytest.raises(NumericError):
            verify_algebra(bad, 10, Rng(301))

    def test_trials_validated(self):
        with pytest.raises(ConfigError):
            verify_algebra(preset("real"), 0, Rng(0))

    def test_trials_over_the_cap_are_refused(self):
        with pytest.raises(ConfigError, match=str(MAX_TRIALS)):
            verify_algebra(preset("real"), MAX_TRIALS + 1, Rng(0))

    def test_report_dict_shape(self):
        d = verify_algebra(preset("complex"), 5, Rng(302))
        assert d["preset"] == "complex"
        assert d["passed"] is True
        assert set(d) == {"preset", "trials", "max_abs_deviation", "tolerance", "passed"}
