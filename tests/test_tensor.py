import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgdt as mg
from msgdt.tensor import from_slices

dims_st = st.integers(min_value=1, max_value=5)


def random_tensor(m, l, n, rng):
    return mg.Tensor3(rng.standard_normal((n, m, l)))


def tprod_oracle(a, x):
    """Independent route: materialize bcirc and multiply unfolded matrices."""
    return mg.fold(mg.bcirc(a) @ mg.unfold(x), a.n)


class TestUnfoldFold:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        t = random_tensor(3, 2, 4, rng)
        back = mg.fold(mg.unfold(t), t.n)
        assert np.array_equal(back.data, t.data)

    def test_stacks_slices(self):
        s0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        s1 = np.array([[5.0, 6.0], [7.0, 8.0]])
        t = from_slices([s0, s1])
        npt.assert_array_equal(mg.unfold(t), np.vstack([s0, s1]))

    def test_zero(self):
        assert not mg.unfold(mg.Tensor3(np.zeros((3, 2, 2)))).any()

    def test_fold_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            mg.fold(np.zeros((5, 2)), 2)
        with pytest.raises(ValueError):
            mg.fold(np.zeros(6), 2)


class TestBcirc:
    def test_1x1x2_layout(self):
        t = mg.Tensor3(np.array([1.0, 2.0]).reshape(2, 1, 1))
        npt.assert_array_equal(mg.bcirc(t), [[1.0, 2.0], [2.0, 1.0]])

    def test_first_block_column_is_unfold(self):
        rng = np.random.default_rng(1)
        t = random_tensor(3, 2, 4, rng)
        npt.assert_array_equal(mg.bcirc(t)[:, : t.l], mg.unfold(t))

    def test_frobenius_scaling(self):
        rng = np.random.default_rng(2)
        t = random_tensor(4, 3, 5, rng)
        npt.assert_allclose(
            np.linalg.norm(mg.bcirc(t)), math.sqrt(t.n) * mg.frob_norm(t), rtol=1e-14
        )


class TestTprod:
    def test_identity(self):
        rng = np.random.default_rng(3)
        x = random_tensor(3, 7, 4, rng)
        out = mg.tprod(mg.identity_tensor(3, 4), x)
        npt.assert_allclose(out.data, x.data, rtol=0, atol=1e-15)

    def test_1x1x2_tubes(self):
        a = mg.Tensor3(np.array([1.0, 2.0]).reshape(2, 1, 1))
        x = mg.Tensor3(np.array([3.0, 4.0]).reshape(2, 1, 1))
        npt.assert_array_equal(mg.tprod(a, x).data.ravel(), [11.0, 10.0])

    def test_all_ones_unfold_entries(self):
        m, l, q, n = 2, 3, 4, 2
        prod = mg.tprod(mg.ones(m, l, n), mg.ones(l, q, n))
        assert np.all(mg.unfold(prod) == l * n)

    def test_dimension_mismatch_names_shapes(self):
        a = mg.ones(2, 3, 2)
        x = mg.ones(4, 2, 2)
        with pytest.raises(ValueError, match=r"\(2, 3, 2\).*\(4, 2, 2\)"):
            mg.tprod(a, x)
        with pytest.raises(ValueError):
            mg.tprod(mg.ones(2, 3, 2), mg.ones(3, 2, 5))

    def test_matches_bcirc_oracle_100_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m, l, q = rng.integers(1, 9, size=3)
            n = int(rng.integers(1, 9))
            a = random_tensor(m, l, n, rng)
            x = random_tensor(l, q, n, rng)
            got = mg.tprod(a, x).data
            want = tprod_oracle(a, x).data
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(got - want)) / scale <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(m=dims_st, l=dims_st, q=dims_st, n=dims_st, seed=st.integers(0, 2**32 - 1))
    def test_matches_bcirc_oracle_property(self, m, l, q, n, seed):
        rng = np.random.default_rng(seed)
        a = random_tensor(m, l, n, rng)
        x = random_tensor(l, q, n, rng)
        npt.assert_allclose(mg.tprod(a, x).data, tprod_oracle(a, x).data, atol=1e-10)


class TestTranspose:
    def test_involution(self):
        rng = np.random.default_rng(5)
        t = random_tensor(3, 4, 5, rng)
        assert np.array_equal(mg.transpose(mg.transpose(t)).data, t.data)

    def test_tube_reversal(self):
        t = mg.Tensor3(np.array([10.0, 11.0, 12.0]).reshape(3, 1, 1))
        npt.assert_array_equal(mg.transpose(t).data.ravel(), [10.0, 12.0, 11.0])

    def test_product_rule(self):
        rng = np.random.default_rng(6)
        a = random_tensor(3, 4, 5, rng)
        b = random_tensor(4, 2, 5, rng)
        lhs = mg.transpose(mg.tprod(a, b))
        rhs = mg.tprod(mg.transpose(b), mg.transpose(a))
        npt.assert_allclose(lhs.data, rhs.data, atol=1e-13)

    def test_gram_is_hermitian(self):
        rng = np.random.default_rng(7)
        a = random_tensor(5, 3, 4, rng)
        gram = mg.tprod(mg.transpose(a), a)
        assert mg.is_hermitian(gram, tol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(m=dims_st, l=dims_st, n=dims_st, seed=st.integers(0, 2**32 - 1))
    def test_involution_property(self, m, l, n, seed):
        t = random_tensor(m, l, n, np.random.default_rng(seed))
        assert np.array_equal(mg.transpose(mg.transpose(t)).data, t.data)


class TestHermitian:
    def test_identity_true(self):
        assert mg.is_hermitian(mg.identity_tensor(3, 4))

    def test_shifted_tube_false(self):
        t = mg.Tensor3(np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
        assert not mg.is_hermitian(t)

    def test_requires_square_slices(self):
        with pytest.raises(ValueError):
            mg.is_hermitian(mg.ones(2, 3, 2))


class TestInnerNorm:
    def test_all_ones_norm(self):
        assert mg.frob_norm(mg.ones(2, 3, 2)) == pytest.approx(math.sqrt(12), abs=0)

    def test_zero_norm(self):
        assert mg.frob_norm(mg.Tensor3(np.zeros((2, 2, 2)))) == 0.0

    def test_inner_matches_unfold(self):
        rng = np.random.default_rng(8)
        a = random_tensor(3, 2, 4, rng)
        b = random_tensor(3, 2, 4, rng)
        npt.assert_allclose(
            mg.inner(a, b), float(np.sum(mg.unfold(a) * mg.unfold(b))), rtol=1e-14
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mg.inner(mg.ones(2, 2, 2), mg.ones(2, 2, 3))


class TestElementwise:
    def test_hadamard_with_ones_and_zero(self):
        rng = np.random.default_rng(9)
        t = random_tensor(2, 3, 2, rng)
        assert np.array_equal(mg.hadamard(t, mg.ones(2, 3, 2)).data, t.data)
        assert not mg.hadamard(t, mg.Tensor3(np.zeros((2, 2, 3)))).data.any()

    def test_partition_identity(self):
        # (1 - C) o H + C o H == H for any 0/1 tensor C
        rng = np.random.default_rng(10)
        h = random_tensor(3, 3, 2, rng)
        c = mg.Tensor3((rng.random((2, 3, 3)) < 0.5).astype(float))
        comp = mg.ones(3, 3, 2) - c
        back = mg.hadamard(comp, h) + mg.hadamard(c, h)
        assert np.array_equal(back.data, h.data)

    def test_add_sub_scale(self):
        rng = np.random.default_rng(11)
        a = random_tensor(2, 2, 3, rng)
        b = random_tensor(2, 2, 3, rng)
        npt.assert_array_equal((a + b).data, a.data + b.data)
        npt.assert_array_equal((a - b).data, a.data - b.data)
        npt.assert_array_equal((2.5 * a).data, 2.5 * a.data)
        npt.assert_array_equal((-a).data, -a.data)
        with pytest.raises(ValueError):
            a + mg.ones(2, 2, 2)


class TestRowSlice:
    def test_single_row_tensor(self):
        rng = np.random.default_rng(12)
        t = random_tensor(1, 4, 3, rng)
        assert np.array_equal(mg.row_slice(t, 0).data, t.data)

    def test_norms_partition(self):
        rng = np.random.default_rng(13)
        t = random_tensor(5, 3, 2, rng)
        total = sum(mg.frob_norm(mg.row_slice(t, i)) ** 2 for i in range(t.m))
        assert total == pytest.approx(mg.frob_norm(t) ** 2, rel=1e-13)

    def test_entries(self):
        rng = np.random.default_rng(14)
        t = random_tensor(4, 3, 2, rng)
        rs = mg.row_slice(t, 2)
        for j in range(t.l):
            for k in range(t.n):
                assert rs.data[k, 0, j] == t.data[k, 2, j]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mg.row_slice(mg.ones(2, 2, 2), 2)


class TestTubeDFT:
    def test_constant_tube(self):
        n, c = 4, 3.5
        t = mg.Tensor3(np.full((n, 1, 1), c))
        hat = mg.tube_dft(t).ravel()
        npt.assert_allclose(hat[0], n * c, rtol=1e-14)
        npt.assert_allclose(hat[1:], 0, atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(15)
        t = random_tensor(3, 2, 6, rng)
        back = mg.tube_idft(mg.tube_dft(t))
        npt.assert_allclose(back.real, t.data, rtol=1e-10, atol=1e-12)
        npt.assert_allclose(back.imag, 0, atol=1e-12)

    def test_block_diagonal_singular_values_match_bcirc(self):
        rng = np.random.default_rng(16)
        a = random_tensor(4, 3, 3, rng)
        sv_oracle = np.sort(np.linalg.svd(mg.bcirc(a), compute_uv=False))
        hat = mg.tube_dft(a)
        sv_hat = np.sort(np.concatenate([np.linalg.svd(s, compute_uv=False) for s in hat]))
        npt.assert_allclose(sv_hat, sv_oracle, atol=1e-8)


class TestSubMultiplicativity:
    def test_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m, l, q = rng.integers(1, 7, size=3)
            n = int(rng.integers(1, 6))
            a = random_tensor(m, l, n, rng)
            x = random_tensor(l, q, n, rng)
            lhs = mg.frob_norm(mg.tprod(a, x))
            rhs = math.sqrt(n) * mg.frob_norm(a) * mg.frob_norm(x)
            assert lhs <= rhs * (1 + 1e-12)

    def test_all_ones_tightness_exact(self):
        m, l, q, n = 3, 4, 2, 5
        prod = mg.tprod(mg.ones(m, l, n), mg.ones(l, q, n))
        assert np.all(prod.data == float(l * n))
        assert mg.inner(prod, prod) == float((l * n) ** 2 * m * q * n)
        assert mg.frob_norm(prod) == math.sqrt((l * n) ** 2 * m * q * n)

    @settings(max_examples=40, deadline=None)
    @given(m=dims_st, l=dims_st, q=dims_st, n=dims_st, seed=st.integers(0, 2**32 - 1))
    def test_property(self, m, l, q, n, seed):
        rng = np.random.default_rng(seed)
        a = random_tensor(m, l, n, rng)
        x = random_tensor(l, q, n, rng)
        assert mg.frob_norm(mg.tprod(a, x)) <= math.sqrt(n) * mg.frob_norm(a) * mg.frob_norm(x) * (
            1 + 1e-12
        )


class TestAdjointIdentity:
    def test_random(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            a = random_tensor(4, 3, 3, rng)
            x = random_tensor(3, 2, 3, rng)
            y = random_tensor(4, 2, 3, rng)
            lhs = mg.inner(mg.tprod(a, x), y)
            rhs = mg.inner(x, mg.tprod(mg.transpose(a), y))
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


class TestT3F1:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(19)
        t = random_tensor(3, 4, 2, rng)
        path = tmp_path / "t.t3f"
        mg.write_t3f1(t, path)
        back = mg.read_t3f1(path)
        assert np.array_equal(back.data, t.data)
        assert back.dims == t.dims

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.t3f"
        path.write_bytes(b"NOPE" + bytes(24))
        with pytest.raises(ValueError, match="magic"):
            mg.read_t3f1(path)

    def test_rejects_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(20)
        t = random_tensor(2, 2, 2, rng)
        path = tmp_path / "t.t3f"
        mg.write_t3f1(t, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload"):
            mg.read_t3f1(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_payload(self, tmp_path, bad):
        data = np.ones((2, 2, 3))
        data[1, 0, 2] = bad
        path = tmp_path / "t.t3f"
        mg.write_t3f1(mg.Tensor3(data), path)
        with pytest.raises(ValueError, match=r"t\.t3f.*non-finite"):
            mg.read_t3f1(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "t.t3f"
        path.write_bytes(b"T3F1" + bytes(10))
        with pytest.raises(ValueError):
            mg.read_t3f1(path)


def test_tensor3_validation():
    with pytest.raises(ValueError):
        mg.Tensor3(np.zeros((2, 2)))
    t = mg.Tensor3(np.zeros((1, 2, 3), dtype=np.float32))
    assert t.data.dtype == np.float64
    assert t.dims == (2, 3, 1)
