import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgdt as mg
from msgdt import oracle
from msgdt import tensor as tn

dims_st = st.integers(min_value=1, max_value=5)


def random_tensor(m, l, n, rng):
    return mg.Tensor3(rng.standard_normal((n, m, l)))


def identity(l, n):
    """l x l x n identity of the t-product: slice 0 is I, the rest are zero."""
    data = np.zeros((n, l, l))
    data[0] = np.eye(l)
    return mg.Tensor3(data)


def tprod_oracle(a, x):
    """Independent route: materialize bcirc and multiply unfolded matrices."""
    return oracle.fold(oracle.bcirc(a) @ oracle.unfold(x), a.n)


class TestUnfoldFold:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        t = random_tensor(3, 2, 4, rng)
        back = oracle.fold(oracle.unfold(t), t.n)
        assert np.array_equal(back.data, t.data)

    def test_stacks_slices(self):
        s0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        s1 = np.array([[5.0, 6.0], [7.0, 8.0]])
        t = mg.Tensor3(np.stack([s0, s1]))
        npt.assert_array_equal(oracle.unfold(t), np.vstack([s0, s1]))

    def test_zero(self):
        assert not oracle.unfold(mg.Tensor3(np.zeros((3, 2, 2)))).any()

    def test_fold_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            oracle.fold(np.zeros((5, 2)), 2)
        with pytest.raises(ValueError):
            oracle.fold(np.zeros(6), 2)


class TestBcirc:
    def test_1x1x2_layout(self):
        t = mg.Tensor3(np.array([1.0, 2.0]).reshape(2, 1, 1))
        npt.assert_array_equal(oracle.bcirc(t), [[1.0, 2.0], [2.0, 1.0]])

    def test_first_block_column_is_unfold(self):
        rng = np.random.default_rng(1)
        t = random_tensor(3, 2, 4, rng)
        npt.assert_array_equal(oracle.bcirc(t)[:, : t.l], oracle.unfold(t))

    def test_frobenius_scaling(self):
        rng = np.random.default_rng(2)
        t = random_tensor(4, 3, 5, rng)
        npt.assert_allclose(
            np.linalg.norm(oracle.bcirc(t)), math.sqrt(t.n) * mg.frob_norm(t), rtol=1e-14
        )


class TestTprod:
    def test_identity(self):
        rng = np.random.default_rng(3)
        x = random_tensor(3, 7, 4, rng)
        out = mg.tprod(identity(3, 4), x)
        npt.assert_allclose(out.data, x.data, rtol=0, atol=1e-15)

    def test_1x1x2_tubes(self):
        a = mg.Tensor3(np.array([1.0, 2.0]).reshape(2, 1, 1))
        x = mg.Tensor3(np.array([3.0, 4.0]).reshape(2, 1, 1))
        npt.assert_array_equal(mg.tprod(a, x).data.ravel(), [11.0, 10.0])

    def test_all_ones_unfold_entries(self):
        m, l, q, n = 2, 3, 4, 2
        prod = mg.tprod(mg.ones(m, l, n), mg.ones(l, q, n))
        assert np.all(oracle.unfold(prod) == l * n)

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


class TestTprodChunks:
    """The tube-DFT t-product takes the rows of A in chunks; every chunking agrees with bcirc."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize(
        "m", [1, tn._ROW_CHUNK - 1, tn._ROW_CHUNK, tn._ROW_CHUNK + 1, 2 * tn._ROW_CHUNK + 187]
    )
    def test_matches_bcirc_across_row_chunks(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        a = random_tensor(m, 3, n, rng)
        x = random_tensor(3, 2, n, rng)
        got = mg.tprod(a, x).data
        want = tprod_oracle(a, x).data
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestRowChunks:
    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 600])
    def test_consecutive_slices_of_at_most_256(self, count):
        chunks = tn.row_chunks(count)
        assert [i for rows in chunks for i in range(count)[rows]] == list(range(count))
        assert all(0 < rows.stop - rows.start <= 256 and rows.step is None for rows in chunks)
        assert all(rows.stop - rows.start == 256 for rows in chunks[:-1])
        assert len(chunks) == -(-count // 256)


class TestTubeSpectrum:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_parseval_scaling(self, n):
        rng = np.random.default_rng(n)
        spec = tn.tube_spectrum(n)
        x, y = rng.standard_normal((2, n, 3, 2))
        xh, yh = spec.forward(x, scaled=True), spec.forward(y, scaled=True)
        npt.assert_allclose(np.linalg.norm(xh), np.linalg.norm(x), rtol=1e-13)
        npt.assert_allclose(np.vdot(xh, yh).real, np.vdot(x, y), rtol=1e-12, atol=1e-12)
        npt.assert_allclose(spec.inverse(xh, scaled=True), x, rtol=0, atol=1e-14)
        npt.assert_allclose(spec.weights.sum(), 1.0)  # w_f / n over the half spectrum counts every frequency once

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_dc_and_nyquist_of_a_row_chunk_are_real(self, n):
        # exactly real DC and Nyquist rows keep the iterate's DC/Nyquist part real
        rng = np.random.default_rng(n)
        spec = tn.tube_spectrum(n)
        rows = rng.standard_normal((tn._ROW_CHUNK, 2, n, 4))
        hat = spec.forward(rows, axis=2)
        assert not hat[:, :, 0].imag.any()
        if n % 2 == 0:
            assert not hat[:, :, -1].imag.any()

    @pytest.mark.parametrize("n", list(range(1, 34)) + [48, 64, 128, 4096])
    def test_forward_matches_rfft(self, n):
        # the DFT-matrix product against numpy's FFT, within 1e-14 of the spectrum's largest entry (it
        # measures below 1e-15), with the sine rows at DC and Nyquist exact zeros; tubes too long for the
        # product take rfft itself, bit for bit.  The product runs at every workload's n (<= 24); from
        # n = 64, where it loses to rfft, no n^2 basis is cached (a frame stack's n is its frame count)
        rng = np.random.default_rng(n)
        spec = tn.tube_spectrum(n)
        if n <= 24:
            assert spec.basis is not None
        if n >= 64:
            assert spec.basis is None
        tol = 0.0 if spec.basis is None else 1e-14
        real_rows = [0] + ([n // 2] if n % 2 == 0 else [])
        for others in [(3, 2, 4), (0, 2, 3), (2, 0), (5, 1)]:
            for axis in [0, 1, 2, -1, -3]:
                if not -len(others) - 1 <= axis <= len(others):
                    continue
                pos = axis % (len(others) + 1)
                data = rng.standard_normal(others[:pos] + (n,) + others[pos:])
                for scaled in (False, True):
                    want = np.fft.rfft(data, axis=axis)
                    if scaled:
                        want *= spec.scale.reshape((-1,) + (1,) * (data.ndim - 1 - pos))
                    got = spec.forward(data, axis=axis, scaled=scaled)
                    assert got.shape == want.shape and got.dtype == np.complex128
                    if want.size:
                        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
                    assert not np.take(got, real_rows, axis=axis).imag.any()
        if spec.basis is not None:
            assert not spec.basis[:, 1, real_rows].view(np.int64).any()  # +0.0, not -0.0

    @pytest.mark.parametrize("n", [4, 40])
    def test_forward_rejects_another_tube_length(self, n):
        # an empty lead axis must not hide the mismatch behind a spectrum sized for n
        spec = tn.tube_spectrum(n)
        with pytest.raises(ValueError, match=f"tube axis 0 has length {n + 1}, this spectrum is for n = {n}$"):
            spec.forward(np.zeros((n + 1, 3)))
        with pytest.raises(ValueError, match=f"tube axis 1 has length {n - 1}, this spectrum is for n = {n}$"):
            spec.forward(np.zeros((0, n - 1)), axis=-1)
        # an out buffer the result cannot be written into as it is
        shape = (n // 2 + 1, 6)
        for out in (np.empty((n // 2 + 2, 6), complex), np.empty(shape), np.empty((6, n // 2 + 1), complex).T):
            with pytest.raises(ValueError, match=re.escape(f"C-contiguous complex128 array of shape {shape}")):
                spec.forward(np.zeros((n, 6)), out=out)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 24, 32, 33, 64, 128])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_a_batch_gives_each_slice_its_own_bits(self, n, scaled):
        # the layouts of row_spectra (axis 2 of (rows, R, n, w)) and run_batch (axis 1 of (R, n, l, q))
        rng = np.random.default_rng(n)
        spec = tn.tube_spectrum(n)
        rows = rng.standard_normal((tn._ROW_CHUNK, 3, n, 5))
        stacked = spec.forward(rows, axis=2, scaled=scaled)
        for r in range(3):
            assert stacked[:, r].tobytes() == spec.forward(rows[:, r], axis=1, scaled=scaled).tobytes()
        # written into a given buffer, as run_batch's workspace takes it, with the same bits
        out = np.full(stacked.shape, np.nan, dtype=np.complex128)
        assert spec.forward(rows, axis=2, scaled=scaled, out=out) is out
        assert out.tobytes() == stacked.tobytes()
        iterates = rng.standard_normal((4, n, 3, 2))
        stacked = spec.forward(iterates, axis=1, scaled=scaled)
        for r in range(4):
            assert stacked[r].tobytes() == spec.forward(iterates[r], scaled=scaled).tobytes()

    @pytest.mark.parametrize("n", [0, -1])
    def test_tube_length_must_be_positive(self, n):
        with pytest.raises(ValueError, match=f"tube length must be positive, got {n}"):
            tn.tube_spectrum(n)

    def test_shared_and_read_only(self):
        spec = tn.tube_spectrum(4)
        assert tn.tube_spectrum(4) is spec
        with pytest.raises(ValueError):
            spec.scale[0] = 1.0
        with pytest.raises(ValueError):
            spec.basis[0, 0, 0, 0] = 2.0


class TestTubeGram:
    """tube_gram's Gram matrices and cross terms are the spectra of A* * A and A* * B, across row chunks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, tn._ROW_CHUNK + 1, 2 * tn._ROW_CHUNK + 187])
    def test_spectra_of_the_t_products(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        a = random_tensor(m, 3, n, rng)
        bs = rng.standard_normal((2, n, m, 2))
        gram, cross = tn.tube_gram(a.data, bs)
        assert gram.shape == (n // 2 + 1, 3, 3) and cross.shape == (2, n // 2 + 1, 3, 2)
        spec = tn.tube_spectrum(n)
        at = mg.transpose(a)
        for got, want in [(gram, mg.tprod(at, a))] + [(c, mg.tprod(at, mg.Tensor3(b))) for c, b in zip(cross, bs)]:
            assert np.linalg.norm(spec.inverse(got) - want.data) <= 1e-12 * np.linalg.norm(want.data)
        # the cross terms of one B, alone or stacked with another, and the Gram matrices with or without B
        alone_gram, alone_cross = tn.tube_gram(a.data, bs[1])
        assert np.array_equal(alone_cross, cross[1]) and np.array_equal(alone_gram, gram)
        assert np.array_equal(tn.tube_gram(a.data), gram)


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
        assert oracle.is_hermitian(gram, tol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(m=dims_st, l=dims_st, n=dims_st, seed=st.integers(0, 2**32 - 1))
    def test_involution_property(self, m, l, n, seed):
        t = random_tensor(m, l, n, np.random.default_rng(seed))
        assert np.array_equal(mg.transpose(mg.transpose(t)).data, t.data)


class TestHermitian:
    def test_identity_true(self):
        assert oracle.is_hermitian(identity(3, 4))

    def test_shifted_tube_false(self):
        t = mg.Tensor3(np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
        assert not oracle.is_hermitian(t)

    def test_requires_square_slices(self):
        with pytest.raises(ValueError):
            oracle.is_hermitian(mg.ones(2, 3, 2))


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
            mg.inner(a, b), float(np.sum(oracle.unfold(a) * oracle.unfold(b))), rtol=1e-14
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


class TestTubeDFT:
    def test_block_diagonal_singular_values_match_bcirc(self):
        rng = np.random.default_rng(16)
        n = 4
        a = random_tensor(4, 3, n, rng)
        sv_oracle = np.sort(np.linalg.svd(oracle.bcirc(a), compute_uv=False))
        hat = tn.tube_spectrum(n).forward(a.data)
        # the half spectrum stands for every frequency: each one but DC and Nyquist
        # also for its conjugate, whose slice has the same singular values
        sv_hat = np.sort(np.concatenate([
            np.tile(np.linalg.svd(s, compute_uv=False), 1 if f == 0 or 2 * f == n else 2)
            for f, s in enumerate(hat)
        ]))
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
        path.write_bytes(b"T3F1" + np.array([2, 3, 2], dtype="<u8").tobytes() + data.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=r"t\.t3f.*non-finite"):
            mg.read_t3f1(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_refuses_non_finite_data(self, tmp_path, bad):
        data = np.ones((2, 2, 3))
        data[0, 1, 1] = bad
        path = tmp_path / "t.t3f"
        with pytest.raises(ValueError, match=r"t\.t3f.*non-finite"):
            mg.write_t3f1(mg.Tensor3(data), path)
        assert not path.exists()

    def test_read_holds_one_copy_of_the_payload(self, tmp_path):
        t = mg.Tensor3(np.random.default_rng(21).standard_normal((4, 500, 250)))  # 4 MB
        path = tmp_path / "big.t3f"
        mg.write_t3f1(t, path)
        tracemalloc.start()
        try:
            back = mg.read_t3f1(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, t.data)
        assert peak < 1.25 * t.data.nbytes

    def test_write_makes_no_copy_of_the_payload(self, tmp_path):
        t = mg.Tensor3(np.random.default_rng(22).standard_normal((4, 500, 250)))  # 4 MB
        path = tmp_path / "big.t3f"
        tracemalloc.start()
        try:
            mg.write_t3f1(t, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * t.data.nbytes
        assert path.read_bytes()[28:] == t.data.astype("<f8").tobytes()

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "t.t3f"
        path.write_bytes(b"T3F1" + bytes(10))
        with pytest.raises(ValueError):
            mg.read_t3f1(path)

    @pytest.mark.parametrize("dims", [(0, 3, 2), (2, 0, 2), (2, 3, 0), (0, 0, 0)], ids=["m", "l", "n", "all"])
    def test_rejects_a_zero_dimension_in_the_header(self, tmp_path, dims):
        # the payload of 0 bytes matches the header, so only the dims check refuses the file
        path = tmp_path / "t.t3f"
        path.write_bytes(b"T3F1" + np.array(dims, dtype="<u8").tobytes())
        with pytest.raises(ValueError, match=rf"t\.t3f: T3F1 header dims {re.escape(str(dims))} must all be positive"):
            mg.read_t3f1(path)


def test_tensor3_validation():
    with pytest.raises(ValueError):
        mg.Tensor3(np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"Tensor3 dims \(0, 3, 1\) must all be positive"):
        mg.Tensor3(np.zeros((1, 0, 3)))
    t = mg.Tensor3(np.zeros((1, 2, 3), dtype=np.float32))
    assert t.data.dtype == np.float64
    assert t.dims == (2, 3, 1)
