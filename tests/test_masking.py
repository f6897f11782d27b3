import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgdt as mg
from msgdt import masking, oracle
from msgdt.masking import (
    _pcg64_rows,
    check_positive,
    draw_rows,
    draw_units,
    masked_rows,
    model_for,
    row_mask_batch,
    unit_map,
)

ALL_KINDS = [
    mg.UniformMissing(0.5),
    mg.ColumnBlockMissing(0.5, 2),
    mg.FrontalSliceMissing(0.5),
]


class TestModelValidation:
    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ValueError):
            mg.UniformMissing(p)

    def test_p_one_allowed(self):
        assert mg.UniformMissing(1.0).p == 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ValueError, match=f"^step size must be finite and positive, got {value}$"):
            check_positive("step size", value)

    @pytest.mark.parametrize("value", [5e-324, 0.5, 3, 1e300])
    def test_check_positive_accepts(self, value):
        check_positive("step size", value)

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            mg.ColumnBlockMissing(0.5, 0)

    @pytest.mark.parametrize("b", [2.0, 1.5, True, "2"])
    def test_non_integer_block_size_named(self, b):
        with pytest.raises(ValueError, match="block size must be an integer"):
            mg.ColumnBlockMissing(0.5, b)

    def test_numpy_integer_block_size_allowed(self):
        assert mg.ColumnBlockMissing(0.5, np.int64(2)).b == 2

    def test_block_must_divide_columns(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="divide"):
            mg.draw_mask(mg.ColumnBlockMissing(0.5, 3), 2, 4, 2, rng)
        with pytest.raises(ValueError, match="divide"):
            masking.correction_tensor(mg.ColumnBlockMissing(0.5, 3), 4, 2)


class TestParseFormat:
    @pytest.mark.parametrize(
        "line,expected",
        [
            ("uniform p=0.5", mg.UniformMissing(0.5)),
            ("colblock p=0.5 b=4", mg.ColumnBlockMissing(0.5, 4)),
            ("frontal p=0.25", mg.FrontalSliceMissing(0.25)),
        ],
    )
    def test_roundtrip(self, line, expected):
        model = mg.parse_model(line)
        assert model == expected
        assert mg.parse_model(mg.format_model(model)) == model

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            mg.parse_model("")
        with pytest.raises(ValueError):
            mg.parse_model("gaussian p=0.5")

    @pytest.mark.parametrize(
        "line",
        [
            "uniform p",
            "uniform 0.5",
            "colblock p=0.5",
            "frontal p=half",
            "uniform p=1.5",
            "uniform p=0.5 b=4 zz=1",
            "uniform p=0.5 b=4",
            "frontal p=0.5 b=2",
            "frontal p=0.5 p=0.9",
            "colblock p=0.5 b=2 b=4",
            "colblock p=0.5 b=2 zz=1",
        ],
    )
    def test_malformed_spec_named(self, line):
        with pytest.raises(ValueError, match="malformed missing-model spec"):
            mg.parse_model(line)


class TestDrawMask:
    @pytest.mark.parametrize(
        "model",
        [mg.UniformMissing(1.0), mg.ColumnBlockMissing(1.0, 2), mg.FrontalSliceMissing(1.0)],
    )
    def test_p_one_all_ones(self, model):
        mask = mg.draw_mask(model, 3, 4, 2, np.random.default_rng(1))
        assert np.all(mask.data == 1.0)

    def test_entries_binary(self):
        for model in ALL_KINDS:
            mask = mg.draw_mask(model, 5, 4, 3, np.random.default_rng(2))
            assert np.all((mask.data == 0.0) | (mask.data == 1.0))

    def test_uniform_observed_fraction(self):
        # binomial standard error over 10^6 entries
        p = 0.5
        mask = mg.draw_mask(mg.UniformMissing(p), 100, 100, 100, np.random.default_rng(3))
        frac = float(np.mean(mask.data))
        assert abs(frac - p) <= 3 * math.sqrt(p * (1 - p) / 1e6)

    def test_colblock_ties_within_block(self):
        b = 2
        mask = mg.draw_mask(mg.ColumnBlockMissing(0.5, b), 20, 6, 4, np.random.default_rng(4))
        d = mask.data  # (n, m, l)
        for j in range(0, 6, b):
            block = d[:, :, j : j + b]
            # constant across the block columns and across every slice
            assert np.all(block == block[0:1, :, 0:1])

    def test_frontal_ties_within_slice(self):
        mask = mg.draw_mask(mg.FrontalSliceMissing(0.5), 20, 5, 4, np.random.default_rng(5))
        d = mask.data
        assert np.all(d == d[:, :, 0:1])
        # but slices vary independently: some row has differing slices
        assert np.any(d[:, :, 0].std(axis=0) > 0)

    def test_determinism(self):
        for model in ALL_KINDS:
            m1 = mg.draw_mask(model, 6, 4, 3, np.random.default_rng(99))
            m2 = mg.draw_mask(model, 6, 4, 3, np.random.default_rng(99))
            assert np.array_equal(m1.data, m2.data)

    def test_unit_rates_per_model(self):
        # each independent unit is Bernoulli(p): check frequencies on units
        p = 0.3
        rng = np.random.default_rng(6)
        rows = row_mask_batch(mg.ColumnBlockMissing(p, 2), 4, 3, 20000, rng)
        unit_vals = rows[:, 0, ::2]  # one representative per block
        assert abs(unit_vals.mean() - p) < 3 * math.sqrt(p * (1 - p) / unit_vals.size)
        rows = row_mask_batch(mg.FrontalSliceMissing(p), 4, 3, 20000, rng)
        unit_vals = rows[:, :, 0]
        assert abs(unit_vals.mean() - p) < 3 * math.sqrt(p * (1 - p) / unit_vals.size)


def _contract_rows(model, l, n, count, rng):
    """Row masks as the README's RNG contract states them, model by model."""
    if isinstance(model, mg.UniformMissing):
        # one uniform per entry, consumed in (row, column, slice) order
        keep = rng.random((count, l, n)) < model.p
        return keep.transpose(0, 2, 1).astype(np.float64)
    if isinstance(model, mg.ColumnBlockMissing):
        # one uniform per column block, in block order
        keep = rng.random((count, l // model.b)) < model.p
        cols = np.repeat(keep, model.b, axis=1)
        return np.broadcast_to(cols[:, None, :], (count, n, l)).astype(np.float64)
    # one uniform per frontal slice, in slice order
    keep = rng.random((count, n)) < model.p
    return np.broadcast_to(keep[:, :, None], (count, n, l)).astype(np.float64)


def _contract_unit_mask(model, l, n, bits):
    """The (n, l) row mask that keeps the units whose bit is set."""
    bits = np.array(bits, dtype=np.float64)
    if isinstance(model, mg.UniformMissing):
        return bits.reshape(l, n).T
    if isinstance(model, mg.ColumnBlockMissing):
        return np.tile(np.repeat(bits, model.b), (n, 1))
    return np.tile(bits[:, None], (1, l))


def _per_draw_rows(model, m, l, n, count, rng):
    """The draw_rows stream as per-draw calls: ``integers(m)``, then one variate per unit."""
    idx = np.empty(count, dtype=np.intp)
    variates = np.empty((count, unit_map(model, l, n)[1]))
    for k in range(count):
        idx[k] = rng.integers(m)
        variates[k] = rng.random(variates.shape[1])
    return idx, variates < model.p


CONTRACT_CASES = [
    (mg.UniformMissing(0.4), 5, 3, 1),
    (mg.UniformMissing(0.7), 20, 10, 500),
    (mg.ColumnBlockMissing(0.4, 1), 5, 3, 1),
    (mg.ColumnBlockMissing(0.5, 2), 4, 3, 2000),
    (mg.ColumnBlockMissing(0.3, 4), 20, 10, 37),
    (mg.ColumnBlockMissing(0.6, 5), 5, 1, 10),
    (mg.FrontalSliceMissing(0.4), 5, 3, 1),
    (mg.FrontalSliceMissing(0.5), 4, 3, 2000),
    (mg.FrontalSliceMissing(1.0), 3, 2, 4),
]


class TestRngContract:
    """Mask draws and enumeration follow the per-model contract exactly."""

    @pytest.mark.parametrize("model,l,n,count", CONTRACT_CASES)
    def test_draw_mask_expands_the_unit_draw(self, model, l, n, count):
        rng, twin = np.random.default_rng(22), np.random.default_rng(22)
        mask = mg.draw_mask(model, count, l, n, rng)
        keep = draw_units(model, l, n, count, twin)
        assert keep.dtype == np.bool_ and keep.shape == (count, unit_map(model, l, n)[1])
        assert np.array_equal(mask.data, keep[:, unit_map(model, l, n)[0]].transpose(1, 0, 2))
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("model,l,n,count", CONTRACT_CASES)
    def test_chunkwise_masked_rows_match_the_masked_tensor(self, model, l, n, count):
        rng = np.random.default_rng(23)
        a = mg.Tensor3(rng.standard_normal((n, count, l)))
        mask = mg.draw_mask(model, count, l, n, np.random.default_rng(24))
        keep = draw_units(model, l, n, count, np.random.default_rng(24))
        want = mg.hadamard(mask, a).data.transpose(1, 0, 2)  # rows first
        order = rng.permutation(count)
        chunk = max(1, count // 3)
        for start in range(0, count, chunk):
            rows = order[start : start + chunk]
            got = masked_rows(model, a.data, keep[rows], rows)
            assert got.dtype == np.float64
            assert got.tobytes() == np.ascontiguousarray(want[rows]).tobytes()  # signed zeros included
        if model.p < 1.0 and count > 1:
            assert np.signbit(want[want == 0.0]).any()  # 0.0 x negative entries gave -0.0

    def test_draw_units_makes_no_array_of_all_variates(self):
        model, l, n, count = mg.UniformMissing(0.5), 20, 10, 20_000
        tracemalloc.start()
        try:
            keep = draw_units(model, l, n, count, np.random.default_rng(26))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * keep.nbytes  # one call's (count, units) float variates are 8 times keep

    @pytest.mark.parametrize(
        "model", [mg.UniformMissing(0.5), mg.ColumnBlockMissing(0.5, 4), mg.FrontalSliceMissing(0.5)], ids=str
    )
    def test_draw_mask_writes_one_full_size_float_array(self, model):
        # the mask itself, plus a boolean expansion (1/8) and the unit draw (at most 1/8 more)
        m, l, n = 2000, 20, 24
        tracemalloc.start()
        try:
            mask = mg.draw_mask(model, m, l, n, np.random.default_rng(27))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * mask.data.nbytes  # a float copy of the mask before its transpose reads 2x

    @pytest.mark.parametrize("count", [1, 7, 300])
    @pytest.mark.parametrize(
        "model,units",
        [(mg.UniformMissing(0.4), 12), (mg.ColumnBlockMissing(0.5, 2), 2), (mg.FrontalSliceMissing(0.7), 3)],
        ids=["uniform", "colblock", "frontal"],
    )
    def test_draw_rows_is_one_draw_per_row(self, model, units, count):
        # the per-draw contract, written out: a row index, then that row's unit variates
        m, l, n = 13, 4, 3
        rng, twin = np.random.default_rng(25), np.random.default_rng(25)
        idx, keep = draw_rows(model, m, l, n, count, rng)
        want = [(int(twin.integers(m)), twin.random((1, units)) < model.p) for _ in range(count)]
        assert idx.shape == (count,) and keep.dtype == np.bool_ and keep.shape == (count, units)
        assert idx.tolist() == [i for i, _ in want]
        assert np.array_equal(keep, np.concatenate([k for _, k in want]))
        assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([2, 3, 13, 500, 10_000, 2**31 + 7, 2**32 - 5]),
        kind=st.sampled_from(["uniform", "colblock", "frontal"]),
        l=st.integers(1, 10),
        n=st.integers(1, 20),
        p=st.floats(0.0, 1.0, exclude_min=True),
        # no draws, one, a few, and either side of a 256-draw chunk
        count=st.sampled_from([0, 1, 2, 7, 8, 9, 255, 256, 257]),
        buffered=st.booleans(),
    )
    def test_draw_rows_equals_the_per_draw_calls(self, seed, m, kind, l, n, p, count, buffered):
        # 1-200 units; a buffered half left by an earlier integers(m) shifts every index word
        model = model_for(kind, p)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            assert rng.integers(m) == twin.integers(m)
        idx, keep = draw_rows(model, m, l, n, count, rng)
        want_idx, want_keep = _per_draw_rows(model, m, l, n, count, twin)
        assert idx.dtype == want_idx.dtype and np.array_equal(idx, want_idx)
        assert keep.dtype == np.bool_ and keep.shape == want_keep.shape and np.array_equal(keep, want_keep)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.integers(m) == twin.integers(m) and rng.random() == twin.random()

    @pytest.mark.parametrize(
        "make,m",
        [(lambda seed: np.random.Generator(np.random.Philox(seed)), 500), (np.random.default_rng, 1)],
        ids=["philox", "m=1"],
    )
    def test_draw_rows_loops_where_it_cannot_decode(self, make, m):
        model, l, n = mg.UniformMissing(0.4), 4, 3
        rng, twin = make(27), make(27)
        rng.integers(7), twin.integers(7)  # a buffered half, if the bit generator keeps one
        for count in (0, 1, 257):
            idx, keep = draw_rows(model, m, l, n, count, rng)
            want_idx, want_keep = _per_draw_rows(model, m, l, n, count, twin)
            assert np.array_equal(idx, want_idx) and np.array_equal(keep, want_keep)
            npt.assert_equal(rng.bit_generator.state, twin.bit_generator.state)  # Philox's holds arrays
        assert rng.random() == twin.random()

    def test_a_rejected_index_draw_leaves_the_state_for_the_loop(self):
        # at m = 2**31 + 7 Lemire rejects about half the halves: the decoder gives the chunk back
        m, bitgen = 2**31 + 7, np.random.PCG64(28)
        before = bitgen.state
        assert _pcg64_rows(bitgen, m, 3, 8, 0.5) is None
        assert bitgen.state == before

    @pytest.mark.parametrize("model,l,n,count", CONTRACT_CASES)
    def test_row_mask_batch_matches_contract(self, model, l, n, count):
        got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
        got = row_mask_batch(model, l, n, count, got_rng)
        want = _contract_rows(model, l, n, count, want_rng)
        assert got.dtype == np.float64 and got.shape == (count, n, l)
        assert np.array_equal(got, want)
        # both consumed the generator identically
        assert got_rng.random() == want_rng.random()

    def test_unit_map_shared_read_only(self):
        umap, units = unit_map(mg.ColumnBlockMissing(0.5, 2), 4, 3)
        assert units == 2 and umap.shape == (3, 4) and not umap.flags.writeable

    @pytest.mark.parametrize(
        "model,units",
        [
            (mg.UniformMissing(0.3), 6),
            (mg.ColumnBlockMissing(0.3, 1), 3),
            (mg.ColumnBlockMissing(0.6, 3), 1),
            (mg.FrontalSliceMissing(0.7), 2),
        ],
    )
    def test_enumeration_in_bit_order(self, model, units):
        l, n = 3, 2
        masks = list(oracle.enumerate_row_masks(model, l, n))
        assert len(masks) == 2**units
        for config, (mask, prob) in enumerate(masks):
            bits = [(config >> u) & 1 for u in range(units)]
            assert np.array_equal(mask, _contract_unit_mask(model, l, n, bits))
            ones = sum(bits)
            assert prob == model.p**ones * (1 - model.p) ** (units - ones)
        assert len({mask.tobytes() for mask, _ in masks}) == 2**units
        assert sum(prob for _, prob in masks) == pytest.approx(1.0, abs=1e-12)


class TestCorrectionTensor:
    def test_uniform_l2_n2(self):
        c = masking.correction_tensor(mg.UniformMissing(0.5), 2, 2)
        npt.assert_array_equal(c.data[0], np.eye(2))
        npt.assert_array_equal(c.data[1], np.zeros((2, 2)))

    def test_frontal_l2_n2(self):
        c = masking.correction_tensor(mg.FrontalSliceMissing(0.5), 2, 2)
        npt.assert_array_equal(c.data[0], np.ones((2, 2)))
        npt.assert_array_equal(c.data[1], np.zeros((2, 2)))

    def test_colblock_full_block(self):
        c = masking.correction_tensor(mg.ColumnBlockMissing(0.5, 3), 3, 4)
        assert np.all(c.data == 1.0)

    def test_colblock_structure(self):
        c = masking.correction_tensor(mg.ColumnBlockMissing(0.5, 2), 4, 3)
        expected = np.kron(np.eye(2), np.ones((2, 2)))
        for k in range(3):
            npt.assert_array_equal(c.data[k], expected)

    @pytest.mark.parametrize("model", ALL_KINDS)
    def test_hermitian_and_binary(self, model):
        c = masking.correction_tensor(model, 4, 3)
        assert oracle.is_hermitian(c, tol=0.0)
        assert np.all((c.data == 0.0) | (c.data == 1.0))


class TestEnumeration:
    @pytest.mark.parametrize("model", ALL_KINDS + [mg.UniformMissing(0.3)])
    def test_probabilities_sum_to_one(self, model):
        total = sum(prob for _, prob in oracle.enumerate_row_masks(model, 4, 2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_exact_identity_small(self):
        # E_D[Atilde* * Atilde] = p^2 A* * A + (p - p^2) C o (A* * A)
        rng = np.random.default_rng(7)
        a_row = mg.Tensor3(rng.standard_normal((2, 1, 3)))
        gram = mg.tprod(mg.transpose(a_row), a_row)
        for p in (0.3, 0.7):
            for model in (
                mg.UniformMissing(p),
                mg.ColumnBlockMissing(p, 1),
                mg.ColumnBlockMissing(p, 3),
                mg.FrontalSliceMissing(p),
            ):
                c = masking.correction_tensor(model, 3, 2)
                want = p * p * gram.data + (p - p * p) * c.data * gram.data
                got = oracle.exact_row_gram_expectation(a_row, model).data
                scale = np.max(np.abs(gram.data))
                assert np.max(np.abs(got - want)) / scale < 1e-12


class TestMonteCarloIdentity:
    def test_p_one_zero_deviation(self):
        rng = np.random.default_rng(8)
        a_row = mg.Tensor3(rng.standard_normal((2, 1, 3)))
        rep = masking.verify_expectation_identity(a_row, mg.UniformMissing(1.0), 500, rng)
        assert rep.max_rel_err_c1 <= 1e-12
        assert rep.max_rel_err_c2 <= 1e-12

    def test_zero_row_zero_deviation(self):
        rng = np.random.default_rng(9)
        a_row = mg.Tensor3(np.zeros((2, 1, 3)))
        rep = masking.verify_expectation_identity(a_row, mg.UniformMissing(0.5), 100, rng)
        assert rep.max_rel_err_c1 == 0.0
        assert rep.max_rel_err_c2 == 0.0

    def test_uniform_concentrates(self):
        rng = np.random.default_rng(10)
        a_row = mg.Tensor3(rng.standard_normal((2, 1, 3)))
        rep = masking.verify_expectation_identity(a_row, mg.UniformMissing(0.5), 100_000, rng)
        assert rep.max_rel_err_c1 <= 0.05
        assert rep.max_rel_err_c2 <= 0.05
        assert rep.trials == 100_000

    def test_trials_validated(self):
        rng = np.random.default_rng(11)
        a_row = mg.Tensor3(np.zeros((2, 1, 3)))
        with pytest.raises(ValueError):
            masking.verify_expectation_identity(a_row, mg.UniformMissing(0.5), 0, rng)
