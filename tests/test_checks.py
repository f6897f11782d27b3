"""The verifiers must be able to fail: feed them broken inputs and make
sure they flag the violation, so green runs mean something."""

import tracemalloc

import numpy as np
import pytest

import msgdt as mg
from msgdt import checks, masking, oracle
from msgdt.checks import (
    enumerated_gradient_mean,
    lipschitz_ratio_max,
    second_moment_sample,
    self_adjointness_max_dev,
    strong_convexity_margin,
    unbiasedness_relative_error,
)
from msgdt.masking import draw_rows, masked_rows
from msgdt.solver import _row_gradient
from msgdt.tensor import tube_spectrum


def test_wrong_correction_tensor_breaks_unbiasedness():
    system = mg.gen_synthetic(mg.Dims(4, 3, 2, 2), 0)
    x = mg.Tensor3(np.random.default_rng(1).standard_normal((2, 3, 2)))
    model = mg.FrontalSliceMissing(0.4)
    good = unbiasedness_relative_error(system.a, system.b, x, model)
    assert good < 1e-10

    # averaging g built with the uniform model's correction under frontal masks
    wrong = mg.UniformMissing(0.4)
    spec = tube_spectrum(2)
    yhat = spec.forward(x.data, scaled=True)
    acc = np.zeros_like(yhat)
    for i in range(4):
        arow = system.a.data[:, i, :]
        pbhat = 0.4 * spec.forward(system.b.data[:, i, :], scaled=True)
        for mask, prob in oracle.enumerate_row_masks(model, 3, 2):
            acc += prob * _row_gradient(spec.forward(mask * arow), pbhat, yhat, wrong, spec)
    grad = oracle.full_gradient(system.a, system.b, x).data
    bad = np.max(np.abs(spec.inverse(acc / 4, scaled=True) - grad)) / np.max(np.abs(grad))
    assert bad > 1e-3


def test_unbiasedness_at_a_zero_gradient_is_the_absolute_gap():
    # B = 0 and X = 0 make the full gradient and every g exactly zero: the gap is not divided by the zero scale
    system = mg.gen_synthetic(mg.Dims(4, 3, 2, 2), 0)
    gap = unbiasedness_relative_error(system.a, mg.zeros(4, 2, 2), mg.zeros(3, 2, 2), mg.UniformMissing(0.4))
    assert gap == 0.0


def test_inflated_mu_violates_inequality():
    system = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 2)
    mu, _ = mg.strong_convexity(system.a)
    rng = np.random.default_rng(3)
    assert strong_convexity_margin(system.a, system.b, mu, 50, rng) >= -1e-9
    rng = np.random.default_rng(3)
    assert strong_convexity_margin(system.a, system.b, 50 * mu, 50, rng) < 0


def test_self_adjointness_over_no_draws_refused():
    # over zero draws the largest gap would read 0.0, a pass
    system = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 2)
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        self_adjointness_max_dev(system.a, 2, mg.UniformMissing(0.5), 0, np.random.default_rng(0))


def test_strong_convexity_over_no_pairs_refused():
    # over zero pairs the smallest slack would read inf, no violation
    system = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 2)
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        strong_convexity_margin(system.a, system.b, 1.0, 0, np.random.default_rng(0))


@pytest.mark.parametrize("check", ["enumerated_gradient_mean", "lipschitz_ratio_max", "second_moment_sample"])
@pytest.mark.parametrize("b_dims", [(4, 2, 2), (8, 2, 3)], ids=["fewer-rows", "other-tube-length"])
def test_a_b_without_as_rows_or_tube_length_is_refused(check, b_dims):
    # without the check, a 4-row B ends in an IndexError and a B of tube length 3 in numpy's broadcast message
    system = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 2)
    b, x = mg.zeros(*b_dims), mg.zeros(3, 2, 2)
    model, rng = mg.UniformMissing(0.5), np.random.default_rng(0)
    run = {
        "enumerated_gradient_mean": lambda: enumerated_gradient_mean(system.a, b, x, model),
        "lipschitz_ratio_max": lambda: lipschitz_ratio_max(system.a, b, model, 300, rng),
        "second_moment_sample": lambda: second_moment_sample(system.a, b, x, model, 300, rng),
    }[check]
    dims = ", ".join(map(str, b_dims))
    with pytest.raises(ValueError, match=rf"^B dims \({dims}\) inconsistent with A dims \(8, 3, 2\): B needs A's 8 "
                                         r"rows and tube length 2$"):
        run()


@pytest.mark.parametrize("check", ["enumerated_gradient_mean", "second_moment_sample", "objective", "full_gradient"])
@pytest.mark.parametrize("x_dims", [(3, 1, 2), (2, 2, 2), (3, 2, 3)], ids=["one-column", "two-rows", "tube-of-3"])
def test_an_x_without_the_systems_dims_is_refused(check, x_dims):
    # unchecked, X dims (3, 1, 2) and (2, 2, 2) ended both checks in numpy's "non-broadcastable output operand" and
    # "matmul: ... mismatch in its core dimension 0"; objective and full_gradient refused each X by another message
    system = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 2)
    x, model = mg.zeros(*x_dims), mg.UniformMissing(0.5)
    run = {
        "enumerated_gradient_mean": lambda: enumerated_gradient_mean(system.a, system.b, x, model),
        "second_moment_sample": lambda: second_moment_sample(system.a, system.b, x, model, 300,
                                                             np.random.default_rng(0)),
        "objective": lambda: mg.objective(system.a, system.b, x),
        "full_gradient": lambda: oracle.full_gradient(system.a, system.b, x),
    }[check]
    dims = ", ".join(map(str, x_dims))
    with pytest.raises(ValueError, match=rf"^X dims \({dims}\) inconsistent with system \(3, 2, 2\)$"):
        run()


def test_enumerated_mean_matches_public_gradient_average():
    # the raw-kernel enumeration agrees with the public gradient_estimate
    system = mg.gen_synthetic(mg.Dims(3, 2, 2, 2), 4)
    x = mg.Tensor3(np.random.default_rng(5).standard_normal((2, 2, 2)))
    model = mg.UniformMissing(0.6)
    c = masking.correction_tensor(model, 2, 2)
    mean = enumerated_gradient_mean(system.a, system.b, x, model)
    acc = np.zeros_like(x.data)
    for i in range(3):
        a_row = mg.Tensor3(system.a.data[:, i : i + 1, :])
        b_row = mg.Tensor3(system.b.data[:, i : i + 1, :])
        for mask, prob in oracle.enumerate_row_masks(model, 2, 2):
            masked = mg.Tensor3(mask[:, None, :] * a_row.data)
            acc += prob * oracle.gradient_estimate(masked, b_row, x, c, 0.6).data
    np.testing.assert_allclose(mean.data, acc / 3, atol=1e-13)


class TestDegenerateDims:
    def test_single_slice_tprod_is_matmul(self):
        rng = np.random.default_rng(6)
        a = mg.Tensor3(rng.standard_normal((1, 3, 2)))
        x = mg.Tensor3(rng.standard_normal((1, 2, 4)))
        np.testing.assert_allclose(mg.tprod(a, x).data[0], a.data[0] @ x.data[0], atol=1e-14)

    def test_single_slice_gradient_unbiased(self):
        system = mg.gen_synthetic(mg.Dims(3, 2, 2, 1), 7)
        x = mg.Tensor3(np.random.default_rng(8).standard_normal((1, 2, 2)))
        for model in (mg.UniformMissing(0.5), mg.FrontalSliceMissing(0.5)):
            assert unbiasedness_relative_error(system.a, system.b, x, model) < 1e-10

    def test_single_slice_solver_run(self):
        system = mg.gen_synthetic(mg.Dims(50, 2, 1, 1), 9)
        model = mg.UniformMissing(0.7)
        mask = mg.draw_mask(model, 50, 2, 1, np.random.default_rng(10))
        problem = mg.ProblemInstance(
            a_tilde=mg.hadamard(mask, system.a),
            b=system.b,
            model=model,
            x0=mg.zeros(2, 1, 1),
        )
        cfg = mg.SolverConfig(schedule=mg.ConstantStep(1e-2), total_iters=50, seed=11)
        res = mg.run_msgdt(problem, cfg, x_star=system.x_star)
        assert res.trace.records[-1].iterate_error < res.trace.records[0].iterate_error

    def test_scalar_tensor_all_ops(self):
        t = mg.Tensor3(np.array([[[2.0]]]))
        assert mg.frob_norm(t) == 2.0
        assert np.array_equal(mg.transpose(t).data, t.data)
        assert oracle.is_hermitian(t)
        assert mg.tprod(t, t).data[0, 0, 0] == 4.0
        mu, sigma = mg.strong_convexity(t)
        assert sigma == pytest.approx(2.0)
        assert mu == pytest.approx(4.0)


class TestBatchedDraws:
    """The Monte Carlo checks send their draws through the kernel in chunks; each
    must give the bits and leave the generator where one draw at a time does."""

    MODELS = (mg.UniformMissing(0.5), mg.ColumnBlockMissing(0.6, 2), mg.FrontalSliceMissing(0.4))

    @staticmethod
    def one_draw(a, b, model, rng):
        """(ahat, pbhat) of one (row, mask) draw, transformed as a single row."""
        spec = tube_spectrum(a.n)
        idx, keep = draw_rows(model, a.m, a.l, a.n, 1, rng)
        arow = masked_rows(model, a.data, keep, idx)[0]
        return spec.forward(arow), spec.forward(b.data[:, idx[0], :], scaled=True) * model.p

    def reference_second_moment(self, a, b, x, model, trials, rng):
        spec = tube_spectrum(a.n)
        yhat = spec.forward(x.data, scaled=True)
        total = 0.0
        for _ in range(trials):
            g = _row_gradient(*self.one_draw(a, b, model, rng), yhat, model, spec)
            total += float(np.vdot(g, g).real)
        return total / trials

    def reference_lipschitz(self, a, b, model, trials, rng):
        _, l, n = a.dims
        q = b.l
        spec = tube_spectrum(n)
        worst = 0.0
        for _ in range(trials):
            ahat, pbhat = self.one_draw(a, b, model, rng)
            x, y = rng.standard_normal((n, l, q)), rng.standard_normal((n, l, q))
            xhat, yhat = (spec.forward(v, scaled=True) for v in (x, y))
            gx, gy = (_row_gradient(ahat, pbhat, vhat, model, spec) for vhat in (xhat, yhat))
            denom = float(np.linalg.norm(x - y))
            if denom != 0.0:
                worst = max(worst, float(np.linalg.norm(gx - gy)) / denom)
        return worst

    @staticmethod
    def reference_self_adjointness(a, b_cols, model, trials, rng):
        """The largest gap with the dense linear part M, built from C per draw and applied by tprod."""
        m, l, n = a.dims
        c = masking.correction_tensor(model, l, n)
        worst = 0.0
        for _ in range(trials):
            idx, keep = draw_rows(model, m, l, n, 1, rng)
            arow = masked_rows(model, a.data, keep, idx)[0]
            lin = oracle.update_linear_part(mg.Tensor3(arow[:, None, :]), c, model.p)
            x, y = (mg.Tensor3(rng.standard_normal((n, l, b_cols))) for _ in range(2))
            lhs, rhs = mg.inner(mg.tprod(lin, x), y), mg.inner(x, mg.tprod(lin, y))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        return worst

    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("model", MODELS, ids=["uniform", "colblock", "frontal"])
    def test_self_adjointness_matches_the_dense_linear_part(self, model, trials):
        system = mg.gen_synthetic(mg.Dims(7, 4, 3, 3), trials)
        rng, ref_rng = np.random.default_rng(trials), np.random.default_rng(trials)
        assert self_adjointness_max_dev(system.a, 2, model, trials, rng) <= 1e-12
        assert self.reference_self_adjointness(system.a, 2, model, trials, ref_rng) <= 1e-12
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("model", MODELS, ids=["uniform", "colblock", "frontal"])
    def test_self_adjointness_flags_a_non_symmetric_linear_part(self, model, monkeypatch):
        system = mg.gen_synthetic(mg.Dims(7, 4, 3, 3), 5)
        assert self_adjointness_max_dev(system.a, 2, model, 50, np.random.default_rng(6)) <= 1e-12
        row_gradient = checks._row_gradient

        def skewed(ahat, pbhat, yhat, model, spec):
            # plus a cyclic shift of the columns: a permutation matrix that is not its own transpose
            return row_gradient(ahat, pbhat, yhat, model, spec) + np.roll(yhat, 1, axis=-2)

        monkeypatch.setattr(checks, "_row_gradient", skewed)
        assert self_adjointness_max_dev(system.a, 2, model, 50, np.random.default_rng(6)) > 1e-3

    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("model", MODELS, ids=["uniform", "colblock", "frontal"])
    def test_second_moment_matches_one_draw_at_a_time(self, model, trials):
        system = mg.gen_synthetic(mg.Dims(7, 4, 3, 3), trials)
        x = mg.Tensor3(np.random.default_rng(1).standard_normal((3, 4, 3)))
        rng, ref_rng = np.random.default_rng(trials), np.random.default_rng(trials)
        got = second_moment_sample(system.a, system.b, x, model, trials, rng)
        assert got.trials == trials
        assert got.mean_sq_norm == self.reference_second_moment(system.a, system.b, x, model, trials, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("model", MODELS, ids=["uniform", "colblock", "frontal"])
    def test_lipschitz_matches_one_draw_at_a_time(self, model, trials):
        system = mg.gen_synthetic(mg.Dims(7, 4, 3, 3), trials)
        rng, ref_rng = np.random.default_rng(trials), np.random.default_rng(trials)
        ratio, bound = lipschitz_ratio_max(system.a, system.b, model, trials, rng)
        assert ratio == self.reference_lipschitz(system.a, system.b, model, trials, ref_rng)
        assert bound == mg.lipschitz_constant(system.a, model.p)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_second_moment_memory_does_not_grow_with_trials(self):
        system = mg.gen_synthetic(mg.Dims(40, 8, 4, 6), 2)
        x = mg.Tensor3(np.random.default_rng(3).standard_normal((6, 8, 4)))
        model = mg.UniformMissing(0.5)
        second_moment_sample(system.a, system.b, x, model, 10, np.random.default_rng(4))  # warm the caches

        def peak(trials):
            tracemalloc.start()
            try:
                second_moment_sample(system.a, system.b, x, model, trials, np.random.default_rng(4))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3000) <= 1.5 * peak(300)
