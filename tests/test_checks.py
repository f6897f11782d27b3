"""The verifiers must be able to fail: feed them broken inputs and make
sure they flag the violation, so green runs mean something."""

import numpy as np
import pytest

import msgdt as mg
from msgdt.checks import (
    enumerated_gradient_mean,
    strong_convexity_margin,
    unbiasedness_relative_error,
)
from msgdt.solver import _row_gradient
from msgdt.tensor import _tprod_data


def test_wrong_correction_tensor_breaks_unbiasedness():
    system = mg.gen_synthetic(mg.Dims(4, 3, 2, 2), 0)
    x = mg.Tensor3(np.random.default_rng(1).standard_normal((2, 3, 2)))
    model = mg.FrontalSliceMissing(0.4)
    good = unbiasedness_relative_error(system.a, system.b, x, model)
    assert good < 1e-10

    # averaging g built with the uniform model's correction under frontal masks
    wrong = mg.UniformMissing(0.4)
    acc = np.zeros_like(x.data)
    for i in range(4):
        arow = system.a.data[:, i, :]
        brow = system.b.data[:, i, :]
        for mask, prob in mg.enumerate_row_masks(model, 3, 2):
            acc += prob * _row_gradient(mask * arow, brow, x.data, wrong)
    grad = mg.full_gradient(system.a, system.b, x).data
    bad = np.max(np.abs(acc / 4 - grad)) / np.max(np.abs(grad))
    assert bad > 1e-3


def test_inflated_mu_violates_inequality():
    system = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 2)
    mu, _ = mg.strong_convexity(system.a)
    rng = np.random.default_rng(3)
    assert strong_convexity_margin(system.a, system.b, mu, 50, rng) >= -1e-9
    rng = np.random.default_rng(3)
    assert strong_convexity_margin(system.a, system.b, 50 * mu, 50, rng) < 0


def test_enumerated_mean_matches_public_gradient_average():
    # the raw-kernel enumeration agrees with the public gradient_estimate
    system = mg.gen_synthetic(mg.Dims(3, 2, 2, 2), 4)
    x = mg.Tensor3(np.random.default_rng(5).standard_normal((2, 2, 2)))
    model = mg.UniformMissing(0.6)
    c = mg.correction_tensor(model, 2, 2)
    mean = enumerated_gradient_mean(system.a, system.b, x, model)
    acc = np.zeros_like(x.data)
    for i in range(3):
        a_row = mg.row_slice(system.a, i)
        b_row = mg.row_slice(system.b, i)
        for mask, prob in mg.enumerate_row_masks(model, 2, 2):
            masked = mg.Tensor3(mask[:, None, :] * a_row.data)
            acc += prob * mg.gradient_estimate(masked, b_row, x, c, 0.6).data
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
            correction=mg.correction_tensor(model, 2, 1),
            x0=mg.zeros(2, 1, 1),
        )
        cfg = mg.SolverConfig(schedule=mg.ConstantStep(1e-2), total_iters=50, seed=11)
        res = mg.run_msgdt(problem, cfg, x_star=system.x_star)
        assert res.trace.records[-1].iterate_error < res.trace.records[0].iterate_error

    def test_scalar_tensor_all_ops(self):
        t = mg.Tensor3(np.array([[[2.0]]]))
        assert mg.frob_norm(t) == 2.0
        assert np.array_equal(mg.transpose(t).data, t.data)
        assert mg.is_hermitian(t)
        assert mg.tprod(t, t).data[0, 0, 0] == 4.0
        assert _tprod_data(t.data, t.data)[0, 0, 0] == 4.0
        mu, sigma = mg.strong_convexity(t)
        assert sigma == pytest.approx(2.0)
        assert mu == pytest.approx(4.0)
