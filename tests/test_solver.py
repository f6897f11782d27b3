
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msgdt as mg
from msgdt.checks import (
    lipschitz_ratio_max,
    self_adjointness_max_dev,
    unbiasedness_relative_error,
)
from msgdt.masking import model_for, row_mask_batch
from msgdt.solver import _row_gradient


def make_problem(m=20, l=3, q=2, n=2, p=0.5, seed=0, model_kind="uniform"):
    system = mg.gen_synthetic(mg.Dims(m, l, q, n), seed)
    if model_kind == "uniform":
        model = mg.UniformMissing(p)
    elif model_kind == "colblock":
        model = mg.ColumnBlockMissing(p, l)
    else:
        model = mg.FrontalSliceMissing(p)
    mask = mg.draw_mask(model, m, l, n, np.random.default_rng(seed + 1))
    problem = mg.ProblemInstance(
        a_tilde=mg.hadamard(mask, system.a),
        b=system.b,
        model=model,
        correction=mg.correction_tensor(model, l, n),
        x0=mg.zeros(l, q, n),
    )
    return system, problem


class TestStepSchedules:
    def test_constant(self):
        assert mg.step_size(mg.ConstantStep(0.1), 1) == 0.1
        assert mg.step_size(mg.ConstantStep(0.1), 99) == 0.1

    def test_inverse_sqrt(self):
        sched = mg.InverseSqrtStep(2.0)
        assert mg.step_size(sched, 1) == 2.0
        assert mg.step_size(sched, 4) == 1.0

    def test_hybrid_boundary_and_matching(self):
        sched = mg.HybridStep.matched(alpha=0.2, swap_iter=25)
        assert sched.c == pytest.approx(0.2 * 5)
        assert mg.step_size(sched, 1) == 0.2
        assert mg.step_size(sched, 24) == 0.2
        assert mg.step_size(sched, 25) == pytest.approx(0.2)  # matched at the swap
        assert mg.step_size(sched, 100) == pytest.approx(sched.c / 10)

    def test_one_based(self):
        with pytest.raises(ValueError):
            mg.step_size(mg.ConstantStep(0.1), 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mg.ConstantStep(0.0)
        with pytest.raises(ValueError):
            mg.InverseSqrtStep(-1.0)
        with pytest.raises(ValueError):
            mg.HybridStep(alpha=0.1, swap_iter=0, c=1.0)


class TestGradientEstimate:
    def test_p_one_is_plain_row_gradient(self):
        rng = np.random.default_rng(0)
        a_row = mg.Tensor3(rng.standard_normal((3, 1, 4)))
        b_row = mg.Tensor3(rng.standard_normal((3, 1, 2)))
        x = mg.Tensor3(rng.standard_normal((3, 4, 2)))
        c = mg.correction_tensor(mg.UniformMissing(1.0), 4, 3)
        g = mg.gradient_estimate(a_row, b_row, x, c, p=1.0)
        want = mg.tprod(mg.transpose(a_row), mg.tprod(a_row, x) - b_row)
        npt.assert_allclose(g.data, want.data, atol=1e-12)

    def test_x_zero(self):
        rng = np.random.default_rng(1)
        p = 0.4
        a_row = mg.Tensor3(rng.standard_normal((2, 1, 3)))
        b_row = mg.Tensor3(rng.standard_normal((2, 1, 2)))
        x = mg.zeros(3, 2, 2)
        c = mg.correction_tensor(mg.UniformMissing(p), 3, 2)
        g = mg.gradient_estimate(a_row, b_row, x, c, p)
        want = (-1.0 / p) * mg.tprod(mg.transpose(a_row), b_row)
        npt.assert_allclose(g.data, want.data, atol=1e-12)

    def test_p_validated(self):
        a_row = mg.ones(1, 2, 2)
        b_row = mg.ones(1, 2, 2)
        x = mg.ones(2, 2, 2)
        c = mg.correction_tensor(mg.UniformMissing(0.5), 2, 2)
        with pytest.raises(ValueError):
            mg.gradient_estimate(a_row, b_row, x, c, p=0.0)
        with pytest.raises(ValueError):
            mg.gradient_estimate(a_row, b_row, x, c, p=1.5)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            mg.gradient_estimate(
                mg.ones(1, 2, 2),
                mg.ones(1, 3, 2),
                mg.ones(3, 3, 2),  # x.m != a.l
                mg.correction_tensor(mg.UniformMissing(0.5), 2, 2),
                0.5,
            )

    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    def test_unbiased_by_enumeration(self, kind):
        system = mg.gen_synthetic(mg.Dims(4, 3, 2, 2), 7)
        x = mg.Tensor3(np.random.default_rng(8).standard_normal((2, 3, 2)))
        model = {
            "uniform": mg.UniformMissing(0.3),
            "colblock": mg.ColumnBlockMissing(0.3, 3),
            "frontal": mg.FrontalSliceMissing(0.3),
        }[kind]
        assert unbiasedness_relative_error(system.a, system.b, x, model) < 1e-10


class TestKernelMatchesDenseOracle:
    """The model-owned kernel against the dense formula with an explicit C."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        l=st.integers(1, 8),
        q=st.integers(1, 4),
        p=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        kind=st.sampled_from(["uniform", "colblock", "frontal"]),
        blank=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, l=1, q=1, p=1.0, kind="colblock", blank=False, seed=0)
    @example(n=1, l=4, q=2, p=0.5, kind="colblock", blank=True, seed=1)
    @example(n=5, l=6, q=3, p=1.0, kind="frontal", blank=False, seed=2)
    def test_relative_error(self, n, l, q, p, kind, blank, seed):
        rng = np.random.default_rng(seed)
        blocks = [b for b in range(1, l + 1) if l % b == 0] if kind == "colblock" else [1]
        for b in blocks:
            model = model_for(kind, p, b)
            mask = 0.0 if blank else row_mask_batch(model, l, n, 1, rng)[0]
            arow = mask * rng.standard_normal((n, l))
            brow = rng.standard_normal((n, q))
            x = rng.standard_normal((n, l, q))
            got = _row_gradient(arow, brow, x, model)
            want = mg.gradient_estimate(
                mg.Tensor3(arow[:, None, :]),
                mg.Tensor3(brow[:, None, :]),
                mg.Tensor3(x),
                mg.correction_tensor(model, l, n),
                p,
            ).data
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestLinearPart:
    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    def test_self_adjoint(self, kind):
        system = mg.gen_synthetic(mg.Dims(5, 3, 2, 3), 9)
        model = {
            "uniform": mg.UniformMissing(0.5),
            "colblock": mg.ColumnBlockMissing(0.5, 3),
            "frontal": mg.FrontalSliceMissing(0.5),
        }[kind]
        dev = self_adjointness_max_dev(system.a, 2, model, 25, np.random.default_rng(10))
        assert dev <= 1e-10

    def test_linear_part_is_hermitian(self):
        rng = np.random.default_rng(11)
        a_row = mg.Tensor3(rng.standard_normal((3, 1, 4)))
        c = mg.correction_tensor(mg.UniformMissing(0.5), 4, 3)
        lin = mg.update_linear_part(a_row, c, 0.5)
        assert mg.is_hermitian(lin, tol=1e-12)

    def test_matches_gradient_difference(self):
        rng = np.random.default_rng(12)
        p = 0.6
        a_row = mg.Tensor3(rng.standard_normal((2, 1, 3)))
        b_row = mg.Tensor3(rng.standard_normal((2, 1, 2)))
        c = mg.correction_tensor(mg.FrontalSliceMissing(p), 3, 2)
        x = mg.Tensor3(rng.standard_normal((2, 3, 2)))
        y = mg.Tensor3(rng.standard_normal((2, 3, 2)))
        gx = mg.gradient_estimate(a_row, b_row, x, c, p)
        gy = mg.gradient_estimate(a_row, b_row, y, c, p)
        lin = mg.update_linear_part(a_row, c, p)
        npt.assert_allclose((gx - gy).data, mg.tprod(lin, x - y).data, atol=1e-10)


class TestLipschitz:
    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    def test_empirical_ratio_below_bound(self, kind):
        system = mg.gen_synthetic(mg.Dims(6, 3, 2, 2), 13)
        model = {
            "uniform": mg.UniformMissing(0.4),
            "colblock": mg.ColumnBlockMissing(0.4, 1),
            "frontal": mg.FrontalSliceMissing(0.4),
        }[kind]
        ratio, bound = lipschitz_ratio_max(
            system.a, system.b, model, 200, np.random.default_rng(14)
        )
        assert ratio <= bound * (1 + 1e-12)


class TestProjectBall:
    def test_scales_to_radius(self):
        rng = np.random.default_rng(15)
        x = mg.Tensor3(rng.standard_normal((2, 3, 2)))
        r = mg.frob_norm(x) / 2
        proj = mg.project_ball(x, r)
        assert mg.frob_norm(proj) == pytest.approx(r, rel=1e-12)
        npt.assert_allclose(proj.data * 2, x.data, rtol=1e-12)

    def test_unbounded_is_identity(self):
        x = mg.ones(2, 2, 2)
        assert mg.project_ball(x, None) is x

    def test_idempotent(self):
        # up to one rounding of the norm comparison
        rng = np.random.default_rng(16)
        x = mg.Tensor3(rng.standard_normal((2, 3, 2)))
        once = mg.project_ball(x, 1.0)
        twice = mg.project_ball(once, 1.0)
        npt.assert_allclose(twice.data, once.data, rtol=1e-15)


class TestRun:
    def test_zero_iterations(self):
        system, problem = make_problem()
        cfg = mg.SolverConfig(schedule=mg.ConstantStep(0.01), total_iters=0, seed=1)
        res = mg.run_msgdt(problem, cfg, x_star=system.x_star)
        assert np.array_equal(res.x_final.data, problem.x0.data)
        assert len(res.trace.records) == 1
        assert res.trace.records[0].iteration == 0
        assert res.trace.records[0].step_size is None

    def test_budget_exceeds_rows(self):
        _, problem = make_problem(m=10)
        cfg = mg.SolverConfig(schedule=mg.ConstantStep(0.01), total_iters=11, sampling="once")
        with pytest.raises(ValueError, match="rows"):
            mg.run_msgdt(problem, cfg)

    def test_full_data_contracts(self):
        # p = 1, consistent system, constant step below 1/L_g
        system, problem = make_problem(m=500, l=5, q=2, n=3, p=1.0, seed=21)
        alpha = 0.5 / mg.lipschitz_constant(system.a, 1.0)
        cfg = mg.SolverConfig(schedule=mg.ConstantStep(alpha), total_iters=500, seed=3)
        res = mg.run_msgdt(problem, cfg, x_star=system.x_star)
        first = res.trace.records[0].iterate_error
        last = res.trace.records[-1].iterate_error
        assert last < first

    def test_hybrid_two_phase_median(self):
        # error at the end below error at the swap, median over seeded trials
        system, problem = make_problem(m=500, l=5, q=2, n=3, p=0.5, seed=22)
        problem = mg.ProblemInstance(
            a_tilde=system.a,  # redraw mode holds the full tensor
            b=problem.b,
            model=problem.model,
            correction=problem.correction,
            x0=problem.x0,
        )
        alpha = 0.25 / mg.lipschitz_constant(system.a, 0.5)
        swap = 2000
        sched = mg.HybridStep.matched(alpha, swap)
        finals, swaps = [], []
        for seed in range(10):
            cfg = mg.SolverConfig(
                schedule=sched,
                total_iters=4000,
                sampling="redraw",
                seed=seed,
                trace_every=1000,
                also_record=(swap,),
            )
            res = mg.run_msgdt(problem, cfg, x_star=system.x_star)
            by_iter = res.trace.by_iteration()
            swaps.append(by_iter[swap].iterate_error)
            finals.append(by_iter[4000].iterate_error)
        assert np.median(finals) < np.median(swaps)
        assert np.median(swaps) < mg.frob_norm(system.x_star)

    def test_redraw_mode_runs_past_m(self):
        system, _ = make_problem(m=5, l=3, q=2, n=2, p=0.5, seed=23)
        model = mg.UniformMissing(0.5)
        problem = mg.ProblemInstance(
            a_tilde=system.a,
            b=system.b,
            model=model,
            correction=mg.correction_tensor(model, 3, 2),
            x0=mg.zeros(3, 2, 2),
        )
        cfg = mg.SolverConfig(
            schedule=mg.ConstantStep(1e-3), total_iters=50, sampling="redraw", seed=4
        )
        res = mg.run_msgdt(problem, cfg)
        assert res.trace.records[-1].iteration == 50

    def test_deterministic(self):
        for sampling in ("once", "redraw"):
            system, problem = make_problem(m=30, seed=24)
            if sampling == "redraw":
                problem = mg.ProblemInstance(
                    a_tilde=system.a,
                    b=problem.b,
                    model=problem.model,
                    correction=problem.correction,
                    x0=problem.x0,
                )
            cfg = mg.SolverConfig(
                schedule=mg.ConstantStep(1e-3), total_iters=30, sampling=sampling, seed=77
            )
            r1 = mg.run_msgdt(problem, cfg, x_star=system.x_star)
            r2 = mg.run_msgdt(problem, cfg, x_star=system.x_star)
            assert np.array_equal(r1.x_final.data, r2.x_final.data)
            assert r1.trace.records == r2.trace.records

    def test_projection_respected(self):
        system, problem = make_problem(m=50, seed=25)
        radius = 0.1
        cfg = mg.SolverConfig(
            schedule=mg.ConstantStep(0.5), total_iters=50, projection_radius=radius, seed=5
        )
        res = mg.run_msgdt(problem, cfg)
        assert mg.frob_norm(res.x_final) <= radius * (1 + 1e-12)

    def test_trace_contents(self, tmp_path):
        system, problem = make_problem(m=40, seed=26)
        cfg = mg.SolverConfig(
            schedule=mg.ConstantStep(1e-3),
            total_iters=40,
            seed=6,
            trace_every=10,
            also_record=(7,),
        )
        res = mg.run_msgdt(problem, cfg, x_star=system.x_star, full_a=system.a)
        iters = [r.iteration for r in res.trace.records]
        assert iters == [0, 7, 10, 20, 30, 40]
        for rec in res.trace.records[1:]:
            assert rec.step_size == 1e-3
            assert rec.update_norm > 0
            assert rec.iterate_error is not None
            assert rec.objective is not None

        path = tmp_path / "trace.csv"
        res.trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,step_size,update_norm,iterate_error,objective"
        assert len(lines) == 1 + len(res.trace.records)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "" and first[2] == ""
        # 17 significant digits reproduce the float exactly
        rec = res.trace.records[-1]
        assert float(lines[-1].split(",")[3]) == rec.iterate_error


class TestObjective:
    def test_zero_at_solution(self):
        system, _ = make_problem(seed=27)
        assert mg.objective(system.a, system.b, system.x_star) == pytest.approx(0.0, abs=1e-20)
        grad = mg.full_gradient(system.a, system.b, system.x_star)
        assert mg.frob_norm(grad) == pytest.approx(0.0, abs=1e-10)

    def test_directional_finite_difference(self):
        system, _ = make_problem(m=10, seed=28)
        rng = np.random.default_rng(29)
        x = mg.Tensor3(rng.standard_normal(system.x_star.data.shape))
        z = mg.Tensor3(rng.standard_normal(system.x_star.data.shape))
        eps = 1e-5
        fd = (
            mg.objective(system.a, system.b, x + eps * z)
            - mg.objective(system.a, system.b, x - eps * z)
        ) / (2 * eps)
        analytic = mg.inner(mg.full_gradient(system.a, system.b, x), z)
        assert fd == pytest.approx(analytic, rel=1e-6)


class TestProblemValidation:
    def test_rejects_nonbinary_correction(self):
        system, problem = make_problem()
        bad = mg.Tensor3(problem.correction.data * 0.5)
        with pytest.raises(ValueError, match="0/1"):
            mg.ProblemInstance(
                a_tilde=problem.a_tilde,
                b=problem.b,
                model=problem.model,
                correction=bad,
                x0=problem.x0,
            )

    def test_rejects_nonhermitian_correction(self):
        system, problem = make_problem(l=3, n=2)
        data = problem.correction.data.copy()
        data[1, 0, 2] = 1.0  # break symmetry of the slice pairing
        with pytest.raises(ValueError, match="Hermitian"):
            mg.ProblemInstance(
                a_tilde=problem.a_tilde,
                b=problem.b,
                model=problem.model,
                correction=mg.Tensor3(data),
                x0=problem.x0,
            )

    def test_rejects_correction_of_another_model(self):
        # a valid 0/1 Hermitian C that belongs to a different model would bias g
        _, problem = make_problem(l=3, n=2, model_kind="frontal")
        with pytest.raises(ValueError, match="frontal p=0.5"):
            mg.ProblemInstance(
                a_tilde=problem.a_tilde,
                b=problem.b,
                model=problem.model,
                correction=mg.correction_tensor(mg.UniformMissing(0.5), 3, 2),
                x0=problem.x0,
            )

    def test_rejects_block_not_dividing_columns(self):
        _, problem = make_problem(l=3, n=2)
        with pytest.raises(ValueError, match="divide"):
            mg.ProblemInstance(
                a_tilde=problem.a_tilde,
                b=problem.b,
                model=mg.ColumnBlockMissing(0.5, 2),
                x0=problem.x0,
            )

    def test_rejects_shape_mismatch(self):
        system, problem = make_problem()
        with pytest.raises(ValueError):
            mg.ProblemInstance(
                a_tilde=problem.a_tilde,
                b=mg.ones(problem.b.m + 1, problem.b.l, problem.b.n),
                model=problem.model,
                correction=problem.correction,
                x0=problem.x0,
            )
