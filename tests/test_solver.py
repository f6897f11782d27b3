
import dataclasses
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msgdt as mg
from msgdt import masking, oracle, solver
from msgdt.checks import (
    lipschitz_ratio_max,
    self_adjointness_max_dev,
    unbiasedness_relative_error,
)
from msgdt.masking import draw_rows, draw_units, masked_rows, model_for, row_mask_batch
from msgdt.solver import (
    _apply,
    _coefficients,
    _fill_terms,
    _flat,
    _norm,
    _project,
    _row_gradient,
    _row_source,
    _slot,
    _steps_at,
    _term_views,
    _views,
    row_spectra,
    run_batch,
)
from msgdt.tensor import row_chunks, tube_spectrum


def step_table(schedule, total_iters):
    """Step sizes of iterations 1..total_iters as one array: the formula run_batch takes a slice at a time."""
    return _steps_at(schedule, np.arange(1, total_iters + 1, dtype=np.float64))


def spatial_row_gradient(arow, brow, x, model):
    """The spectral kernel on spatial (n, l), (n, q), (n, l, q) inputs, returned as g."""
    spec = tube_spectrum(arow.shape[0])
    ghat = _row_gradient(
        spec.forward(arow), model.p * spec.forward(brow, scaled=True), spec.forward(x, scaled=True), model, spec
    )
    return spec.inverse(ghat, scaled=True)


def stage_terms(chunk, pb, n, alphas, coeffs):
    """The terms run_batch's stage builder writes for the rows ``chunk`` and ``pb``: a slot's views, by _fill_terms."""
    rows, runs, _, l = chunk.shape
    slot = _slot(rows, runs, n, l, pb.shape[-1], coeffs)
    slot.ahat[...], slot.pbhat[...] = chunk, pb
    _fill_terms(slot.terms, slot.ahat, alphas, coeffs)
    return slot.terms


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
        sched = mg.HybridStep(alpha=0.2, swap_iter=25)
        assert sched.c == pytest.approx(0.2 * 5)
        assert mg.step_size(sched, 1) == 0.2
        assert mg.step_size(sched, 24) == 0.2
        assert mg.step_size(sched, 25) == pytest.approx(0.2)  # matched at the swap
        assert mg.step_size(sched, 100) == pytest.approx(sched.c / 10)

    @pytest.mark.parametrize("alpha,swap_iter", [(0.2, 25), (2e-3, 400), (0.3, 997), (1e-4, 5000)])
    def test_hybrid_constant_is_derived(self, alpha, swap_iter):
        sched = mg.HybridStep(alpha, swap_iter)
        assert [f.name for f in dataclasses.fields(sched)] == ["alpha", "swap_iter"]
        assert sched.c == alpha * math.sqrt(swap_iter)  # bit for bit

    @pytest.mark.parametrize("alpha", [1e-4, 0.3, 3.0])
    def test_hybrid_covers_the_constant_and_decaying_steps(self, alpha):
        T = 997
        assert np.array_equal(step_table(mg.ConstantStep(alpha), T), step_table(mg.HybridStep(alpha, T + 1), T))
        assert np.array_equal(step_table(mg.InverseSqrtStep(alpha), T), step_table(mg.HybridStep(alpha, 1), T))

    @pytest.mark.parametrize("T", [1, 997, 10**6])
    @pytest.mark.parametrize("alpha", [1e-4, 0.3, 3.0])
    def test_constructors_keep_the_written_out_formulas(self, alpha, T):
        # ConstantStep and InverseSqrtStep build the one schedule, with the bits of their own formulas
        constant, decaying = mg.ConstantStep(alpha), mg.InverseSqrtStep(alpha)
        assert type(constant) is mg.HybridStep and type(decaying) is mg.HybridStep
        assert np.array_equal(step_table(constant, T), np.full(T, alpha))
        assert np.array_equal(step_table(decaying, T), alpha / np.sqrt(np.arange(1, T + 1.0)))

    def test_one_based(self):
        with pytest.raises(ValueError):
            mg.step_size(mg.ConstantStep(0.1), 0)

    @pytest.mark.parametrize(
        "schedule",
        [
            mg.ConstantStep(0.1),
            mg.ConstantStep(3),
            mg.InverseSqrtStep(0.7),
            mg.HybridStep(0.3, 1),
            mg.HybridStep(0.3, 997),
            mg.HybridStep(0.3, 998),
        ],
        ids=["constant", "constant-int", "inverse-sqrt", "swap-1", "swap-T", "swap-T+1"],
    )
    def test_table_matches_step_size(self, schedule):
        T = 997
        table = step_table(schedule, T)
        assert table.dtype == np.float64 and table.shape == (T,)
        assert np.array_equal(table, [mg.step_size(schedule, t) for t in range(1, T + 1)])
        assert step_table(schedule, 0).shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            mg.ConstantStep(0.0)
        with pytest.raises(ValueError):
            mg.InverseSqrtStep(-1.0)
        with pytest.raises(ValueError):
            mg.HybridStep(alpha=0.1, swap_iter=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda v: mg.ConstantStep(v), "step size"),
            (lambda v: mg.InverseSqrtStep(v), "step constant"),
            (lambda v: mg.HybridStep(alpha=v, swap_iter=5), "step size"),
            # swap at 1: alpha reaches the steps only through the derived matching c
            (lambda v: mg.HybridStep(alpha=v, swap_iter=1), "step size"),
            (lambda v: mg.SolverConfig(mg.ConstantStep(0.1), 10, projection_radius=v), "projection radius"),
        ],
        ids=["constant", "inverse-sqrt", "hybrid-alpha", "matched", "radius"],
    )
    def test_non_finite_rejected(self, build, name, value):
        # NaN slips past a ``<= 0`` check and would run every iteration on NaN
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value}"):
            build(value)


class TestGradientEstimate:
    def test_p_one_is_plain_row_gradient(self):
        rng = np.random.default_rng(0)
        a_row = mg.Tensor3(rng.standard_normal((3, 1, 4)))
        b_row = mg.Tensor3(rng.standard_normal((3, 1, 2)))
        x = mg.Tensor3(rng.standard_normal((3, 4, 2)))
        c = masking.correction_tensor(mg.UniformMissing(1.0), 4, 3)
        g = oracle.gradient_estimate(a_row, b_row, x, c, p=1.0)
        want = mg.tprod(mg.transpose(a_row), mg.tprod(a_row, x) - b_row)
        npt.assert_allclose(g.data, want.data, atol=1e-12)

    def test_x_zero(self):
        rng = np.random.default_rng(1)
        p = 0.4
        a_row = mg.Tensor3(rng.standard_normal((2, 1, 3)))
        b_row = mg.Tensor3(rng.standard_normal((2, 1, 2)))
        x = mg.zeros(3, 2, 2)
        c = masking.correction_tensor(mg.UniformMissing(p), 3, 2)
        g = oracle.gradient_estimate(a_row, b_row, x, c, p)
        want = (-1.0 / p) * mg.tprod(mg.transpose(a_row), b_row)
        npt.assert_allclose(g.data, want.data, atol=1e-12)

    def test_p_validated(self):
        a_row = mg.ones(1, 2, 2)
        b_row = mg.ones(1, 2, 2)
        x = mg.ones(2, 2, 2)
        c = masking.correction_tensor(mg.UniformMissing(0.5), 2, 2)
        with pytest.raises(ValueError):
            oracle.gradient_estimate(a_row, b_row, x, c, p=0.0)
        with pytest.raises(ValueError):
            oracle.gradient_estimate(a_row, b_row, x, c, p=1.5)

    @pytest.mark.parametrize("a_rows,b_rows", [(2, 1), (1, 2)])
    def test_more_than_one_row_refused(self, a_rows, b_rows):
        c = masking.correction_tensor(mg.UniformMissing(0.5), 2, 2)
        with pytest.raises(ValueError, match="row slices must have a single row"):
            oracle.gradient_estimate(mg.ones(a_rows, 2, 2), mg.ones(b_rows, 2, 2), mg.ones(2, 2, 2), c, 0.5)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            oracle.gradient_estimate(
                mg.ones(1, 2, 2),
                mg.ones(1, 3, 2),
                mg.ones(3, 3, 2),  # x.m != a.l
                masking.correction_tensor(mg.UniformMissing(0.5), 2, 2),
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
            got = spatial_row_gradient(arow, brow, x, model)
            want = oracle.gradient_estimate(
                mg.Tensor3(arow[:, None, :]),
                mg.Tensor3(brow[:, None, :]),
                mg.Tensor3(x),
                masking.correction_tensor(model, l, n),
                p,
            ).data
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def spatial_reference_run(problem, config, x_star, full_a):
    """run_msgdt's iteration written on X itself: dense C, gradient_estimate, a Frobenius rescale onto the ball.

    Draws rows from the generator exactly as run_msgdt does; returns the final
    iterate and (iteration, update_norm, iterate_error, objective) per record.
    """
    a, b, model = problem.a_tilde, problem.b, problem.model
    m, l, n = a.dims
    c = masking.correction_tensor(model, l, n)
    rng = np.random.default_rng(config.seed)
    if config.sampling == "once":
        order = rng.permutation(m)[: config.total_iters]
    x = problem.x0
    records = [(0, None, mg.frob_norm(x - x_star), mg.objective(full_a, b, x))]
    for t in range(1, config.total_iters + 1):
        if config.sampling == "once":
            i = int(order[t - 1])
            arow = a.data[:, i, :]
        else:
            idx, keep = draw_rows(model, m, l, n, 1, rng)
            i, arow = int(idx[0]), masked_rows(model, a.data, keep, idx)[0]
        brow = mg.Tensor3(b.data[:, i : i + 1, :])
        g = oracle.gradient_estimate(mg.Tensor3(arow[:, None, :]), brow, x, c, model.p)
        x = x - mg.step_size(config.schedule, t) * g
        if config.projection_radius is not None and mg.frob_norm(x) > config.projection_radius:
            x = x * (config.projection_radius / mg.frob_norm(x))
        if t % config.trace_every == 0 or t == config.total_iters:
            records.append((t, mg.frob_norm(g), mg.frob_norm(x - x_star), mg.objective(full_a, b, x)))
    return x, records


class TestRunMatchesSpatialReference:
    """The spectral iteration against the same iteration on X with the dense oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        l=st.integers(1, 4),
        q=st.integers(1, 3),
        p=st.one_of(st.just(1.0), st.floats(0.2, 1.0)),
        kind=st.sampled_from(["uniform", "colblock", "frontal"]),
        sampling=st.sampled_from(["once", "redraw"]),
        project=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, l=2, q=1, p=0.5, kind="uniform", sampling="once", project=False, seed=0)
    @example(n=1, l=3, q=2, p=0.7, kind="frontal", sampling="redraw", project=True, seed=1)
    @example(n=4, l=4, q=2, p=0.5, kind="colblock", sampling="redraw", project=True, seed=2)
    @example(n=5, l=2, q=3, p=0.4, kind="colblock", sampling="once", project=True, seed=3)
    @example(n=6, l=3, q=2, p=0.6, kind="frontal", sampling="once", project=False, seed=4)
    @example(n=3, l=4, q=1, p=0.3, kind="uniform", sampling="redraw", project=False, seed=5)
    @example(n=1, l=1, q=1, p=1.0, kind="uniform", sampling="once", project=False, seed=13646)
    def test_trace_and_final_iterate(self, n, l, q, p, kind, sampling, project, seed):
        m, iters = 60, 55
        system = mg.gen_synthetic(mg.Dims(m, l, q, n), seed)
        model = model_for(kind, p, l if kind == "colblock" and seed % 2 else 1)
        rng = np.random.default_rng(seed)
        a = system.a if sampling == "redraw" else mg.hadamard(mg.draw_mask(model, m, l, n, rng), system.a)
        x0 = mg.Tensor3(rng.standard_normal((n, l, q)))
        # a noisy B keeps every trace column away from zero, so relative errors stay meaningful
        b = mg.Tensor3(system.b.data + 0.1 * rng.standard_normal(system.b.data.shape))
        problem = mg.ProblemInstance(a_tilde=a, b=b, model=model, x0=x0)
        radius = 0.5 * mg.frob_norm(system.x_star) if project else None
        config = mg.SolverConfig(
            schedule=mg.ConstantStep(0.5 / mg.lipschitz_constant(system.a, p)),
            total_iters=iters,
            projection_radius=radius,
            sampling=sampling,
            seed=seed,
            trace_every=10,
        )
        got = mg.run_msgdt(problem, config, x_star=system.x_star, full_a=system.a)
        x_ref, records = spatial_reference_run(problem, config, system.x_star, system.a)

        def close(u, v):
            return abs(u - v) <= 1e-12 * abs(v)

        assert np.linalg.norm(got.x_final.data - x_ref.data) <= 1e-12 * np.linalg.norm(x_ref.data)
        assert [r.iteration for r in got.trace.records] == [r[0] for r in records]
        for rec, (_, update, err, obj) in zip(got.trace.records, records):
            assert (rec.update_norm is None) == (update is None)
            assert update is None or close(rec.update_norm, update)
            # X_t - X* carries rounding at the scale of X_t, which cancels when X_t nears X*
            assert abs(rec.iterate_error - err) <= 1e-12 * (err + mg.frob_norm(system.x_star))
            assert close(rec.objective, obj)


class TestRunAcrossRowChunks:
    """Rows are transformed 256 at a time: runs that end at, before and after a chunk
    boundary, or cross two, follow the spatial reference in both sampling modes."""

    @pytest.mark.parametrize("iters", [255, 256, 257, 513])
    @pytest.mark.parametrize("sampling", ["once", "redraw"])
    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    def test_matches_spatial_reference(self, kind, sampling, iters):
        m, l, q, n = 520, 4, 2, 3
        system = mg.gen_synthetic(mg.Dims(m, l, q, n), iters)
        model = model_for(kind, 0.6, 2 if kind == "colblock" else 1)
        rng = np.random.default_rng(iters)
        a = system.a if sampling == "redraw" else mg.hadamard(mg.draw_mask(model, m, l, n, rng), system.a)
        problem = mg.ProblemInstance(a_tilde=a, b=system.b, model=model, x0=mg.zeros(l, q, n))
        config = mg.SolverConfig(
            schedule=mg.HybridStep(0.2 / mg.lipschitz_constant(system.a, 0.6), 200),
            total_iters=iters,
            sampling=sampling,
            seed=iters,
            trace_every=128,
        )
        got = mg.run_msgdt(problem, config, x_star=system.x_star, full_a=system.a)
        x_ref, records = spatial_reference_run(problem, config, system.x_star, system.a)
        assert np.linalg.norm(got.x_final.data - x_ref.data) <= 1e-12 * np.linalg.norm(x_ref.data)
        assert [r.iteration for r in got.trace.records] == [r[0] for r in records]
        for rec, (_, update, err, obj) in zip(got.trace.records[1:], records[1:]):
            assert abs(rec.update_norm - update) <= 1e-12 * update
            assert abs(rec.iterate_error - err) <= 1e-12 * err
            assert abs(rec.objective - obj) <= 1e-12 * obj


def result_bits(result):
    """Every bit of a run's outcome: the final iterate's bytes and each trace field's float bytes."""
    fields = [
        np.float64(np.nan if v is None else v).tobytes() + bytes([v is None])
        for r in result.trace.records
        for v in (r.step_size, r.update_norm, r.iterate_error, r.objective)
    ]
    return result.x_final.data.tobytes(), [r.iteration for r in result.trace.records], b"".join(fields)


def batch_runs(kind, sampling, project, n, size, seed, masked_by_units=True, m=40, block=2):
    """``size`` runs on one system of m rows with distinct p, seeds, X0 and schedules, plus the trace inputs.

    ``block`` is the column block size of "colblock" runs (l = 4); the other models ignore it.
    """
    l, q = 4, 2
    system = mg.gen_synthetic(mg.Dims(m, l, q, n), seed)
    rng = np.random.default_rng(seed)
    lg = mg.lipschitz_constant(system.a, 1.0)
    problems, configs = [], []
    for r in range(size):
        p = (0.3, 0.45, 0.6, 0.8, 1.0)[r]
        model = model_for(kind, p, block)
        a, units = system.a, None
        if sampling == "once" and masked_by_units and r % 2 == 0:
            units = draw_units(model, l, n, m, rng)
        elif sampling == "once":
            a = mg.hadamard(mg.draw_mask(model, m, l, n, rng), system.a)
        problems.append(mg.ProblemInstance(a_tilde=a, b=system.b, model=model, units=units,
                                           x0=mg.Tensor3(rng.standard_normal((n, l, q)))))
        schedule = (mg.ConstantStep(0.4 * p * p / lg), mg.InverseSqrtStep(0.5 * p * p / lg),
                    mg.HybridStep(0.3 * p * p / lg, 17))[r % 3]
        configs.append(mg.SolverConfig(
            schedule=schedule,
            total_iters=35,
            projection_radius=0.5 * mg.frob_norm(system.x_star) if project else None,
            sampling=sampling,
            seed=seed + 100 * r,
            trace_every=8,
            also_record=(17,),
        ))
    return problems, configs, system


class TestRunBatch:
    """Each run of a batch gives the bits it gives alone, whatever the batch size and its position."""

    def check(self, problems, configs, system, order):
        alone = [result_bits(mg.run_msgdt(p, c, system.x_star, system.a)) for p, c in zip(problems, configs)]
        batched = run_batch([problems[i] for i in order], [configs[i] for i in order], system.x_star, system.a)
        assert [result_bits(res) for res in batched] == [alone[i] for i in order]

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "colblock", "frontal"]),
        sampling=st.sampled_from(["once", "redraw"]),
        project=st.booleans(),
        n=st.sampled_from([1, 2, 3, 10]),
        order=st.sampled_from([1, 2, 5]).flatmap(lambda size: st.permutations(range(size))),
        seed=st.integers(0, 2**16),
    )
    @example(kind="uniform", sampling="once", project=False, n=1, order=[0], seed=0)
    @example(kind="colblock", sampling="redraw", project=True, n=10, order=[1, 0], seed=1)
    @example(kind="frontal", sampling="once", project=True, n=3, order=[4, 2, 0, 3, 1], seed=2)
    @example(kind="uniform", sampling="redraw", project=False, n=2, order=[3, 0, 4, 1, 2], seed=3)
    @example(kind="colblock", sampling="once", project=False, n=2, order=[2, 4, 1, 0, 3], seed=4)
    @example(kind="frontal", sampling="redraw", project=False, n=10, order=[0, 1], seed=5)
    def test_each_run_matches_its_solo_run(self, kind, sampling, project, n, order, seed):
        problems, configs, system = batch_runs(kind, sampling, project, n, len(order), seed)
        self.check(problems, configs, system, order)

    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    @pytest.mark.parametrize("sampling", ["once", "redraw"])
    def test_divergent_run_does_not_leak(self, kind, sampling):
        problems, configs, system = batch_runs(kind, sampling, False, 3, 5, 7)
        lg = mg.lipschitz_constant(system.a, problems[2].model.p)
        configs[2] = mg.SolverConfig(schedule=mg.ConstantStep(1e30 / lg), total_iters=35, sampling=sampling,
                                     seed=11, trace_every=8, also_record=(17,))
        with np.errstate(all="ignore"):
            solo = mg.run_msgdt(problems[2], configs[2], system.x_star, system.a)
            assert not np.isfinite(solo.x_final.data).all()
            self.check(problems, configs, system, [3, 2, 0, 4, 1])

    def test_once_mode_unit_draw_equals_masked_tensor(self):
        # a run that masks rows from its unit draw is the run on the masked tensor, bit for bit
        problems, configs, system = batch_runs("frontal", "once", True, 3, 2, 8)
        masked = mg.ProblemInstance(
            a_tilde=mg.hadamard(mg.draw_mask(problems[0].model, 40, 4, 3, np.random.default_rng(9)), system.a),
            b=system.b, model=problems[0].model, x0=problems[0].x0,
        )
        by_units = mg.ProblemInstance(
            a_tilde=system.a, b=system.b, model=problems[0].model, x0=problems[0].x0,
            units=draw_units(problems[0].model, 4, 3, 40, np.random.default_rng(9)),
        )
        got = [result_bits(mg.run_msgdt(p, configs[0], system.x_star, system.a)) for p in (masked, by_units)]
        assert got[0] == got[1]

    @pytest.mark.parametrize(
        "change,field",
        [
            (lambda p, c: (mg.ProblemInstance(a_tilde=p.a_tilde, b=p.b, model=mg.FrontalSliceMissing(0.5),
                                              x0=p.x0), c), "model kind"),
            (lambda p, c: (mg.ProblemInstance(a_tilde=p.a_tilde, b=p.b, model=mg.ColumnBlockMissing(0.5, 4),
                                              x0=p.x0), c), "block size"),
            (lambda p, c: (p, dataclasses.replace(c, total_iters=30)), "total_iters"),
            (lambda p, c: (p, dataclasses.replace(c, sampling="redraw")), "sampling"),
            (lambda p, c: (p, dataclasses.replace(c, trace_every=5)), "trace_every"),
            (lambda p, c: (p, dataclasses.replace(c, also_record=())), "also_record"),
            (lambda p, c: (p, dataclasses.replace(c, projection_radius=1.0)), "projection_radius"),
            (lambda p, c: (make_problem(m=40, l=4, q=3, n=2, model_kind="colblock")[1], c), "shape"),
        ],
        ids=["model", "block", "iters", "sampling", "trace-every", "also-record", "radius", "shape"],
    )
    def test_mismatched_runs_refused(self, change, field):
        problems, configs, system = batch_runs("colblock", "once", False, 2, 2, 10, masked_by_units=False)
        problems[1], configs[1] = change(problems[1], configs[1])
        with pytest.raises(ValueError, match=f"runs of one batch must share {field}"):
            run_batch(problems, configs, system.x_star)

    @pytest.mark.parametrize("problems,configs", [(0, 0), (0, 1), (1, 2), (2, 1)])
    def test_one_config_per_problem(self, problems, configs):
        batch_problems, batch_configs, _ = batch_runs("uniform", "once", False, 2, 2, 10)
        with pytest.raises(ValueError, match=f"one config per problem, got {problems} problems and {configs} configs"):
            run_batch(batch_problems[:problems], batch_configs[:configs])

    def test_redraw_batch_keeps_no_spectrum_of_b(self):
        # four p values on a tall B: rows of B are transformed a chunk at a time, not all of p B per p
        m, l, q, n = 20000, 2, 3, 4
        rng = np.random.default_rng(30)
        a = mg.Tensor3(rng.standard_normal((n, m, l)))
        b = mg.Tensor3(rng.standard_normal((n, m, q)))
        problems = [mg.ProblemInstance(a_tilde=a, b=b, model=mg.UniformMissing(p), x0=mg.zeros(l, q, n))
                    for p in (0.3, 0.5, 0.7, 0.9)]
        configs = [mg.SolverConfig(schedule=mg.ConstantStep(1e-3), total_iters=600, sampling="redraw", seed=k,
                                   trace_every=100) for k in range(len(problems))]
        tracemalloc.start()
        try:
            run_batch(problems, configs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < b.data.nbytes

    def test_long_batch_keeps_no_step_table(self):
        # eight long redraw runs on a tiny system: step sizes are taken a slice at a time, not as one (T, R) table
        m, l, q, n = 30, 2, 1, 2
        system = mg.gen_synthetic(mg.Dims(m, l, q, n), 31)
        T, R = 20000, 8
        problems = [mg.ProblemInstance(a_tilde=system.a, b=system.b, model=mg.UniformMissing(p), x0=mg.zeros(l, q, n))
                    for p in np.linspace(0.3, 0.9, R)]
        configs = [mg.SolverConfig(schedule=mg.HybridStep(1e-3, 50), total_iters=T, sampling="redraw", seed=k,
                                   trace_every=T) for k in range(R)]
        tracemalloc.start()
        try:
            run_batch(problems, configs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T * R * 8

    def test_unit_draw_refused_in_redraw_mode(self):
        problems, configs, system = batch_runs("uniform", "once", False, 2, 1, 12)
        with pytest.raises(ValueError, match="'once' mode only"):
            run_batch(problems, [dataclasses.replace(configs[0], sampling="redraw")])

    def test_unit_draw_shape_checked(self):
        _, problem = make_problem(m=20, l=3, n=2)
        with pytest.raises(ValueError, match="boolean"):
            mg.ProblemInstance(a_tilde=problem.a_tilde, b=problem.b, model=problem.model, x0=problem.x0,
                               units=np.ones((20, 5), dtype=bool))


class TestRowTermsOfAChunk:
    """The row-only terms built once for a chunk give every row the kernel's bits."""

    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_chunk_terms_match_the_row_spectrum(self, kind, runs, n):
        rows, l, q = 257, 4, 3
        rng = np.random.default_rng(100 * n + runs)
        spec = tube_spectrum(n)
        models = tuple(model_for(kind, p, 2) for p in (0.3, 0.6, 0.9)[:runs])
        # the coefficients as run_batch builds them: 0-d per run for one run, a run axis for more
        coeffs = _coefficients(models, spec, (runs,) if runs > 1 else ())
        keep = rng.random((rows, runs, n, l)) < 0.6
        chunk = spec.forward(keep * rng.standard_normal((rows, runs, n, l)), axis=2)
        pb = spec.forward(rng.standard_normal((rows, runs, n, q)), axis=2, scaled=True)
        # g's terms, and the step's at each row's step sizes; alone, each row's are built as _row_gradient builds g's
        for alphas in (None, rng.uniform(0.01, 0.1, (rows, runs))):
            for k, terms in enumerate(zip(*stage_terms(chunk, pb, n, alphas, coeffs))):
                alone = _term_views(chunk[k], pb[k], np.empty_like(chunk[k]), coeffs)
                _fill_terms(alone, chunk[k], None if alphas is None else alphas[k], coeffs)
                assert len(terms) == len(alone) == (3 if kind == "colblock" else 4)
                assert all(np.array_equal(got, want) for got, want in zip(terms, alone)), k
            assert k == rows - 1

    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    def test_one_run_has_0d_coefficients(self, kind):
        # 0-d 1/p^2 and p - 1 scale a spectrum as a scalar does, at a scalar's cost
        spec = tube_spectrum(3)
        solo = _coefficients((model_for(kind, 0.4, 2),), spec, ())
        assert solo.inv.shape == () and solo.p_less_1.shape == ()
        batch = _coefficients(tuple(model_for(kind, p, 2) for p in (0.4, 0.7)), spec, (2,))
        assert batch.inv.shape == batch.p_less_1.shape == (2,) + (1,) * (4 if kind == "colblock" else 3)
        assert solo.inv == batch.inv[0] and solo.p_less_1 == batch.p_less_1[0]


def desk_like_batch(kind, T):
    """Three "once" runs at the desk's l, q and n on a system of T rows, masked by unit draws, one p each."""
    m, l, q, n = T, 20, 10, 10
    system = mg.gen_synthetic(mg.Dims(m, l, q, n), 41)
    rng = np.random.default_rng(42)
    problems, configs = [], []
    for r, p in enumerate((0.3, 0.5, 0.7)):
        model = model_for(kind, p, 4)
        problems.append(mg.ProblemInstance(a_tilde=system.a, b=system.b, model=model, x0=mg.zeros(l, q, n),
                                           units=draw_units(model, l, n, m, rng)))
        configs.append(mg.SolverConfig(schedule=mg.HybridStep(p * p / 5000, T // 2), total_iters=T, seed=r,
                                       trace_every=100))
    return problems, configs, system


class StageError(Exception):
    """A build error defined at module level."""


def fork_spy(monkeypatch) -> list[int]:
    """The pids of the children ``os.fork`` makes in this process from now on, as a list that fills."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def has_exited(pid: int) -> bool:
    """Whether process ``pid`` has ended: gone from /proc, or a zombie that nobody has reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat[stat.rindex(")") + 2] in "ZX"


AFFINITY = getattr(os, "sched_getaffinity", None)
CHILDREN = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children")


class TestPipeline:
    """A batch that builds its next stage of rows in a forked builder while it steps the current one gives the
    bits of the same batch built inline, raises a build's error, leaves no process behind and holds no more
    memory; with one usable core, or no fork, it builds inline."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        # the gate wants a second usable core: these tests fork their builder on any machine, under taskset too
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("T", [0, 1, 127, 128, 129, 255, 256, 257, 600])
    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("sampling", ["once", "redraw"])
    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    def test_piped_runs_are_the_inline_runs(self, kind, sampling, size, T, monkeypatch):
        problems, configs, system = batch_runs(kind, sampling, True, 3, size, T, m=600)
        # traced iterations on the boundaries of the piped stages (128 rows) and the inline ones (256)
        configs = [dataclasses.replace(cfg, total_iters=T, trace_every=128, also_record=(1, 127, 129, 255, 257))
                   for cfg in configs]
        got = {}
        for gate in (sys.maxsize, 0):
            monkeypatch.setattr(solver, "_PIPELINE_MIN_ENTRIES", gate)
            got[gate] = [result_bits(res) for res in run_batch(problems, configs, system.x_star, system.a)]
        assert got[0] == got[sys.maxsize]

    @pytest.mark.parametrize("local", [False, True])
    def test_a_build_error_reaches_the_caller_and_no_builder_outlives_it(self, local, monkeypatch):
        problems, configs, _ = desk_like_batch("uniform", 600)
        forks, real, caller, calls = fork_spy(monkeypatch), solver.row_spectra, os.getpid(), []

        class LocalError(Exception):
            """Defined in a function, so pickle cannot find it by name."""

        def fails_at_stage_2(*args, **kwargs):
            calls.append(os.getpid())
            if len(calls) == 3:
                where = "the caller" if os.getpid() == caller else "a child"
                raise (LocalError if local else StageError)(f"no rows for stage 2, built in {where}")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "row_spectra", fails_at_stage_2)
        with pytest.raises(LocalError if local else StageError) as raised:
            run_batch(problems, configs)
        # the builder failed at stage 2, and the caller's rebuild of stages 0..2 raised the error itself
        assert type(raised.value) is (LocalError if local else StageError)
        assert raised.value.args == ("no rows for stage 2, built in the caller",)
        assert calls == [caller] * 3 and len(forks) == 1
        assert "fails_at_stage_2" in [entry.name for entry in raised.traceback]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_builder_killed_mid_batch_is_named_and_reaped(self, monkeypatch):
        problems, configs, _ = desk_like_batch("frontal", 600)
        forks, real, caller, calls = fork_spy(monkeypatch), solver._fill_terms, os.getpid(), []

        def killed_at_stage_2(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "_fill_terms", killed_at_stage_2)
        # the caller's rebuild of stages 0..2 raises nothing, so the error says how the builder ended
        with pytest.raises(RuntimeError, match=r"^the row stage builder was killed by signal 9 before it built "
                                               r"stage 2$"):
            run_batch(problems, configs)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("gate", [0, sys.maxsize], ids=["piped", "inline"])
    def test_a_long_batch_makes_its_stages_as_it_reaches_them(self, gate, monkeypatch):
        # 10^8 iterations are 781 250 piped stages: a list of their slices alone held about 100 MB
        system = mg.gen_synthetic(mg.Dims(50, 20, 10, 10), 1)
        problems = [mg.ProblemInstance(a_tilde=system.a, b=system.b, model=mg.UniformMissing(p),
                                       x0=mg.zeros(20, 10, 10)) for p in (0.3, 0.5, 0.7)]
        configs = [mg.SolverConfig(schedule=mg.ConstantStep(1e-9), total_iters=10**8, sampling="redraw", seed=k,
                                   trace_every=10**8) for k in range(3)]
        forks = fork_spy(monkeypatch)
        monkeypatch.setattr(solver, "_PIPELINE_MIN_ENTRIES", gate)

        def first_step(*args):
            raise StageError("the first step")

        monkeypatch.setattr(solver, "_apply", first_step)
        tracemalloc.start()
        try:
            with pytest.raises(StageError, match="the first step"):
                run_batch(problems, configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(forks) == (gate == 0)
        assert peak < 16 * 2**20, peak

    def test_a_step_error_kills_and_reaps_the_builder(self, monkeypatch):
        problems, configs, _ = desk_like_batch("frontal", 600)
        forks, real, steps = fork_spy(monkeypatch), solver._apply, []

        def fails_at_step_200(*args):
            steps.append(None)
            if len(steps) == 200:
                raise FloatingPointError("step 200")
            return real(*args)

        monkeypatch.setattr(solver, "_apply", fails_at_step_200)
        with pytest.raises(FloatingPointError, match="step 200"):
            run_batch(problems, configs)
        # the builder of 5 stages was waiting for a slot: only the kill ends it, and waitpid has reaped it
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not CHILDREN.exists(), reason="needs /proc/<pid>/task/<pid>/children")
    def test_a_builder_whose_caller_is_killed_exits_by_itself(self):
        # a redraw batch that runs until killed; the core gate is opened as in this class's fixture
        code = (
            "import os\n"
            "import msgdt as mg\n"
            "from msgdt.solver import run_batch\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "system = mg.gen_synthetic(mg.Dims(50, 20, 10, 10), 1)\n"
            "problems = [mg.ProblemInstance(a_tilde=system.a, b=system.b, model=mg.UniformMissing(p),\n"
            "                               x0=mg.zeros(20, 10, 10)) for p in (0.3, 0.5, 0.7)]\n"
            "configs = [mg.SolverConfig(schedule=mg.ConstantStep(1e-9), total_iters=10**7, sampling='redraw',\n"
            "                           seed=k, trace_every=10**7) for k in range(3)]\n"
            "run_batch(problems, configs)\n"
        )
        src = str(Path(mg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-c", code], env=env)
        try:
            children, deadline = Path(f"/proc/{proc.pid}/task/{proc.pid}/children"), time.monotonic() + 60
            while not children.read_text().split():
                assert proc.poll() is None and time.monotonic() < deadline, "no builder was forked"
                time.sleep(0.02)
            builder = int(children.read_text().split()[0])
        finally:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 5
        while not has_exited(builder):
            assert time.monotonic() < deadline, f"builder {builder} outlived its caller by 5 s"
            time.sleep(0.02)

    def test_the_builder_keeps_the_callers_errstate(self, monkeypatch):
        problems, configs, _ = desk_like_batch("frontal", 300)
        forks, real = fork_spy(monkeypatch), solver._fill_terms
        with np.errstate(all="ignore"):
            caller = np.geterr()

        def spy(*args, **kwargs):
            # in the builder an error ends it, and run_batch raises: the caller's rebuild does not meet it
            if np.geterr() != caller:
                raise AssertionError(f"terms filled under {np.geterr()}, not the caller's {caller}")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "_fill_terms", spy)
        with np.errstate(all="ignore"):
            run_batch(problems, configs)
        assert caller != np.geterr()  # the default warns: a builder that had not inherited the caller's would see it
        assert len(forks) == 1

    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    def test_piped_peak_is_no_more_than_inline(self, kind, monkeypatch):
        problems, configs, _ = desk_like_batch(kind, 600)
        real, shared = solver._shared_empty, []

        def counted(shape, dtype):
            arr = real(shape, dtype)
            shared.append(arr.nbytes)
            return arr

        monkeypatch.setattr(solver, "_shared_empty", counted)
        peaks = {}
        for gate in (sys.maxsize, 0):
            monkeypatch.setattr(solver, "_PIPELINE_MIN_ENTRIES", gate)
            tracemalloc.start()
            try:
                run_batch(problems, configs)
                peaks[gate] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the builder allocates in its own process, and the slots' shared memory is outside tracemalloc
        assert shared and peaks[0] + sum(shared) <= peaks[sys.maxsize], (peaks, sum(shared))

    @pytest.mark.parametrize("kind", ["uniform", "frontal"])
    def test_one_usable_core_builds_inline(self, kind, monkeypatch):
        problems, configs, system = desk_like_batch(kind, 600)
        forks = fork_spy(monkeypatch)
        piped = [result_bits(res) for res in run_batch(problems, configs, system.x_star, system.a)]
        assert len(forks) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert [result_bits(res) for res in run_batch(problems, configs, system.x_star, system.a)] == piped
        assert len(forks) == 1

    def test_a_batch_of_one_slice_builds_inline(self, monkeypatch):
        # a fork costs more than the overlap gains on 256 rows or fewer
        forks = fork_spy(monkeypatch)
        for T, want in ((256, 0), (257, 1)):
            problems, configs, _ = desk_like_batch("uniform", T)
            run_batch(problems, configs)
            assert len(forks) == want, T

    @pytest.mark.parametrize("cores", [None, 1, 2])
    def test_without_affinity_the_gate_counts_the_machines_cores(self, cores, monkeypatch):
        problems, configs, _ = desk_like_batch("uniform", 300)
        forks = fork_spy(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        run_batch(problems, configs)
        assert len(forks) == (cores == 2)

    @pytest.mark.skipif(AFFINITY is None, reason="no os.sched_getaffinity")
    def test_the_gate_reads_this_process_affinity(self, monkeypatch):
        # under `taskset -c 0` this process has one core and builds inline; given two or more, it forks
        problems, configs, _ = desk_like_batch("uniform", 300)
        monkeypatch.setattr(os, "sched_getaffinity", AFFINITY)
        forks = fork_spy(monkeypatch)
        run_batch(problems, configs)
        assert len(forks) == (len(AFFINITY(0)) >= 2)

    def test_a_second_thread_or_a_failed_fork_builds_inline(self, monkeypatch):
        problems, configs, system = desk_like_batch("colblock", 600)
        want = [result_bits(res) for res in run_batch(problems, configs, system.x_star, system.a)]
        fds = len(os.listdir("/proc/self/fd")) if Path("/proc/self/fd").exists() else None
        forks = fork_spy(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert [result_bits(res) for res in run_batch(problems, configs, system.x_star, system.a)] == want
        finally:
            release.set()
            other.join(5)
        assert not other.is_alive() and forks == []

        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        assert [result_bits(res) for res in run_batch(problems, configs, system.x_star, system.a)] == want
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds  # the pipes made for the builder are closed


def kernel_step_runs(problems, configs):
    """run_batch's iteration run by run, with the step taken as Y - alpha g(Y) and g from the kernel.

    Returns each run's final iterate and its update norm at every iteration.
    """
    spec = tube_spectrum(problems[0].a_tilde.n)
    runs = []
    for prob, cfg in zip(problems, configs):
        coeffs, source = _coefficients((prob.model,), spec, ()), _row_source(prob, cfg)
        alphas = step_table(cfg.schedule, cfg.total_iters)
        y = spec.forward(prob.x0.data[None], axis=1, scaled=True)
        norms = {}
        for rows in row_chunks(cfg.total_iters):
            a_chunk, pb_chunk = row_spectra([(prob.a_tilde, prob.b, prob.model)], [source(rows)], spec)
            for t, ahat, pbhat in zip(range(rows.start + 1, rows.stop + 1), a_chunk, pb_chunk):
                g = _row_gradient(ahat, pbhat, y, coeffs, spec)
                y = y - alphas[t - 1] * g
                if cfg.projection_radius is not None:
                    _project(_flat(y), cfg.projection_radius)
                norms[t] = _norm(_flat(g))
        runs.append((spec.inverse(y[0], scaled=True), norms))
    return runs


# column blocks of 2 of l = 4 columns, and of 1 and of l: every column its own block, and one block
FUSED_KINDS = pytest.mark.parametrize(
    "kind,block",
    [("uniform", None), ("colblock", 2), ("frontal", None), ("colblock", 1), ("colblock", 4)],
    ids=["uniform", "colblock", "frontal", "colblock-b1", "colblock-b4"],
)


class TestFusedStep:
    """The step with each row's step size folded into its chunk's terms is the kernel's step, up to rounding."""

    @FUSED_KINDS
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_one_step_is_the_kernel_step(self, kind, block, runs, n):
        rows, l, q = 257, 4, 3
        rng = np.random.default_rng(200 * n + runs)
        spec = tube_spectrum(n)
        models = tuple(model_for(kind, p, block) for p in (0.3, 0.6, 0.9)[:runs])
        coeffs = _coefficients(models, spec, (runs,) if runs > 1 else ())
        keep = rng.random((rows, runs, n, l)) < 0.6
        chunk = spec.forward(keep * rng.standard_normal((rows, runs, n, l)), axis=2)
        pb = spec.forward(rng.standard_normal((rows, runs, n, q)), axis=2, scaled=True)
        # step sizes near 1/L_g for each row, so that a step moves Y about as far as Y's own size
        p_sq = np.array([model.p for model in models]) ** 2
        alphas = rng.uniform(0.1, 1.0, (rows, runs)) * p_sq / (1.0 + n * np.abs(chunk).sum(axis=(2, 3)) ** 2)
        for k, terms in enumerate(zip(*stage_terms(chunk, pb, n, alphas, coeffs))):
            y = spec.forward(rng.standard_normal((runs, n, l, q)), axis=1, scaled=True)
            want = y - alphas[k].reshape(-1, 1, 1, 1) * _row_gradient(chunk[k], pb[k], y, coeffs, spec)
            got = _apply(terms, _views(y, coeffs), _views(np.empty_like(y), coeffs), coeffs)
            assert got is y  # every model steps Y in place
            for r in range(runs):
                assert np.linalg.norm(got[r] - want[r]) <= 1e-13 * np.linalg.norm(want[r]), (k, r)
        assert k == rows - 1

    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("sampling", ["once", "redraw"])
    @FUSED_KINDS
    def test_runs_follow_the_kernel_step(self, kind, block, sampling, size, n, project):
        # 300 iterations cross a chunk boundary, and with it the slice of step sizes; projection scales Y in place
        problems, configs, system = batch_runs(kind, sampling, project, n, size, 50 + n, m=300, block=block)
        configs = [dataclasses.replace(cfg, total_iters=300, trace_every=37) for cfg in configs]
        for res, (x_ref, norms) in zip(run_batch(problems, configs), kernel_step_runs(problems, configs)):
            assert np.linalg.norm(res.x_final.data - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
            for rec in res.trace.records[1:]:
                assert abs(rec.update_norm - norms[rec.iteration]) <= 1e-13 * norms[rec.iteration]

    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    def test_update_norm_is_the_kernel_on_the_iterate_before_the_step(self, kind, monkeypatch):
        problems, configs, system = batch_runs(kind, "redraw", True, 3, 3, 60)
        kernel, seen = solver._row_gradient, []

        def spy(ahat, pbhat, yhat, model, spec):
            seen.append((ahat, pbhat, yhat.copy(), model, spec))
            return kernel(ahat, pbhat, yhat, model, spec)

        monkeypatch.setattr(solver, "_row_gradient", spy)
        results = run_batch(problems, configs, system.x_star)
        traced = [rec.iteration for rec in results[0].trace.records[1:]]
        assert len(seen) == len(traced) == 6  # the kernel runs at the traced iterations only
        y_star = tube_spectrum(3).forward(system.x_star.data, scaled=True)
        for t, (ahat, pbhat, y, model, spec) in zip(traced, seen):
            g = kernel(ahat, pbhat, y, model, spec)
            for r, res in enumerate(results):
                records = res.trace.by_iteration()
                assert records[t].update_norm == _norm(_flat(g[r]))
                if t - 1 in records:  # the kernel saw the iterate that step t - 1 and its projection left
                    assert records[t - 1].iterate_error == _norm(_flat(y[r] - y_star))


class TestMeanPathFollowsGradientDescent:
    """The mean over seeds of unprojected "redraw" runs follows full-gradient descent.

    grad F is affine and E[g(X)] = grad F(X) for the row and mask drawn at
    each step, so E[X_t] = E[X_{t-1}] - alpha_t grad F(E[X_{t-1}]) exactly,
    for any schedule.  The mean final iterate over S seeds must therefore
    match gradient descent, run through ``tn.tprod``, within its standard
    error.  Two p values in one batch, neither 1/2 (where 1-p = p), catch a
    run stepped with another run's p and a p in place of 1-p; the decaying and
    hybrid schedules catch a step size taken at the wrong iteration.
    """

    SEEDS, ITERS, P_VALUES = 400, 40, (0.4, 0.8)
    # familywise level 1e-4, two-sided normal tail, Bonferroni over every entry, schedule, p and model
    ENTRIES = (3 * 2 * 3) * 3 * len(P_VALUES) * 3  # entries of X, schedules, p values, models
    THRESHOLD = statistics.NormalDist().inv_cdf(1.0 - 1e-4 / (2 * ENTRIES))

    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    def test_mean_final_iterate_is_gradient_descent(self, kind):
        system = mg.gen_synthetic(mg.Dims(60, 3, 2, 3), 1234)
        # far from X*, so that a step of the wrong size moves the mean by more than the noise it adds
        x0 = mg.Tensor3(20.0 * np.random.default_rng(5).standard_normal((3, 3, 2)))
        problems, configs, groups = [], [], []
        for p in self.P_VALUES:
            problem = mg.ProblemInstance(a_tilde=system.a, b=system.b, model=model_for(kind, p, 1), x0=x0)
            alpha = 0.5 / mg.lipschitz_constant(system.a, p)
            for schedule in (mg.ConstantStep(alpha), mg.InverseSqrtStep(alpha), mg.HybridStep(alpha, 20)):
                groups.append((schedule, slice(len(problems), len(problems) + self.SEEDS)))
                for _ in range(self.SEEDS):
                    problems.append(problem)
                    configs.append(mg.SolverConfig(schedule=schedule, total_iters=self.ITERS, sampling="redraw",
                                                   seed=len(configs), trace_every=self.ITERS))
        finals = np.stack([res.x_final.data for res in run_batch(problems, configs)])
        worst = 0.0
        for schedule, runs in groups:
            x = x0
            for alpha in step_table(schedule, self.ITERS):
                x = x - alpha * oracle.full_gradient(system.a, system.b, x)
            mean, sd = finals[runs].mean(axis=0), finals[runs].std(axis=0, ddof=1)
            worst = max(worst, float(np.max(np.abs(mean - x.data) / (sd / math.sqrt(self.SEEDS)))))
        assert worst <= self.THRESHOLD, (worst, self.THRESHOLD)


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
        c = masking.correction_tensor(mg.UniformMissing(0.5), 4, 3)
        lin = oracle.update_linear_part(a_row, c, 0.5)
        assert oracle.is_hermitian(lin, tol=1e-12)

    def test_matches_gradient_difference(self):
        rng = np.random.default_rng(12)
        p = 0.6
        a_row = mg.Tensor3(rng.standard_normal((2, 1, 3)))
        b_row = mg.Tensor3(rng.standard_normal((2, 1, 2)))
        c = masking.correction_tensor(mg.FrontalSliceMissing(p), 3, 2)
        x = mg.Tensor3(rng.standard_normal((2, 3, 2)))
        y = mg.Tensor3(rng.standard_normal((2, 3, 2)))
        gx = oracle.gradient_estimate(a_row, b_row, x, c, p)
        gy = oracle.gradient_estimate(a_row, b_row, y, c, p)
        lin = oracle.update_linear_part(a_row, c, p)
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
    """The loop's one projection: _project scales an array in place through its flat float64 view."""

    def test_scales_to_radius(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 2))
        r = np.linalg.norm(x) / 2
        proj = x.copy()
        _project(_flat(proj), r)
        assert np.linalg.norm(proj) == pytest.approx(r, rel=1e-12)
        npt.assert_allclose(proj * 2, x, rtol=1e-12)

    @pytest.mark.parametrize("radius", [0.5, 100.0])
    def test_one_projection_for_tensors_and_spectra(self, radius):
        # on a real tensor and on a complex spectrum, the bits of scaling the array itself by radius / norm
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, 3, 2))
        yhat = tube_spectrum(4).forward(x, scaled=True)  # real-valued at DC and Nyquist: the sine rows are exact zeros there
        for arr in (x, yhat):
            norm = math.sqrt(float(np.dot(arr.view(np.float64).ravel(), arr.view(np.float64).ravel())))
            want = arr * (radius / norm) if norm > radius else arr.copy()
            _project(_flat(arr), radius)
            assert arr.tobytes() == want.tobytes()
            assert (norm > radius) == (radius == 0.5)

    def test_idempotent(self):
        # up to one rounding of the norm comparison
        rng = np.random.default_rng(16)
        once = rng.standard_normal((2, 3, 2))
        _project(_flat(once), 1.0)
        twice = once.copy()
        _project(_flat(twice), 1.0)
        npt.assert_allclose(twice, once, rtol=1e-15)


class TestRun:
    def test_zero_iterations(self):
        system, problem = make_problem()
        cfg = mg.SolverConfig(schedule=mg.ConstantStep(0.01), total_iters=0, seed=1)
        res = mg.run_msgdt(problem, cfg, x_star=system.x_star, full_a=system.a)
        assert np.array_equal(res.x_final.data, problem.x0.data)
        assert len(res.trace.records) == 1
        assert res.trace.records[0].iteration == 0
        assert res.trace.records[0].step_size is None
        want = mg.objective(system.a, system.b, problem.x0)
        assert abs(res.trace.records[0].objective - want) <= 1e-12 * want

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
            x0=problem.x0,
        )
        alpha = 0.25 / mg.lipschitz_constant(system.a, 0.5)
        swap = 2000
        sched = mg.HybridStep(alpha, swap)
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

    def test_also_record_outside_the_run_is_ignored(self, tmp_path):
        # the loop reaches iterations 1..T only, so callers pass a swap iteration past T as it is
        system, problem = make_problem(m=40, seed=26)
        T = 40
        csv = []
        for extra in ((), (0, T + 1, 10 * T)):
            cfg = mg.SolverConfig(
                schedule=mg.HybridStep(1e-3, 10 * T), total_iters=T, seed=6, trace_every=10, also_record=extra
            )
            res = mg.run_msgdt(problem, cfg, x_star=system.x_star, full_a=system.a)
            path = tmp_path / f"trace{len(extra)}.csv"
            res.trace.write_csv(path)
            csv.append((res.trace.records, path.read_bytes()))
        assert csv[0] == csv[1]


class TestObjective:
    def test_zero_at_solution(self):
        system, _ = make_problem(seed=27)
        assert mg.objective(system.a, system.b, system.x_star) == pytest.approx(0.0, abs=1e-20)
        grad = oracle.full_gradient(system.a, system.b, system.x_star)
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
        analytic = mg.inner(oracle.full_gradient(system.a, system.b, x), z)
        assert fd == pytest.approx(analytic, rel=1e-6)


class TestSpectralObjective:
    """Objective records come from per-frequency Gram terms; they agree with ``objective`` on the iterate."""

    @staticmethod
    def redraw_run(a, b, x0, model, iters, seed):
        problem = mg.ProblemInstance(a_tilde=a, b=b, model=model, x0=x0)
        config = mg.SolverConfig(schedule=mg.ConstantStep(0.2 * model.p**2 / mg.lipschitz_constant(a, 1.0)),
                                 total_iters=iters, sampling="redraw", seed=seed, trace_every=10)
        return mg.run_msgdt(problem, config, full_a=a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    @pytest.mark.parametrize("shape", ["wide", "zero-column"])
    def test_rank_deficient_full_a(self, shape, kind, n):
        # m < l, or a column of A that is zero: G_f is singular and the centre is a pseudo-inverse point
        m, l, q = (3, 6, 2) if shape == "wide" else (40, 4, 3)
        rng = np.random.default_rng(n)
        data = rng.standard_normal((n, m, l))
        if shape == "zero-column":
            data[:, :, 1] = 0.0
        a, b = mg.Tensor3(data), mg.Tensor3(rng.standard_normal((n, m, q)))
        x0 = mg.Tensor3(rng.standard_normal((n, l, q)))
        res = self.redraw_run(a, b, x0, model_for(kind, 0.7, 2), 30, n)
        records = res.trace.by_iteration()
        for x, rec in ((x0, records[0]), (res.x_final, records[30])):
            want = mg.objective(a, b, x)
            assert abs(rec.objective - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_zero_at_the_solution_of_a_consistent_system(self, n):
        system = mg.gen_synthetic(mg.Dims(60, 4, 3, n), 40 + n)
        res = self.redraw_run(system.a, system.b, system.x_star, mg.UniformMissing(0.6), 0, n)
        scale = mg.frob_norm(system.b) ** 2 / (2 * system.a.m)
        assert abs(res.trace.records[0].objective) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_near_the_solution_of_a_consistent_system(self, n):
        # F is below 1e-12 ||B||^2/(2m) here; the uncentred sum of ||A X||^2 and ||B||^2 misses by 3e-5 to 8e-4 relative
        system = mg.gen_synthetic(mg.Dims(60, 4, 3, n), 50 + n)
        nudge = 1e-6 * np.random.default_rng(n).standard_normal(system.x_star.data.shape)
        x0 = mg.Tensor3(system.x_star.data + nudge)
        res = self.redraw_run(system.a, system.b, x0, mg.UniformMissing(0.6), 0, n)
        want = mg.objective(system.a, system.b, x0)  # itself within about 1e-10 relative, from B's rounding
        assert abs(res.trace.records[0].objective - want) <= 1e-8 * want

    @pytest.mark.parametrize("kind", ["uniform", "colblock", "frontal"])
    @pytest.mark.parametrize("sampling", ["once", "redraw"])
    def test_runs_with_their_own_b_match_their_solo_runs(self, kind, sampling):
        # runs 0 and 3 share one B object, runs 1, 2 and 4 each hold their own
        problems, configs, system = batch_runs(kind, sampling, True, 3, 5, 42)
        rng = np.random.default_rng(42)
        noisy = [mg.Tensor3(system.b.data + 0.1 * rng.standard_normal(system.b.data.shape)) for _ in range(3)]
        for r, b in zip((1, 2, 4), noisy):
            problems[r] = dataclasses.replace(problems[r], b=b)
        problems[3] = dataclasses.replace(problems[3], b=problems[0].b)
        TestRunBatch().check(problems, configs, system, [4, 1, 3, 0, 2])
        for prob, res in zip(problems, run_batch(problems, configs, system.x_star, system.a)):
            want = mg.objective(system.a, prob.b, res.x_final)
            assert abs(res.trace.records[-1].objective - want) <= 1e-12 * want

    def test_full_a_of_other_dims_refused(self):
        system, problem = make_problem(m=20, l=3, n=2)
        cfg = mg.SolverConfig(schedule=mg.ConstantStep(0.01), total_iters=5)
        with pytest.raises(ValueError, match=r"full A dims \(21, 3, 2\) inconsistent with A dims \(20, 3, 2\)"):
            mg.run_msgdt(problem, cfg, full_a=mg.ones(21, 3, 2))

    @pytest.mark.parametrize("dims", [(4, 1, 3), (1, 2, 3)], ids=["one-column", "one-row"])
    def test_x_star_of_other_dims_refused(self, dims):
        # both shapes broadcast against the (4, 2, 3) iterate: unchecked, every iterate_error is wrong
        system, problem = make_problem(m=20, l=4, q=2, n=3)
        cfg = mg.SolverConfig(schedule=mg.ConstantStep(0.01), total_iters=5)
        with pytest.raises(ValueError, match=rf"X\* dims {re.escape(str(dims))} inconsistent with system "
                                             r"\(4, 2, 3\)"):
            mg.run_msgdt(problem, cfg, x_star=mg.ones(*dims))

    def test_one_objective_call_per_b(self, monkeypatch):
        # the records read the Gram terms; objective() runs once per distinct B, at its centre
        problems, configs, system = batch_runs("uniform", "redraw", False, 3, 3, 43)
        problems[2] = dataclasses.replace(problems[2], b=mg.Tensor3(system.b.data + 1.0))
        calls = []
        monkeypatch.setattr(solver, "objective", lambda *args: calls.append(args) or 0.0)
        results = run_batch(problems, configs, system.x_star, system.a)
        assert len(results[0].trace.records) == 7 and len(calls) == 2


class TestProblemValidation:
    def test_rejects_nonbinary_correction(self):
        system, problem = make_problem()
        bad = mg.Tensor3(masking.correction_tensor(problem.model, 3, 2).data * 0.5)
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
        data = masking.correction_tensor(problem.model, 3, 2).data.copy()
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
                correction=masking.correction_tensor(mg.UniformMissing(0.5), 3, 2),
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x0(self, value):
        _, problem = make_problem()
        x0 = problem.x0.data.copy()
        x0.flat[-1] = value
        with pytest.raises(ValueError, match="X0 has non-finite entries"):
            mg.ProblemInstance(a_tilde=problem.a_tilde, b=problem.b, model=problem.model, x0=mg.Tensor3(x0))

    def test_rejects_shape_mismatch(self):
        system, problem = make_problem()
        with pytest.raises(ValueError):
            mg.ProblemInstance(
                a_tilde=problem.a_tilde,
                b=mg.ones(problem.b.m + 1, problem.b.l, problem.b.n),
                model=problem.model,
                    x0=problem.x0,
            )

    @pytest.mark.parametrize("dims", [(3, 1, 2), (2, 2, 2), (3, 2, 3)], ids=["one-column", "two-rows", "tube-of-3"])
    def test_rejects_x0_of_other_dims(self, dims):
        _, problem = make_problem(l=3, q=2, n=2)
        with pytest.raises(ValueError, match=rf"^X0 dims {re.escape(str(dims))} inconsistent with system "
                                             r"\(3, 2, 2\)$"):
            mg.ProblemInstance(a_tilde=problem.a_tilde, b=problem.b, model=problem.model, x0=mg.ones(*dims))


def test_solve_path_does_not_load_the_oracle():
    # a fresh interpreter: this one has already imported the oracle
    code = (
        "import sys\n"
        "import msgdt.solver, msgdt.experiment, msgdt.bounds, msgdt.synthetic\n"
        "loaded = [m for m in ('msgdt.oracle', 'msgdt.checks') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(mg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    assert sorted(oracle.__all__) == sorted([
        "bcirc", "unfold", "fold", "is_hermitian", "enumerate_row_masks", "exact_row_gram_expectation",
        "gradient_estimate", "update_linear_part", "full_gradient",
    ])
    assert all(callable(getattr(oracle, name)) for name in oracle.__all__)
