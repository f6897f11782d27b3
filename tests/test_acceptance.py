"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``.  The long-running criteria
(9-11) simulate the solver at the documented scales; the whole module stays
within its per-criterion runtime budgets on a single desktop core.
Criteria 9 and 10 run all of their trials as one batch, through the
library's protocols :func:`~msgdt.experiment.fixed_step_trials` and
:func:`~msgdt.experiment.decaying_step_trials`.
"""

import math

import numpy as np
import pytest

import msgdt as mg
from msgdt.checks import (
    lipschitz_ratio_max,
    second_moment_sample,
    self_adjointness_max_dev,
    strong_convexity_margin,
    unbiasedness_relative_error,
)
from msgdt.cli import main as cli_main
from msgdt.experiment import (
    ExperimentSpec,
    decaying_step_trials,
    fixed_step_trials,
    run_experiment,
)
from msgdt.oracle import bcirc, exact_row_gram_expectation, fold, unfold


def _report(capsys, num, ok, detail):
    line = f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _models(p, l):
    return [
        mg.UniformMissing(p),
        mg.ColumnBlockMissing(p, l),
        mg.FrontalSliceMissing(p),
    ]


@pytest.fixture(scope="module")
def tall_instance():
    """Shared strongly convex instance for criteria 9 and 10."""
    system = mg.gen_synthetic(mg.Dims(500, 5, 2, 3), 1234)
    p = 0.5
    model = mg.UniformMissing(p)
    lg = mg.lipschitz_constant(system.a, p)
    mu, _ = mg.strong_convexity(system.a)
    radius = 2.0 * mg.frob_norm(system.x_star)
    problem = mg.ProblemInstance(
        a_tilde=system.a,  # redraw mode: full tensor, fresh mask each iteration
        b=system.b,
        model=model,
        correction=mg.correction_tensor(model, 5, 3),
        x0=mg.zeros(5, 2, 3),
    )
    return system, problem, p, lg, mu, radius


def test_criterion_01_tprod_oracle_equivalence(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        m, l, q = (int(v) for v in rng.integers(1, 9, size=3))
        n = int(rng.integers(1, 6))
        a = mg.Tensor3(rng.standard_normal((n, m, l)))
        x = mg.Tensor3(rng.standard_normal((n, l, q)))
        want = fold(bcirc(a) @ unfold(x), n).data
        got = mg.tprod(a, x).data
        scale = max(float(np.max(np.abs(want))), 1e-300)
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    _report(capsys, 1, worst <= 1e-12, f"200 instances, max rel err {worst:.2e} <= 1e-12")


def test_criterion_02_sub_multiplicativity_and_tightness(capsys):
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(500):
        m, l, q = (int(v) for v in rng.integers(1, 8, size=3))
        n = int(rng.integers(1, 7))
        a = mg.Tensor3(rng.standard_normal((n, m, l)))
        x = mg.Tensor3(rng.standard_normal((n, l, q)))
        lhs = mg.frob_norm(mg.tprod(a, x))
        rhs = math.sqrt(n) * mg.frob_norm(a) * mg.frob_norm(x)
        ok &= lhs <= rhs * (1 + 1e-12)
    m, l, q, n = 3, 4, 2, 5
    prod = mg.tprod(mg.ones(m, l, n), mg.ones(l, q, n))
    tight = (
        bool(np.all(prod.data == float(l * n)))
        and mg.inner(prod, prod) == float((l * n) ** 2 * m * q * n)
        and mg.frob_norm(prod) == math.sqrt((l * n) ** 2 * m * q * n)
    )
    _report(capsys, 2, ok and tight, "500 instances bounded; all-ones equality exact at (3,4,2,5)")


def test_criterion_03_correction_identity_by_enumeration(capsys):
    rng = np.random.default_rng(103)
    l, n = 4, 3
    a_row = mg.Tensor3(rng.standard_normal((n, 1, l)))
    gram = mg.tprod(mg.transpose(a_row), a_row).data
    scale = float(np.max(np.abs(gram)))
    worst = 0.0
    for p in (0.3, 0.7):
        models = [
            mg.UniformMissing(p),
            mg.ColumnBlockMissing(p, 1),
            mg.ColumnBlockMissing(p, 2),
            mg.FrontalSliceMissing(p),
        ]
        for model in models:
            c = mg.correction_tensor(model, l, n).data
            want = p * p * gram + (p - p * p) * c * gram
            got = exact_row_gram_expectation(a_row, model).data
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    _report(capsys, 3, worst <= 1e-12, f"three models, p in {{0.3,0.7}}, max rel err {worst:.2e}")


def test_criterion_04_unbiasedness_by_enumeration(capsys):
    system = mg.gen_synthetic(mg.Dims(4, 3, 2, 2), 104)
    x = mg.Tensor3(np.random.default_rng(105).standard_normal((2, 3, 2)))
    worst = 0.0
    for model in _models(0.3, 3):
        worst = max(worst, unbiasedness_relative_error(system.a, system.b, x, model))
    _report(capsys, 4, worst <= 1e-10, f"(row x mask) mean of g vs grad F, max rel err {worst:.2e}")


def test_criterion_05_lipschitz_bound(capsys):
    system = mg.gen_synthetic(mg.Dims(6, 3, 2, 2), 106)
    ok = True
    detail = []
    for model in _models(0.5, 3):
        ratio, bound = lipschitz_ratio_max(
            system.a, system.b, model, 1000, np.random.default_rng(107)
        )
        ok &= ratio <= bound * (1 + 1e-12)
        detail.append(f"{type(model).__name__}: {ratio:.4g} <= {bound:.4g}")
    _report(capsys, 5, ok, "; ".join(detail))


def test_criterion_06_second_moment_bounds(capsys):
    system = mg.gen_synthetic(mg.Dims(6, 3, 2, 2), 108)
    p = 0.5
    radius = 2.0 * mg.frob_norm(system.x_star)
    rng = np.random.default_rng(109)
    x = mg.Tensor3(rng.standard_normal(system.x_star.data.shape))
    x = mg.Tensor3(x.data * (0.9 * radius / mg.frob_norm(x)))
    g_bound = mg.gradient_second_moment_bound(system.a, system.b, radius, p)
    gstar_bound = mg.solution_second_moment_bound(system.a, radius, p)
    ok = True
    worst_ratio = 0.0
    for model in _models(p, 3):
        at_x = second_moment_sample(system.a, system.b, x, model, 10_000, rng).mean_sq_norm
        at_star = second_moment_sample(
            system.a, system.b, system.x_star, model, 10_000, rng
        ).mean_sq_norm
        ok &= at_x <= g_bound and at_star <= gstar_bound
        worst_ratio = max(worst_ratio, at_x / g_bound, at_star / gstar_bound)
    _report(
        capsys,
        6,
        ok,
        f"10^4 draws per model; worst sample/bound ratio {worst_ratio:.3f} <= 1",
    )


def test_criterion_07_strong_convexity(capsys):
    rng = np.random.default_rng(110)
    a = mg.Tensor3(rng.standard_normal((3, 5, 3)))  # 5 x 3 x 3
    mu, sigma_min = mg.strong_convexity(a)
    oracle = float(np.linalg.svd(bcirc(a), compute_uv=False).min())
    agrees = abs(sigma_min - oracle) <= 1e-8
    b = mg.tprod(a, mg.Tensor3(rng.standard_normal((3, 3, 2))))
    margin = strong_convexity_margin(a, b, mu, pairs=1000, rng=np.random.default_rng(111))
    holds = margin >= -1e-9
    _report(
        capsys,
        7,
        agrees and holds,
        f"sigma_min gap {abs(sigma_min - oracle):.2e} <= 1e-8; min inequality slack {margin:.3g}",
    )


def test_criterion_08_self_adjoint_linear_part(capsys):
    system = mg.gen_synthetic(mg.Dims(5, 3, 2, 3), 112)
    worst = 0.0
    for model in _models(0.5, 3):
        worst = max(
            worst,
            self_adjointness_max_dev(system.a, 2, model, 100, np.random.default_rng(113)),
        )
    _report(capsys, 8, worst <= 1e-10, f"100 draws per model, max adjoint gap {worst:.2e}")


def test_criterion_09_fixed_step_horizon(capsys, tall_instance):
    system, problem, p, lg, mu, radius = tall_instance
    alpha = 0.5 / lg
    g_star = mg.solution_second_moment_bound(system.a, radius, p)
    horizon = mg.horizon_bound(alpha, mu, lg, g_star)
    ratio = mg.contraction_ratio(alpha, mu, lg)
    e0 = mg.frob_norm(system.x_star) ** 2

    trials, T = 20, 5000
    seeds = range(1000, 1000 + trials)  # seed 1000 + trial
    sq_errors = fixed_step_trials(problem, alpha, radius, seeds, T, 250, system.x_star)

    final_mean = float(np.mean(sq_errors[T]))
    final_ok = final_mean <= horizon
    seq_ok = all(
        float(np.mean(vals)) <= 2.0 * mg.fixed_step_envelope(t, ratio, e0, horizon)
        for t, vals in sq_errors.items()
    )
    _report(
        capsys,
        9,
        final_ok and seq_ok,
        f"mean err^2 at t=5000 is {final_mean:.4f} <= horizon {horizon:.1f}; "
        f"bound sequence holds at all {len(sq_errors)} traced iterations",
    )


def test_criterion_10_decaying_step_bound(capsys, tall_instance):
    system, problem, p, lg, mu, radius = tall_instance
    step_const = 1.0 / lg
    diameter = 2.0 * radius
    g_bound = mg.gradient_second_moment_bound(system.a, system.b, radius, p)

    trials, T = 40, 10_000
    checkpoints = (100, 1000, 10_000)
    seeds = range(2000, 2000 + trials)  # seed 2000 + trial
    objectives = decaying_step_trials(
        problem, step_const, radius, seeds, T, checkpoints, system.x_star, system.a
    )

    ok = True
    details = []
    for t in checkpoints:
        mean_gap = float(np.mean(objectives[t]))  # F(X*) = 0 for a consistent system
        bound = mg.decay_bound(t, diameter, step_const, g_bound)
        ok &= mean_gap <= bound
        details.append(f"t={t}: {mean_gap:.3g} <= {bound:.3g}")
    _report(capsys, 10, ok, "; ".join(details))


def test_criterion_11_figure_protocol_desk_scale(capsys, tmp_path):
    p_values = (0.3, 0.5, 0.7, 0.99)
    ok = True
    details = []
    for kind, block in (("uniform", 1), ("colblock", 4), ("frontal", 1)):
        spec = ExperimentSpec(
            dims=mg.Dims(10_000, 20, 10, 10),
            p_values=p_values,
            model_kind=kind,
            block_size=block,
            swap_iter=5000,
            step_divisor=5000.0,
            trials=10,
            seed=300,
            out_dir=tmp_path / kind,
            trace_every=500,
        )
        rows = run_experiment(spec)
        phase_ok = all(
            row.error_swap < row.error_initial and row.error_final < row.error_swap
            for row in rows
        )
        medians = [
            float(np.median([r.error_final for r in rows if r.p == p])) for p in p_values
        ]
        monotone = all(a >= b for a, b in zip(medians, medians[1:]))
        ok &= phase_ok and monotone
        details.append(
            f"{kind}: medians " + "/".join(f"{m:.3g}" for m in medians) + (" monotone" if monotone else " NOT monotone") + ("" if phase_ok else "; phase check FAILED")
        )
    _report(capsys, 11, ok, "; ".join(details))


def test_criterion_12_determinism_of_seeded_commands(capsys, tmp_path):
    def run_all(base):
        gen = base / "gen"
        cli_main(["gen", "--dims", "40,4,2,3", "--seed", "21", "--out", str(gen)])
        masked = base / "mask"
        cli_main(
            ["mask", "--a", str(gen / "a.t3f"), "--model", "uniform", "--p", "0.6",
             "--seed", "22", "--out", str(masked)]
        )
        solved = base / "solve"
        cli_main(
            ["solve", "--a", str(masked / "atilde.t3f"), "--b", str(gen / "b.t3f"),
             "--model", "uniform", "--p", "0.6", "--iters", "40", "--swap-iter", "20",
             "--step-divisor", "30", "--seed", "23", "--trace-every", "10",
             "--xstar", str(gen / "xstar.t3f"), "--out", str(solved)]
        )
        exp = base / "exp"
        cli_main(
            ["experiment", "--dims", "50,4,2,3", "--p", "0.5,1.0", "--trials", "2",
             "--swap-iter", "25", "--step-divisor", "25", "--seed", "24",
             "--trace-every", "10", "--out", str(exp)]
        )
        return {
            str(path.relative_to(base)): path.read_bytes()
            for path in sorted(base.rglob("*"))
            if path.suffix in (".t3f", ".csv")
        }

    first = run_all(tmp_path / "first")
    second = run_all(tmp_path / "second")
    identical = first == second
    _report(
        capsys,
        12,
        identical,
        f"{len(first)} T3F1/CSV outputs byte-identical across repeated runs",
    )
