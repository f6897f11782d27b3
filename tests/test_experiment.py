"""The fixed-step and decaying-step protocols of :mod:`msgdt.experiment`."""

import pytest

import msgdt as mg
from msgdt.experiment import ExperimentSpec, decaying_step_trials, fixed_step_trials

SEEDS = (5, 17, 3)
ITERS = 300


@pytest.fixture(scope="module", params=["uniform", "colblock", "frontal"])
def instance(request):
    system = mg.gen_synthetic(mg.Dims(60, 3, 2, 3), 41)
    p = 0.5
    model = {
        "uniform": mg.UniformMissing(p),
        "colblock": mg.ColumnBlockMissing(p, 3),
        "frontal": mg.FrontalSliceMissing(p),
    }[request.param]
    problem = mg.ProblemInstance(a_tilde=system.a, b=system.b, model=model, x0=mg.zeros(3, 2, 3))
    lg = mg.lipschitz_constant(system.a, p)
    # a ball that excludes X*, so the projection acts and a protocol that skipped it would differ
    return system, problem, lg, 0.2 * mg.frob_norm(system.x_star)


def solo_runs(problem, system, schedule, radius, **config):
    """One ``run_msgdt`` per seed, each with the config the protocols build."""
    return [
        mg.run_msgdt(
            problem,
            mg.SolverConfig(schedule=schedule, total_iters=ITERS, projection_radius=radius,
                            sampling="redraw", seed=seed, **config),
            x_star=system.x_star,
            full_a=system.a,
        )
        for seed in SEEDS
    ]


def test_fixed_step_matches_solo_runs(instance):
    system, problem, lg, radius = instance
    got = fixed_step_trials(problem, 0.5 / lg, radius, SEEDS, ITERS, 50, system.x_star)
    solo = solo_runs(problem, system, mg.ConstantStep(0.5 / lg), radius, trace_every=50)
    want = {
        rec.iteration: [res.trace.by_iteration()[rec.iteration].iterate_error ** 2 for res in solo]
        for rec in solo[0].trace.records
    }
    assert list(got) == [0, 50, 100, 150, 200, 250, 300]
    assert got == want  # float ==: bit for bit


def test_decaying_step_matches_solo_runs(instance):
    system, problem, lg, radius = instance
    checkpoints = (10, 100, ITERS)
    got = decaying_step_trials(
        problem, 1.0 / lg, radius, SEEDS, ITERS, checkpoints, system.x_star, system.a
    )
    # the trace settings acceptance criterion 10 used before it called the protocol
    solo = solo_runs(problem, system, mg.InverseSqrtStep(1.0 / lg), radius,
                     trace_every=10**9, also_record=(10, 100))
    want = {t: [res.trace.by_iteration()[t].objective for res in solo] for t in checkpoints}
    assert got == want  # float ==: bit for bit


def test_decaying_step_refuses_checkpoint_past_budget(instance):
    system, problem, lg, radius = instance
    with pytest.raises(ValueError, match="checkpoint 301 lies outside the iterations 0..300"):
        decaying_step_trials(problem, 1.0 / lg, radius, SEEDS, ITERS, (100, 301), system.x_star, system.a)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_spec_rejects_a_step_divisor_that_is_not_finite_and_positive(value):
    with pytest.raises(ValueError, match=f"step divisor must be finite and positive, got {value}"):
        ExperimentSpec(dims=mg.Dims(40, 3, 2, 2), p_values=(0.5,), step_divisor=value)
