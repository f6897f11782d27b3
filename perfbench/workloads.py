"""The benchmark's workloads.

Each workload turns the benchmark seed into msgdt inputs in ``prepare``
(untimed set-up), does its fixed work in ``run_pass`` (timed) and checks the
outputs in ``verify`` (untimed).  Layer functions are always looked up on
their module at call time (``experiment.run_experiment``, ``cli.main``) so
that an installed tracer sees the calls.  README.md says why each workload
exists and which numbers it should move.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from msgdt import bounds, checks, cli, experiment, masking, solver, synthetic
from msgdt.tensor import Tensor3

from gate import Gate, finite, phase_ok

MODEL_KINDS = ("uniform", "colblock", "frontal")


@dataclass
class PassResult:
    iters: int  # solver iterations the pass ran
    final_errors: list[float]  # ||X_T - X*|| of every solver run, in a fixed order
    draws: int = 0  # (row, mask) draws made by the Monte Carlo checks


def derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def flops_per_kernel_call(n: int, l: int, q: int) -> int:
    """Operations of the direct row-gradient kernel, counted from its three products."""
    return 4 * n * n * l * q + 2 * n * n * l * l + 2 * n * n * l * l * q


def bytes_per_kernel_call(n: int, l: int, q: int) -> int:
    """Bytes of the kernel's circulant gather of X (n^2 l q doubles), written then copied."""
    return 2 * 8 * n * n * l * q


def max_row_norm_sq(a: np.ndarray) -> float:
    """a_max^2 for data in (n, m, l) layout, recomputed independently of msgdt."""
    return float(np.max(np.einsum("kij,kij->i", a, a)))


class SweepDesk:
    """experiment.run_experiment in acceptance criterion 11's layout, at a subset of its p values."""

    dims = synthetic.Dims(10_000, 20, 10, 10)
    kernel_shape = (10, 20, 10)  # n, l, q
    blocks = {"uniform": 1, "colblock": 4, "frontal": 1}
    p_values = (0.3, 0.5, 0.7)

    def prepare(self, seed: int, workdir: Path):
        return [
            experiment.ExperimentSpec(
                dims=self.dims,
                p_values=self.p_values,
                model_kind=kind,
                block_size=self.blocks[kind],
                swap_iter=5000,
                step_divisor=5000.0,
                trials=1,
                seed=seed,
                out_dir=workdir / kind,
                sampling="once",
                trace_every=500,
            )
            for kind in MODEL_KINDS
        ]

    def run_pass(self, specs, gate: Gate):
        return [
            gate.attempt(f"sweep {s.model_kind}", len(s.p_values), experiment.run_experiment, s)
            for s in specs
        ]

    def verify(self, specs, outputs, gate: Gate) -> PassResult:
        errors = []
        for spec, rows in zip(specs, outputs):
            for row in rows or ():
                gate.check(
                    f"sweep {spec.model_kind} p={row.p:g}",
                    phase_ok(row.error_initial, row.error_swap, row.error_final),
                    f"errors initial/swap/final {row.error_initial} {row.error_swap} {row.error_final}",
                )
                errors.append(row.error_final)
        iters = sum(s.total_iters * len(s.p_values) * s.trials for s in specs)
        return PassResult(iters, errors)


def _read_t3f1(path: Path) -> np.ndarray:
    """T3F1 reader independent of msgdt's, returning the (n, m, l) array."""
    raw = path.read_bytes()
    if raw[:4] != b"T3F1":
        raise ValueError(f"{path}: bad magic")
    m, l, n = (int(v) for v in np.frombuffer(raw[4:28], dtype="<u8"))
    return np.frombuffer(raw[28:], dtype="<f8").reshape(n, m, l)


def _cli(argv: list[str]):
    """(exit code, stdout) of one msgdt command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse and some commands exit this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class WideTube:
    """gen -> mask -> solve -> bounds through msgdt.cli.main on T3F1 files, with long tubes."""

    dims = "2000,20,10,24"
    kernel_shape = (24, 20, 10)
    p = 0.5
    block = 4
    iters = 2000
    swap_iter = 1000
    radius = 160.0

    def prepare(self, seed: int, workdir: Path):
        d = workdir / "pass"
        s_gen, s_mask, s_solve = (derived_seed(seed, k) for k in range(3))
        model = ["--model", "colblock", "--p", str(self.p), "--block-size", str(self.block)]
        commands = {
            "gen": ["gen", "--dims", self.dims, "--seed", str(s_gen), "--out", str(d / "gen")],
            "mask": ["mask", "--a", str(d / "gen/a.t3f"), *model, "--seed", str(s_mask),
                     "--out", str(d / "mask")],
            "solve": ["solve", "--a", str(d / "mask/atilde.t3f"), "--b", str(d / "gen/b.t3f"), *model,
                      "--iters", str(self.iters), "--swap-iter", str(self.swap_iter),
                      "--step-divisor", "5000", "--sampling", "once", "--seed", str(s_solve),
                      "--trace-every", "500", "--xstar", str(d / "gen/xstar.t3f"),
                      "--full-a", str(d / "gen/a.t3f"), "--out", str(d / "solve")],
            "bounds": ["bounds", "--a", str(d / "gen/a.t3f"), "--b", str(d / "gen/b.t3f"),
                       "--p", str(self.p), "--radius", str(self.radius), "--out", str(d / "bounds")],
        }
        return d, commands

    def run_pass(self, inputs, gate: Gate):
        _, commands = inputs
        return {name: gate.attempt(f"cli {name}", 1, _cli, argv) for name, argv in commands.items()}

    def verify(self, inputs, outputs, gate: Gate) -> PassResult:
        d, _ = inputs
        for name, result in outputs.items():
            if result is not None:
                gate.check(f"cli {name}", result[0] == 0, f"exit code {result[0]}")
        errors = gate.attempt("read back", 2, self._read_back, d, outputs, gate) or []
        shutil.rmtree(d, ignore_errors=True)
        return PassResult(self.iters, errors)

    def _read_back(self, d: Path, outputs, gate: Gate) -> list[float]:
        t = {name: _read_t3f1(d / rel) for name, rel in (
            ("a", "gen/a.t3f"), ("b", "gen/b.t3f"), ("xstar", "gen/xstar.t3f"),
            ("mask", "mask/mask.t3f"), ("atilde", "mask/atilde.t3f"), ("xfinal", "solve/xfinal.t3f"))}
        rows = (d / "solve/trace.csv").read_text().splitlines()
        final_error = float(rows[-1].split(",")[3])
        direct_error = float(np.linalg.norm(t["xfinal"] - t["xstar"]))
        gate.check(
            "T3F1 outputs",
            all(np.isfinite(v).all() for v in t.values())
            and np.isin(t["mask"], (0.0, 1.0)).all()
            and np.array_equal(t["atilde"], t["mask"] * t["a"])
            and t["xfinal"].shape == t["xstar"].shape
            and finite(final_error)
            and abs(final_error - direct_error) <= 1e-12 * direct_error,
            f"trace final error {final_error} vs ||xfinal - xstar|| {direct_error}",
        )
        kv = dict(line.split("=", 1) for line in outputs["bounds"][1].split() if "=" in line)
        lg = float(kv["lipschitz"])
        expected = t["a"].shape[0] * max_row_norm_sq(t["a"]) / self.p**2
        gate.check("bounds L_g", abs(lg - expected) <= 1e-12 * expected, f"L_g {lg} vs {expected}")
        return [final_error]


class TheoryCheck:
    """Constant validation: bound report, redraw runs with projection, Monte Carlo checks."""

    dims = synthetic.Dims(500, 5, 2, 3)
    kernel_shape = (3, 5, 2)
    p = 0.5
    const_runs = 2  # per model; criteria 9 and 10 also run twice as many decaying runs
    decay_runs = 4
    const_iters = 2000
    decay_iters = 2000
    decay_checkpoints = (100, 2000)
    moment_draws = 2000
    lipschitz_draws = 500
    identity_draws = 20_000

    def prepare(self, seed: int, workdir: Path):
        # Criteria 9 and 10's instance: the seed drives the runs, masks and checks.
        # A seed-drawn instance would change the conditioning, and with it the
        # final errors, by a factor of two between seeds.
        system = synthetic.gen_synthetic(self.dims, 1234)
        small4 = synthetic.gen_synthetic(synthetic.Dims(4, 3, 2, 2), np.random.SeedSequence([seed, 2]))
        small6 = synthetic.gen_synthetic(synthetic.Dims(6, 3, 2, 2), np.random.SeedSequence([seed, 3]))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        x4 = Tensor3(rng.standard_normal((2, 3, 2)))
        radius6 = 2.0 * float(np.linalg.norm(small6.x_star.data))
        x6 = rng.standard_normal(small6.x_star.data.shape)
        x6 = Tensor3(x6 * (0.9 * radius6 / float(np.linalg.norm(x6))))
        rows = [Tensor3(rng.standard_normal((2, 1, 3))) for _ in MODEL_KINDS]
        return {
            "seed": seed,
            "system": system,
            "radius": 2.0 * float(np.linalg.norm(system.x_star.data)),
            "small4": small4,
            "x4": x4,
            "small6": small6,
            "radius6": radius6,
            "x6": x6,
            "rows": rows,
        }

    @staticmethod
    def models(p: float, block: int):
        return (masking.UniformMissing(p), masking.ColumnBlockMissing(p, block),
                masking.FrontalSliceMissing(p))

    def _model_runs(self, inp, model, alpha: float, step_const: float, index: int):
        system, radius = inp["system"], inp["radius"]
        _, l, n = system.a.dims
        problem = solver.ProblemInstance(
            a_tilde=system.a,
            b=system.b,
            model=model,
            correction=masking.correction_tensor(model, l, n),
            x0=Tensor3(np.zeros((n, l, system.b.l))),
        )
        const = [
            solver.run_msgdt(problem, solver.SolverConfig(
                schedule=solver.ConstantStep(alpha), total_iters=self.const_iters,
                projection_radius=radius, sampling="redraw",
                seed=derived_seed(inp["seed"], 10, index, k), trace_every=250,
            ), x_star=system.x_star)
            for k in range(self.const_runs)
        ]
        decay = [
            solver.run_msgdt(problem, solver.SolverConfig(
                schedule=solver.InverseSqrtStep(step_const), total_iters=self.decay_iters,
                projection_radius=radius, sampling="redraw",
                seed=derived_seed(inp["seed"], 20, index, k), trace_every=10**9,
                also_record=self.decay_checkpoints,
            ), x_star=system.x_star, full_a=system.a)
            for k in range(self.decay_runs)
        ]
        return const, decay

    def run_pass(self, inp, gate: Gate):
        system, radius, p = inp["system"], inp["radius"], self.p
        rng = np.random.default_rng(np.random.SeedSequence([inp["seed"], 5]))
        lg = bounds.lipschitz_constant(system.a, p)
        out = {"lg": lg}
        out["report"] = gate.attempt(
            "bound report", 1, bounds.compute_bound_report, system.a, system.b, radius, p, 0.5 / lg
        )
        out["runs"] = [
            gate.attempt(f"theory runs {kind}", self.const_runs + self.decay_runs + 2, self._model_runs,
                         inp, model, 0.5 / lg, 1.0 / lg, i)
            for i, (kind, model) in enumerate(zip(MODEL_KINDS, self.models(p, system.a.l)))
        ]
        s4, s6 = inp["small4"], inp["small6"]
        out["unbiased"] = [
            gate.attempt(f"unbiasedness {kind}", 1, checks.unbiasedness_relative_error,
                         s4.a, s4.b, inp["x4"], model)
            for kind, model in zip(MODEL_KINDS, self.models(0.3, 3))
        ]
        out["lipschitz"] = [
            gate.attempt(f"lipschitz {kind}", 1, checks.lipschitz_ratio_max,
                         s6.a, s6.b, model, self.lipschitz_draws, rng)
            for kind, model in zip(MODEL_KINDS, self.models(p, 3))
        ]
        out["moment_bounds"] = (
            bounds.gradient_second_moment_bound(s6.a, s6.b, inp["radius6"], p),
            bounds.solution_second_moment_bound(s6.a, inp["radius6"], p),
        )
        out["moments"] = [
            gate.attempt(f"second moment {kind}", 1, lambda model=model: (
                checks.second_moment_sample(s6.a, s6.b, inp["x6"], model, self.moment_draws, rng),
                checks.second_moment_sample(s6.a, s6.b, s6.x_star, model, self.moment_draws, rng),
            ))
            for kind, model in zip(MODEL_KINDS, self.models(p, 3))
        ]
        out["identity"] = [
            gate.attempt(f"identity {kind}", 1, masking.verify_expectation_identity,
                         row, model, self.identity_draws, rng)
            for kind, row, model in zip(MODEL_KINDS, inp["rows"], self.models(p, 3))
        ]
        return out

    def verify(self, inp, out, gate: Gate) -> PassResult:
        system, radius, p = inp["system"], inp["radius"], self.p
        report = out["report"]
        if report is not None:
            expected = system.a.n * max_row_norm_sq(system.a.data) / p**2
            fields = dataclasses.astuple(report)
            gate.check(
                "bound report",
                finite(*fields)
                and abs(report.lipschitz - expected) <= 1e-12 * expected
                and 0.0 < report.contraction < 1.0
                and report.horizon > 0.0,
                f"report {fields}, L_g recomputed {expected}",
            )
        errors = []
        e0 = float(np.linalg.norm(system.x_star.data)) ** 2
        for kind, runs in zip(MODEL_KINDS, out["runs"]):
            if runs is None:
                continue
            const, decay = runs
            for k, res in enumerate(const + decay):
                err = res.trace.records[-1].iterate_error
                gate.check(f"theory run {kind} #{k}", finite(err) and np.isfinite(res.x_final.data).all())
                errors.append(err)
            if report is None:
                continue
            sq: dict[int, list[float]] = {}
            for res in const:
                for rec in res.trace.records:
                    sq.setdefault(rec.iteration, []).append(rec.iterate_error**2)
            envelope = {
                t: 2.0 * (report.contraction**t * e0 + report.horizon) for t in sq
            }
            final_mean = float(np.mean(sq[self.const_iters]))
            gate.check(
                f"horizon {kind}",
                final_mean <= report.horizon
                and all(float(np.mean(v)) <= envelope[t] for t, v in sq.items()),
                f"final mean err^2 {final_mean} vs horizon {report.horizon}",
            )
            step_const = 1.0 / out["lg"]
            gaps = {
                t: float(np.mean([res.trace.by_iteration()[t].objective for res in decay]))
                for t in self.decay_checkpoints
            }
            gate.check(
                f"decay bound {kind}",
                all(
                    gap <= bounds.decay_bound(t, 2.0 * radius, step_const, report.gradient_second_moment)
                    for t, gap in gaps.items()
                ),
                f"mean objective gaps {gaps}",
            )
        for kind, err in zip(MODEL_KINDS, out["unbiased"]):
            if err is not None:
                gate.check(f"unbiasedness {kind}", finite(err) and err <= 1e-10, f"gap {err}")
        for kind, got in zip(MODEL_KINDS, out["lipschitz"]):
            if got is not None:
                ratio, bound = got
                gate.check(f"lipschitz {kind}", finite(ratio) and ratio <= bound * (1 + 1e-12),
                           f"ratio {ratio} vs bound {bound}")
        g_bound, gstar_bound = out["moment_bounds"]
        for kind, got in zip(MODEL_KINDS, out["moments"]):
            if got is not None:
                at_x, at_star = got[0].mean_sq_norm, got[1].mean_sq_norm
                gate.check(f"second moment {kind}",
                           finite(at_x, at_star) and at_x <= g_bound and at_star <= gstar_bound,
                           f"{at_x} <= G {g_bound}; {at_star} <= G* {gstar_bound}")
        for kind, rep in zip(MODEL_KINDS, out["identity"]):
            if rep is not None:
                worst = max(rep.max_rel_err_c1, rep.max_rel_err_c2)
                gate.check(f"identity {kind}", finite(worst) and worst <= 0.05, f"deviation {worst}")
        iters = len(MODEL_KINDS) * (self.const_runs * self.const_iters + self.decay_runs * self.decay_iters)
        draws = len(MODEL_KINDS) * (2 * self.moment_draws + self.lipschitz_draws + self.identity_draws)
        return PassResult(iters, errors, draws)


WORKLOADS = {"sweep-desk": SweepDesk(), "wide-tube": WideTube(), "theory-check": TheoryCheck()}
