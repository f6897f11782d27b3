"""msgdt's layers as the traced run sees them, and the per-layer metrics.

Every metric named in BENCHMARK.json's ``per_layer`` list is computed here
from a tracer summary.  A layer that the program no longer has reads as
zero and is counted in ``trace.absent_layers``.
"""

from __future__ import annotations

from spans import Layer

LAYERS = [
    Layer("solver.kernel", "msgdt.solver:_row_gradient"),
    Layer("solver.run_msgdt", "msgdt.solver:run_msgdt"),
    Layer("solver.objective", "msgdt.solver:objective"),
    Layer("solver.ProblemInstance", "msgdt.solver:ProblemInstance.__init__"),
    Layer("solver.RunTrace.write_csv", "msgdt.solver:RunTrace.write_csv"),
    Layer("masking.row_mask_batch", "msgdt.masking:row_mask_batch"),
    Layer("masking.draw_mask", "msgdt.masking:draw_mask"),
    Layer("masking.correction_tensor", "msgdt.masking:correction_tensor"),
    Layer("masking.verify_expectation_identity", "msgdt.masking:verify_expectation_identity"),
    Layer("synthetic.gen_synthetic", "msgdt.synthetic:gen_synthetic"),
    Layer("tensor.tprod", "msgdt.tensor:tprod"),
    Layer("tensor.read_t3f1", "msgdt.tensor:read_t3f1", size=lambda args, t: 28 + t.data.nbytes),
    Layer("tensor.write_t3f1", "msgdt.tensor:write_t3f1", size=lambda args, _: 28 + args[0].data.nbytes),
    Layer("bounds.compute_bound_report", "msgdt.bounds:compute_bound_report"),
    Layer("bounds.strong_convexity", "msgdt.bounds:strong_convexity"),
    Layer("checks.second_moment_sample", "msgdt.checks:second_moment_sample"),
    Layer("checks.lipschitz_ratio_max", "msgdt.checks:lipschitz_ratio_max"),
    Layer("checks.unbiasedness_relative_error", "msgdt.checks:unbiasedness_relative_error"),
    Layer("experiment.run_experiment", "msgdt.experiment:run_experiment"),
    Layer("experiment.run", "msgdt.experiment:_run_one"),
    Layer("cli.gen", "msgdt.cli:cmd_gen"),
    Layer("cli.mask", "msgdt.cli:cmd_mask"),
    Layer("cli.solve", "msgdt.cli:cmd_solve"),
    Layer("cli.bounds", "msgdt.cli:cmd_bounds"),
]

CHECK_LAYERS = (
    "checks.second_moment_sample",
    "checks.lipschitz_ratio_max",
    "masking.verify_expectation_identity",
)


def per_layer_metrics(names, summary, sizes, absent, traced_passes, facts) -> dict[str, float]:
    """Per-pass values of the named metrics.

    ``summary`` is ``Tracer.summary()`` over ``traced_passes`` passes;
    ``facts`` holds the workload's kernel shape and draws per pass and the
    traced and untraced median pass times.
    """

    def layer(name: str) -> dict[str, float]:
        row = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        return {k: v / traced_passes for k, v in row.items()}

    kernel = layer("solver.kernel")
    flops = facts["flops_per_call"]
    check_busy = sum(layer(n)["busy_s"] for n in CHECK_LAYERS)
    special = {
        "solver.kernel.us_per_call": 1e6 * kernel["busy_s"] / kernel["calls"] if kernel["calls"] else 0.0,
        "solver.kernel.gflops": flops * kernel["calls"] / kernel["busy_s"] / 1e9 if kernel["busy_s"] else 0.0,
        "solver.kernel.flops_per_call": flops,
        "solver.kernel.bytes_per_call": facts["bytes_per_call"],
        "solver.ProblemInstance.init_s": layer("solver.ProblemInstance")["busy_s"],
        "checks.draws_per_s": facts["draws"] / check_busy if check_busy else 0.0,
        "experiment.runs": layer("experiment.run")["calls"],
        "trace.wall_s": facts["traced_wall_s"],
        "trace.overhead_s": facts["traced_wall_s"] - facts["untraced_wall_s"],
        "trace.absent_layers": len(absent),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        prefix, _, stat = name.rpartition(".")
        if stat == "bytes":
            out[name] = sizes.get(prefix, 0.0) / traced_passes
        else:
            out[name] = layer(prefix)[stat]
    return out
