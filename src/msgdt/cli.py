"""Command-line interface.

Subcommands: gen, mask, solve, experiment, bounds, verify, frames.  Every
run that writes files also writes a timestamp-free manifest.json (full
config, seed, library version), so reruns with the same arguments produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import compute_bound_report, gradient_second_moment_bound, solution_second_moment_bound
from .checks import lipschitz_ratio_max, second_moment_sample, unbiasedness_relative_error
from .experiment import ExperimentSpec, run_experiment, write_manifest
from .frames import export_frames, ingest_frames
from .masking import MODEL_KINDS, draw_mask, format_model, kind_fields, model_for, verify_expectation_identity
from .solver import (
    ConstantStep,
    HybridStep,
    ProblemInstance,
    SolverConfig,
    run_msgdt,
)
from .synthetic import Dims, gen_synthetic
from .tensor import Tensor3, frob_norm, hadamard, read_t3f1, tprod, write_t3f1


def _parse_radius(text: str):
    if text == "unbounded":
        return None
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"radius must be positive or 'unbounded', got {text}")
    return value


def _parse_p_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise ValueError(f"--p takes comma-separated numbers, got {text!r}") from None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    dims = Dims.parse(args.dims)
    if args.xstar:
        x_star = read_t3f1(args.xstar)
        if x_star.dims != (dims.l, dims.q, dims.n):
            raise ValueError(f"loaded solution dims {x_star.dims} do not match --dims {args.dims}")
        rng = np.random.default_rng(args.seed)
        a = Tensor3(rng.standard_normal((dims.n, dims.m, dims.l)))
        b = tprod(a, x_star)
    else:
        system = gen_synthetic(dims, args.seed)
        a, x_star, b = system.a, system.x_star, system.b
    out = _out_dir(args)
    write_t3f1(a, out / "a.t3f")
    write_t3f1(x_star, out / "xstar.t3f")
    write_t3f1(b, out / "b.t3f")
    write_manifest(out, "gen", {"dims": args.dims, "seed": args.seed, "xstar": args.xstar})
    print(f"wrote a.t3f xstar.t3f b.t3f to {out}")
    return 0


def cmd_mask(args) -> int:
    a = read_t3f1(args.a)
    model = model_for(args.model, args.p, args.block_size)
    rng = np.random.default_rng(args.seed)
    mask = draw_mask(model, a.m, a.l, a.n, rng)
    out = _out_dir(args)
    write_t3f1(mask, out / "mask.t3f")
    write_t3f1(hadamard(mask, a), out / "atilde.t3f")
    (out / "model.txt").write_text(format_model(model) + "\n")
    write_manifest(
        out,
        "mask",
        {"a": str(args.a), "model": format_model(model), "seed": args.seed},
    )
    observed = float(np.mean(mask.data))
    print(f"wrote mask.t3f atilde.t3f to {out} (observed fraction {observed:.4f})")
    return 0


def cmd_solve(args) -> int:
    a = read_t3f1(args.a)
    b = read_t3f1(args.b)
    model = model_for(args.model, args.p, args.block_size)
    alpha = args.alpha if args.alpha is not None else args.p**2 / args.step_divisor
    if args.swap_iter > 0:
        schedule = HybridStep.matched(alpha, args.swap_iter)
    else:
        schedule = ConstantStep(alpha)

    x0_data = np.full((a.n, a.l, b.l), float(args.x0_fill))
    problem = ProblemInstance(
        a_tilde=a,
        b=b,
        model=model,
        x0=Tensor3(x0_data),
    )
    config = SolverConfig(
        schedule=schedule,
        total_iters=args.iters,
        projection_radius=args.radius,
        sampling=args.sampling,
        seed=args.seed,
        trace_every=args.trace_every,
        also_record=(args.swap_iter,) if 0 < args.swap_iter <= args.iters else (),
    )
    x_star = read_t3f1(args.xstar) if args.xstar else None
    full_a = read_t3f1(args.full_a) if args.full_a else None
    result = run_msgdt(problem, config, x_star=x_star, full_a=full_a)

    out = _out_dir(args)
    write_t3f1(result.x_final, out / "xfinal.t3f")
    result.trace.write_csv(out / "trace.csv")
    write_manifest(
        out,
        "solve",
        {
            "a": str(args.a),
            "b": str(args.b),
            "model": format_model(model),
            "alpha": alpha,
            "swap_iter": args.swap_iter,
            "step_divisor": args.step_divisor,
            "iters": args.iters,
            "radius": args.radius,
            "sampling": args.sampling,
            "seed": args.seed,
            "trace_every": args.trace_every,
            "x0_fill": args.x0_fill,
            "xstar": args.xstar,
            "full_a": args.full_a,
        },
    )
    last = result.trace.records[-1]
    msg = f"finished {args.iters} iterations; wrote xfinal.t3f trace.csv to {out}"
    if last.iterate_error is not None:
        msg += f" (final error {last.iterate_error:.6g})"
    print(msg)
    return 0


def cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        dims=Dims.parse(args.dims),
        p_values=_parse_p_list(args.p),
        model_kind=args.model,
        block_size=args.block_size,
        swap_iter=args.swap_iter,
        step_divisor=args.step_divisor,
        trials=args.trials,
        seed=args.seed,
        out_dir=Path(args.out),
        iters=args.iters,
        sampling=args.sampling,
        trace_every=args.trace_every,
    )
    rows = run_experiment(spec)
    for row in rows:
        print(row.to_csv())
    print(f"wrote {len(rows)} traces and summary.csv to {spec.out_dir}")
    return 0


def cmd_bounds(args) -> int:
    a = read_t3f1(args.a)
    b = read_t3f1(args.b)
    report = compute_bound_report(a, b, radius=args.radius, p=args.p, alpha=args.alpha)
    print(report.to_kv_text())
    if args.out:
        out = _out_dir(args)
        (out / "bounds.csv").write_text(report.CSV_HEADER + "\n" + report.to_csv_row() + "\n")
        write_manifest(
            out,
            "bounds",
            {"a": str(args.a), "b": str(args.b), "p": args.p, "radius": args.radius, "alpha": args.alpha},
        )
    return 0


def _verify_identities(args, lines: list[str]) -> bool:
    rng = np.random.default_rng(args.seed)
    model = model_for(args.model, args.p, args.block_size)
    row = Tensor3(rng.standard_normal((args.n, 1, args.l)))  # a fresh Gaussian 1 x l x n row slice
    report = verify_expectation_identity(row, model, args.trials, rng)
    ok = report.max_rel_err_c1 <= args.tol and report.max_rel_err_c2 <= args.tol
    lines.append(
        f"identities[{args.model} p={args.p:g}]: trials={report.trials} "
        f"dev_c1={report.max_rel_err_c1:.3e} dev_c2={report.max_rel_err_c2:.3e} "
        f"tol={args.tol:g} -> {'ok' if ok else 'VIOLATION'}"
    )
    return ok


def _verify_unbiasedness(args, lines: list[str]) -> bool:
    system = gen_synthetic(Dims(4, 3, 2, 2), args.seed)
    x = Tensor3(np.random.default_rng(args.seed + 1).standard_normal((2, 3, 2)))
    ok = True
    for kind in MODEL_KINDS:
        model = model_for(kind, args.p, 3)  # column blocks span all l = 3 columns
        err = unbiasedness_relative_error(system.a, system.b, x, model)
        good = err <= 1e-10
        ok &= good
        lines.append(
            f"unbiasedness[{kind} p={args.p:g}]: enumerated-mean gap {err:.3e} "
            f"tol=1e-10 -> {'ok' if good else 'VIOLATION'}"
        )
    return ok


def _verify_lipschitz(args, lines: list[str]) -> bool:
    system = gen_synthetic(Dims(6, 3, 2, 2), args.seed)
    ok = True
    for kind in MODEL_KINDS:
        model = model_for(kind, args.p, 3)  # column blocks span all l = 3 columns
        rng = np.random.default_rng(args.seed + 2)
        ratio, bound = lipschitz_ratio_max(system.a, system.b, model, args.trials, rng)
        good = ratio <= bound * (1 + 1e-12)
        ok &= good
        lines.append(
            f"lipschitz[{kind} p={args.p:g}]: max ratio {ratio:.6g} <= bound {bound:.6g} "
            f"over {args.trials} draws -> {'ok' if good else 'VIOLATION'}"
        )
    return ok


def _verify_bounds(args, lines: list[str]) -> bool:
    system = gen_synthetic(Dims(6, 3, 2, 2), args.seed)
    radius = 2.0 * frob_norm(system.x_star)
    rng = np.random.default_rng(args.seed + 3)
    x = Tensor3(rng.standard_normal(system.x_star.data.shape))
    x = Tensor3(x.data * (0.9 * radius / frob_norm(x)))
    g_bound = gradient_second_moment_bound(system.a, system.b, radius, args.p)
    gstar_bound = solution_second_moment_bound(system.a, radius, args.p)
    ok = True
    for kind in MODEL_KINDS:
        model = model_for(kind, args.p, 3)  # column blocks span all l = 3 columns
        sample_x = second_moment_sample(system.a, system.b, x, model, args.trials, rng)
        sample_star = second_moment_sample(system.a, system.b, system.x_star, model, args.trials, rng)
        good = sample_x.mean_sq_norm <= g_bound and sample_star.mean_sq_norm <= gstar_bound
        ok &= good
        lines.append(
            f"bounds[{kind} p={args.p:g}]: mean|g(X)|^2 {sample_x.mean_sq_norm:.6g} <= G {g_bound:.6g}; "
            f"mean|g(X*)|^2 {sample_star.mean_sq_norm:.6g} <= G* {gstar_bound:.6g} "
            f"-> {'ok' if good else 'VIOLATION'}"
        )
    return ok


_VERIFY_DEFAULT_TRIALS = {"identities": 100_000, "unbiasedness": 1, "lipschitz": 1000, "bounds": 10_000}
# The flags each suite reads besides --p, --seed and --out (identities reads them all; ``all``
# passes each on), and the defaults of those left unset.
_VERIFY_FLAGS = {
    "identities": ("model", "block_size", "tol", "l", "n", "trials"),
    "unbiasedness": (),
    "lipschitz": ("trials",),
    "bounds": ("trials",),
}
_VERIFY_FLAG_DEFAULTS = {"model": "uniform", "tol": 0.05, "l": 3, "n": 2}


def _resolve_verify_flags(args) -> None:
    """Reject a flag the chosen suite does not read; then fill in the defaults of the unset ones."""
    if args.suite != "all":
        for dest in _VERIFY_FLAGS["identities"]:
            if getattr(args, dest) is not None and dest not in _VERIFY_FLAGS[args.suite]:
                flag = "--" + dest.replace("_", "-")
                raise ValueError(f"{flag} is not read by the {args.suite} suite")
    for dest, default in _VERIFY_FLAG_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def cmd_verify(args) -> int:
    lines: list[str] = []
    checks = {
        "identities": _verify_identities,
        "unbiasedness": _verify_unbiasedness,
        "lipschitz": _verify_lipschitz,
        "bounds": _verify_bounds,
    }
    selected = list(checks) if args.suite == "all" else [args.suite]
    requested_trials = args.trials
    ok = True
    for name in selected:
        args.trials = requested_trials if requested_trials is not None else _VERIFY_DEFAULT_TRIALS[name]
        ok &= checks[name](args, lines)
    text = "\n".join(lines)
    print(text)
    if args.out:
        out = _out_dir(args)
        (out / "verify.txt").write_text(text + "\n")
        write_manifest(
            out,
            "verify",
            {
                "suite": args.suite,
                "model": args.model,
                "p": args.p,
                "block_size": args.block_size,
                "trials": requested_trials,
                "seed": args.seed,
                "tol": args.tol,
            },
        )
    return 0 if ok else 1


def cmd_frames(args) -> int:
    params = {"direction": args.direction, "src": str(args.src), "out": str(args.out)}
    if args.direction == "import":
        t = ingest_frames(args.src)
        write_t3f1(t, args.out)
        out = Path(args.out)
        write_manifest(out.parent, "frames", params, name=out.name + ".manifest.json")
        print(f"stacked {t.n} frames of {t.m}x{t.l} into {args.out}")
    else:
        t = read_t3f1(args.src)
        paths = export_frames(t, args.out)
        write_manifest(args.out, "frames", params)
        print(f"wrote {len(paths)} frames to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msgdt",
        description="SGD for tensor linear systems A*X=B under the t-product with missing data in A.",
    )
    parser.add_argument("--version", action="version", version=f"msgdt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, with_p=True):
        if with_p:
            p.add_argument("--p", type=float, default=0.5, help="observation probability in (0,1]")
        p.add_argument(
            "--model",
            choices=tuple(MODEL_KINDS),
            default="uniform",
            help="missing-data model",
        )
        p.add_argument("--block-size", type=int, default=None, help="column block size (colblock only; default 1)")

    g = sub.add_parser("gen", help="generate a synthetic Gaussian system A, X*, B=A*X*")
    g.add_argument("--dims", required=True, help="m,l,q,n")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--xstar", help="reuse this T3F1 solution instead of drawing one")
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_gen)

    mk = sub.add_parser("mask", help="draw a binary mask and the observed tensor D o A")
    mk.add_argument("--a", required=True, help="T3F1 input tensor")
    add_model_flags(mk)
    mk.add_argument("--seed", type=int, default=0)
    mk.add_argument("--out", required=True)
    mk.set_defaults(func=cmd_mask)

    sv = sub.add_parser("solve", help="run the masked SGD iteration")
    sv.add_argument("--a", required=True, help="observed tensor (full A when --sampling redraw)")
    sv.add_argument("--b", required=True)
    add_model_flags(sv)
    sv.add_argument("--iters", type=int, required=True)
    sv.add_argument("--swap-iter", type=int, default=5000, help="0 disables the decaying phase")
    sv.add_argument("--step-divisor", type=float, default=5000.0, help="alpha = p^2/divisor")
    sv.add_argument("--alpha", type=float, help="override the constant-phase step size")
    sv.add_argument("--radius", type=_parse_radius, default=None, help="projection ball radius or 'unbounded'")
    sv.add_argument("--sampling", choices=("once", "redraw"), default="once")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--trace-every", type=int, default=100)
    sv.add_argument("--x0-fill", type=float, default=0.0, help="constant initial iterate value")
    sv.add_argument("--xstar", help="known solution, enables the iterate_error column")
    sv.add_argument("--full-a", help="unmasked A, enables the objective column")
    sv.add_argument("--out", required=True)
    sv.set_defaults(func=cmd_solve)

    ex = sub.add_parser("experiment", help="sweep p values over seeded synthetic systems")
    ex.add_argument("--dims", default="10000,20,10,10", help="m,l,q,n")
    ex.add_argument("--p", default="0.3,0.5,0.7,0.99", help="comma-separated observation probabilities")
    add_model_flags(ex, with_p=False)
    ex.add_argument("--iters", type=int, default=None, help="default: one pass (m iterations)")
    ex.add_argument("--swap-iter", type=int, default=5000)
    ex.add_argument("--step-divisor", type=float, default=5000.0)
    ex.add_argument("--trials", type=int, default=1)
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--sampling", choices=("once", "redraw"), default="once")
    ex.add_argument("--trace-every", type=int, default=100)
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=cmd_experiment)

    bd = sub.add_parser("bounds", help="convergence constants for an instance")
    bd.add_argument("--a", required=True)
    bd.add_argument("--b", required=True)
    bd.add_argument("--p", type=float, required=True)
    bd.add_argument("--radius", type=float, required=True, help="ball radius R bounding ||X||")
    bd.add_argument("--alpha", type=float, help="fixed step size for contraction/horizon")
    bd.add_argument("--out", help="also write bounds.csv here")
    bd.set_defaults(func=cmd_bounds)

    vf = sub.add_parser("verify", help="Monte Carlo / enumeration checks; nonzero exit on violation")
    vf.add_argument(
        "suite",
        choices=("identities", "unbiasedness", "lipschitz", "bounds", "all"),
        help="which checks to run",
    )
    add_model_flags(vf)
    vf.add_argument("--trials", type=int, default=None, help="per-suite defaults when omitted (not unbiasedness)")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--tol", type=float, help="Monte Carlo deviation tolerance (identities; default 0.05)")
    vf.add_argument("--l", type=int, help="row-slice columns for identity checks (default 3)")
    vf.add_argument("--n", type=int, help="row-slice frontal slices for identity checks (default 2)")
    vf.add_argument("--out", help="write verify.txt and a manifest here")
    # --model is read by identities only; it is resolved with the suite (_resolve_verify_flags)
    vf.set_defaults(func=cmd_verify, model=None)

    fr = sub.add_parser("frames", help="convert between PGM frame stacks and T3F1 tensors")
    fr.add_argument("direction", choices=("import", "export"))
    fr.add_argument("--src", required=True, help="frame directory (import) or T3F1 file (export)")
    fr.add_argument("--out", required=True, help="T3F1 file (import) or frame directory (export)")
    fr.set_defaults(func=cmd_frames)

    return parser


def _resolve_block_size(args) -> None:
    """Default --block-size to 1; reject it on a model that has no block size."""
    if args.block_size is None:
        args.block_size = 1
    elif "b" not in kind_fields(args.model):
        with_blocks = ", ".join(k for k in MODEL_KINDS if "b" in kind_fields(k))
        raise ValueError(f"--block-size applies only to --model {with_blocks}, not to --model {args.model}")


def main(argv=None) -> int:
    """Run one command; bad input or an unreadable file ends it with exit code 2 and a one-line
    ``msgdt <command>: error:``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            _resolve_verify_flags(args)
        if hasattr(args, "block_size"):
            _resolve_block_size(args)
        return args.func(args)
    except ValueError as exc:  # the library's rejection of bad input, as argparse reports its own
        print(f"msgdt {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing or unreadable file, named with the OS's reason
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else str(exc)
        print(f"msgdt {args.command}: error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
