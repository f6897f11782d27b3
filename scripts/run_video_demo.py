#!/usr/bin/env python3
"""Video-style reconstruction demo on synthetic grayscale frames.

Builds a small moving-gradient frame stack, treats it as the unknown
solution X (one frame per frontal slice, pixel values in [0, 255]),
generates Gaussian data A with B = A * X, masks A uniformly, and
reconstructs X with the solver starting from the constant-128 iterate.
Reports the per-frame mean absolute pixel error and writes the
reconstructed frames back out as PGM files.

For real frame stacks, import them with ``msgdt frames import`` and run
``msgdt solve --x0-fill 128`` with a small constant-phase step
(--step-divisor on the order of 1e6 for full-resolution video norms).
"""

import argparse
from pathlib import Path

import numpy as np

import msgdt as mg
from msgdt.frames import export_frames, ingest_frames, write_pgm


def make_frames(directory: Path, rows: int, cols: int, count: int) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    yy, xx = np.mgrid[0:rows, 0:cols]
    for k in range(count):
        phase = 2 * np.pi * k / count
        frame = 127.5 + 110 * np.sin(2 * np.pi * (xx / cols + yy / rows) + phase)
        write_pgm(frame, directory / f"frame_{k:03d}.pgm")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=24)
    parser.add_argument("--cols", type=int, default=32)
    parser.add_argument("--frames", type=int, default=8)
    parser.add_argument("--data-rows", type=int, default=3000, help="row count m of A")
    parser.add_argument("--p", type=float, default=0.7)
    parser.add_argument("--iters", type=int, default=3000)
    parser.add_argument("--swap-iter", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/video_demo")
    args = parser.parse_args(argv)
    if args.iters > args.data_rows:  # the solve draws rows without replacement ("once" sampling)
        parser.error(f"--iters {args.iters} needs as many distinct rows, but --data-rows is {args.data_rows}")
    if args.swap_iter < 1:
        parser.error(f"--swap-iter must be >= 1, got {args.swap_iter}")
    try:
        model = mg.UniformMissing(args.p)
    except ValueError as exc:
        parser.error(f"--p: {exc}")

    out = Path(args.out)
    make_frames(out / "truth", args.rows, args.cols, args.frames)
    x_star = ingest_frames(out / "truth")
    l, q, n = x_star.dims  # frames enter as the solution: l x q x n

    rng = np.random.default_rng(args.seed)
    a = mg.Tensor3(rng.standard_normal((n, args.data_rows, l)))
    b = mg.tprod(a, x_star)

    mask = mg.draw_mask(model, args.data_rows, l, n, rng)
    a_tilde = mg.hadamard(mask, a)

    # safe constant step below 1/L_g of the observed system
    alpha = 0.5 / mg.lipschitz_constant(a, args.p)
    problem = mg.ProblemInstance(
        a_tilde=a_tilde,
        b=b,
        model=model,
        x0=mg.Tensor3(np.full((n, l, q), 128.0)),
    )
    config = mg.SolverConfig(
        schedule=mg.HybridStep(alpha, args.swap_iter),
        total_iters=args.iters,
        seed=args.seed,
        trace_every=max(1, args.iters // 20),
    )
    result = mg.run_msgdt(problem, config, x_star=x_star)
    result.trace.write_csv(out / "trace.csv")
    export_frames(result.x_final, out / "reconstructed")

    per_frame_mae = np.mean(np.abs(result.x_final.data - x_star.data), axis=(1, 2))
    print(f"reconstruction with p={args.p}, {args.iters} iterations")
    for k, mae in enumerate(per_frame_mae):
        print(f"  frame {k}: mean abs pixel error {mae:.3f}")
    print(f"frames and trace written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
