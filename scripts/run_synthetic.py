#!/usr/bin/env python3
"""Desk-scale synthetic sweep: all three missing-data models over
p in {0.3, 0.5, 0.7, 0.99} with the hybrid step schedule.

Produces one directory per model with plot-ready trace CSVs
(columns: iter, step_size, update_norm, iterate_error, objective) plus a
summary table.  Plot iterate_error against iter on log-log axes to see the
two convergence phases: fast progress under the constant step, then steady
decay after the swap.
"""

import argparse
from pathlib import Path

from msgdt.experiment import ExperimentSpec, run_experiment
from msgdt.masking import MODEL_KINDS, kind_fields
from msgdt.synthetic import Dims


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="10000,20,10,10", help="m,l,q,n")
    parser.add_argument("--p", default="0.3,0.5,0.7,0.99")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--swap-iter", type=int, default=5000)
    parser.add_argument("--step-divisor", type=float, default=5000.0)
    parser.add_argument("--block-size", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/synthetic")
    args = parser.parse_args()

    dims = Dims.parse(args.dims)
    p_values = tuple(float(tok) for tok in args.p.split(",") if tok)
    for kind in MODEL_KINDS:
        block = args.block_size if "b" in kind_fields(kind) else 1
        out_dir = Path(args.out) / kind
        spec = ExperimentSpec(
            dims=dims,
            p_values=p_values,
            model_kind=kind,
            block_size=block,
            swap_iter=args.swap_iter,
            step_divisor=args.step_divisor,
            trials=args.trials,
            seed=args.seed,
            out_dir=out_dir,
        )
        print(f"== {kind} -> {out_dir}")
        for row in run_experiment(spec):
            print(
                f"   p={row.p:<5g} trial={row.trial} "
                f"error {row.error_initial:.3g} -> {row.error_swap:.3g} (swap) "
                f"-> {row.error_final:.3g} (final)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
