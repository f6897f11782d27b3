#!/usr/bin/env python3
"""Run a fixed set of seeded msgdt commands and write the SHA-256 of every output.

    PYTHONPATH=src python3 scripts/output_digest.py OUTDIR

The commands cover the file pipeline (``gen`` -> ``mask`` -> ``solve`` in
``once`` and ``redraw`` mode for each missing-data model), ``experiment``
sweeps of 3 p values x 2 trials for ``uniform``, ``colblock b=2`` and
``frontal`` in both sampling modes, the same sweeps of one trial at
``2000,20,10,10``, whose batches are large enough to build their rows in a
forked builder process (``solver._PIPELINE_MIN_ENTRIES``) where a second
core is usable, ``bounds`` and ``verify all``.  They run inside OUTDIR with relative paths, and each command's printed output is
kept next to its files, so the sorted ``OUTDIR/SHA256SUMS`` (in
``sha256sum`` format) is the same for two runs, of one checkout or of two,
exactly when every output byte is.  Compare two runs with

    diff OUTDIR1/SHA256SUMS OUTDIR2/SHA256SUMS

The script exits nonzero if any command does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

from msgdt.cli import main as msgdt_main

MODELS = {"uniform": [], "colblock": ["--block-size", "2"], "frontal": []}
SWEEP = ["--dims", "200,4,2,3", "--p", "0.5,0.7,0.9", "--trials", "2", "--swap-iter", "100",
         "--trace-every", "50", "--seed", "5"]
PIPED_SWEEP = ["--dims", "2000,20,10,10", "--p", "0.3,0.5,0.7", "--iters", "600", "--swap-iter", "300",
               "--trace-every", "100", "--seed", "7"]


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in run order; later commands read earlier outputs."""
    cmds = [("gen", ["gen", "--dims", "300,4,2,3", "--seed", "1", "--out", "gen"])]
    known = ["--b", "gen/b.t3f", "--xstar", "gen/xstar.t3f", "--full-a", "gen/a.t3f"]
    for kind, block in MODELS.items():
        model = ["--model", kind, "--p", "0.6", *block]
        cmds += [
            (f"mask-{kind}", ["mask", "--a", "gen/a.t3f", *model, "--seed", "2", "--out", f"mask-{kind}"]),
            (f"solve-once-{kind}", ["solve", "--a", f"mask-{kind}/atilde.t3f", *known, *model, "--iters", "300",
                                    "--swap-iter", "150", "--step-divisor", "500", "--seed", "3",
                                    "--trace-every", "50", "--out", f"solve-once-{kind}"]),
            (f"solve-redraw-{kind}", ["solve", "--a", "gen/a.t3f", *known, *model, "--iters", "600",
                                      "--swap-iter", "300", "--step-divisor", "500", "--sampling", "redraw",
                                      "--radius", "2", "--seed", "4", "--trace-every", "50",
                                      "--out", f"solve-redraw-{kind}"]),
        ]
    for prefix, sweep in (("experiment", SWEEP), ("experiment-piped", PIPED_SWEEP)):
        for kind, block in MODELS.items():
            for sampling in ("once", "redraw"):
                name = f"{prefix}-{kind}-{sampling}"
                cmds.append((name, ["experiment", *sweep, "--model", kind, *block, "--sampling", sampling,
                                    "--out", name]))
    cmds += [
        ("bounds", ["bounds", "--a", "gen/a.t3f", "--b", "gen/b.t3f", "--p", "0.6", "--radius", "20",
                    "--alpha", "1e-4", "--out", "bounds"]),
        ("verify", ["verify", "all", "--seed", "6", "--out", "verify"]),
    ]
    return cmds


def sha256_lines(root: Path) -> list[str]:
    """``sha256sum``-style lines for every file under ``root`` but SHA256SUMS, sorted by path."""
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "SHA256SUMS"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path, help="new or empty directory for the outputs and SHA256SUMS")
    args = ap.parse_args(argv)
    root = args.outdir.resolve()
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        ap.error(f"{root} is not empty")
    (root / "stdout").mkdir()
    os.chdir(root)
    for name, cmd in commands():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = msgdt_main(cmd)
        (root / "stdout" / f"{name}.txt").write_text(printed.getvalue())
        if code != 0:
            print(f"output_digest: msgdt {' '.join(cmd)} exited with {code}", file=sys.stderr)
            return 1
    lines = sha256_lines(root)
    (root / "SHA256SUMS").write_text("\n".join(lines) + "\n")
    print(f"wrote SHA256SUMS for {len(lines)} files to {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
