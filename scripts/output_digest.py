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

    python3 scripts/output_digest.py --against REV

compares this checkout with the git revision REV instead.  It checks REV
out with ``git worktree add --detach`` into a temporary directory, runs
each tree's own digest in a fresh process (``PYTHONPATH`` set to that
tree's ``src``, ``PYTHONDONTWRITEBYTECODE=1``), and prints every file that
moved, was added or was removed, with the command that wrote it.  It exits
1 if any such file is not listed in this checkout's
``scripts/declared_moves.txt`` (one output path per line, as in
``SHA256SUMS``; blank lines and ``#`` comments are ignored), and removes
the worktree on every exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
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


TREE = Path(__file__).resolve().parents[1]
DECLARED = TREE / "scripts" / "declared_moves.txt"


def read_sums(text: str) -> dict[str, str]:
    """{path: digest} of ``sha256sum``-style lines."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in text.splitlines() if line)}


def read_declared(text: str) -> set[str]:
    """The output paths listed in a declared-moves file: one per line, without blank lines and ``#`` comments."""
    return {line.strip() for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")}


def changed_files(base: dict[str, str], new: dict[str, str]) -> list[tuple[str, str]]:
    """(kind, path) of every file that moved, was added or was removed from ``base`` to ``new``, by path."""
    kinds = {path: "moved" for path in base.keys() & new.keys() if base[path] != new[path]}
    kinds.update({path: "added" for path in new.keys() - base.keys()})
    kinds.update({path: "removed" for path in base.keys() - new.keys()})
    return sorted((kind, path) for path, kind in kinds.items())


def writer(path: str) -> str:
    """The command that wrote the output ``path``: its first directory, or its name under stdout/, names it."""
    top, _, rest = path.partition("/")
    argv = dict(commands()).get(Path(rest).stem if top == "stdout" else top)
    return "an unknown command" if argv is None else "msgdt " + " ".join(argv)


def tree_sums(tree: Path, outdir: Path) -> dict[str, str]:
    """The SHA256SUMS of ``tree``'s own digest, run in a fresh process on ``tree``'s sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(tree / "scripts" / "output_digest.py"), str(outdir)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return read_sums((outdir / "SHA256SUMS").read_text())


def against(rev: str) -> int:
    """Compare this checkout's digest with REV's, as the module docstring says; 1 on an undeclared change."""
    tmp = Path(tempfile.mkdtemp(prefix="output-digest-"))
    base_tree = tmp / "base"
    # SIGTERM, as from a CI timeout, unwinds through the finally below like an error does
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        subprocess.run(["git", "-C", str(TREE), "worktree", "add", "--quiet", "--detach", str(base_tree), rev],
                       check=True)
        base = tree_sums(base_tree, tmp / "base-out")
        new = tree_sums(TREE, tmp / "new-out")
    except subprocess.CalledProcessError as exc:
        print(f"output_digest: {' '.join(exc.cmd)} exited with {exc.returncode}", file=sys.stderr)
        return 2
    finally:
        if base_tree.exists():
            subprocess.run(["git", "-C", str(TREE), "worktree", "remove", "--force", str(base_tree)], check=False)
        shutil.rmtree(tmp, ignore_errors=True)
    return report(base, new, read_declared(DECLARED.read_text()) if DECLARED.exists() else set(), rev)


def report(base: dict[str, str], new: dict[str, str], declared: set[str], rev: str) -> int:
    """Print every changed file from ``base`` to ``new`` with its command; 1 if one is not ``declared``, else 0."""
    changes = changed_files(base, new)
    undeclared = [path for _, path in changes if path not in declared]
    for kind, path in changes:
        mark = "" if path in declared else "  [not declared]"
        print(f"{kind} {path}{mark}: {writer(path)}")
    print(f"{len(changes)} of {len(base.keys() | new.keys())} files moved, added or removed against {rev}; "
          f"{len(undeclared)} not in {DECLARED.relative_to(TREE)}")
    return 1 if undeclared else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path, nargs="?", help="new or empty directory for the outputs and SHA256SUMS")
    ap.add_argument("--against", metavar="REV", help="compare this checkout's outputs with git revision REV's")
    args = ap.parse_args(argv)
    if (args.outdir is None) == (args.against is None):
        ap.error("give either OUTDIR or --against REV")
    if args.against is not None:
        return against(args.against)
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
