"""The declared-moves rule of ``scripts/output_digest.py --against``, on hand-made SHA256SUMS, without git."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

BASE = """\
aaaa  gen/a.t3f
bbbb  solve-once-uniform/trace.csv
cccc  stdout/bounds.txt
dddd  verify/report.txt
"""
NEW = """\
aaaa  gen/a.t3f
bbb0  solve-once-uniform/trace.csv
ccc0  stdout/bounds.txt
eeee  experiment-uniform-once/summary.csv
"""


CHANGES = {
    "solve-once-uniform/trace.csv": "moved",
    "stdout/bounds.txt": "moved",
    "experiment-uniform-once/summary.csv": "added",
    "verify/report.txt": "removed",
}


def test_changed_files_are_moved_added_and_removed():
    want = sorted((kind, path) for path, kind in CHANGES.items())
    assert digest.changed_files(digest.read_sums(BASE), digest.read_sums(NEW)) == want


def test_same_sums_pass_with_nothing_declared(capsys):
    assert digest.report(digest.read_sums(BASE), digest.read_sums(BASE), set(), "REV") == 0
    want = "0 of 4 files moved, added or removed against REV; 0 not in scripts/declared_moves.txt\n"
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("left_out", [None, *CHANGES])
def test_every_change_must_be_declared(capsys, left_out):
    declared = digest.read_declared("# moved on purpose\n\n" + "\n".join(sorted(set(CHANGES) - {left_out})) + "\n")
    code = digest.report(digest.read_sums(BASE), digest.read_sums(NEW), declared, "REV")
    out = capsys.readouterr().out.splitlines()
    assert code == (0 if left_out is None else 1)
    flagged = [line.split(":")[0] for line in out if "[not declared]" in line]
    assert flagged == ([] if left_out is None else [f"{CHANGES[left_out]} {left_out}  [not declared]"])
    assert out[-1] == f"4 of 5 files moved, added or removed against REV; {len(flagged)} not in " \
                      "scripts/declared_moves.txt"


def test_a_declared_file_that_did_not_move_is_no_error():
    assert digest.report(digest.read_sums(BASE), digest.read_sums(BASE), {"gen/a.t3f"}, "REV") == 0


def test_declared_file_skips_blank_lines_and_comments():
    want = {"gen/a.t3f", "stdout/gen.txt"}
    assert digest.read_declared("\n# a comment\n  gen/a.t3f  \n   # indented comment\nstdout/gen.txt\n") == want


def test_each_change_names_the_command_that_wrote_it(capsys):
    digest.report(digest.read_sums(BASE), digest.read_sums(NEW), set(), "REV")
    printed = dict(line.split("  [not declared]: ") for line in capsys.readouterr().out.splitlines()[:-1])
    argv = dict(digest.commands())
    for name, path in [("solve-once-uniform", "solve-once-uniform/trace.csv"), ("bounds", "stdout/bounds.txt"),
                       ("experiment-uniform-once", "experiment-uniform-once/summary.csv"),
                       ("verify", "verify/report.txt")]:
        assert printed[f"{CHANGES[path]} {path}"] == "msgdt " + " ".join(argv[name])
