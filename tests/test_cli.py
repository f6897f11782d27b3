import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import re
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgdt as mg
from msgdt.cli import main
from msgdt.frames import ingest_frames, write_pgm


def read_bytes_map(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def assert_one_line_error(capsys, code, command, message):
    """A rejected command exits 2 with one stderr line naming the command, as argparse errors do."""
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"msgdt {command}: error: ") and err.count("\n") == 1, err
    assert re.search(message, err), err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The input files that the refusal table's placeholders name, written once."""
    d = tmp_path_factory.mktemp("inputs")
    system = mg.gen_synthetic(mg.Dims(12, 4, 2, 3), 3)
    xstar = system.x_star.data
    tensors = {"a": system.a, "b": system.b, "xstar": system.x_star, "zero_a": mg.zeros(12, 4, 3),
               "b_1_row": mg.ones(1, 2, 3), "b_30_rows": mg.ones(30, 2, 3),
               "xstar_one_column": mg.Tensor3(xstar[:, :, :1]), "xstar_one_row": mg.Tensor3(xstar[:, :1, :])}
    paths = {"missing": d / "missing.t3f", "zero_rows": d / "zero_rows.t3f", "taken": d / "taken"}
    for name, t in tensors.items():
        paths[name] = d / f"{name}.t3f"
        mg.write_t3f1(t, paths[name])
    paths["zero_rows"].write_bytes(b"T3F1" + np.array([0, 3, 3], dtype="<u8").tobytes())
    paths["taken"].write_bytes(b"")
    frames = {"pgm_token": {"f0.pgm": b"P5 a 2 255\n"}, "pgm_header": {"f0.pgm": b"P5\n4"},
              "pgm_16_bit": {"f0.pgm": b"P5\n1 1\n65535\n\x00\x00"}, "pgm_empty": {"f0.pgm": b"P5 0 0 255\n"},
              "pgm_mixed": {"a.pgm": b"P5 2 2 255\n" + bytes(4), "b.pgm": b"P5 2 3 255\n" + bytes(6)},
              "pgm_none": {"f0.txt": b"P5 1 1 255\n\x00"}}
    for name, files in frames.items():
        paths[name] = d / name
        paths[name].mkdir()
        for file, raw in files.items():
            (paths[name] / file).write_bytes(raw)
    return paths


_SOLVE = "solve --a {a} --b {b} --iters 5 "
_EXPERIMENT = "experiment --dims 12,4,2,3 --p 0.5 --iters 5 --swap-iter 3 "
_BOUNDS = "bounds --a {a} --b {b} --p 0.5 "
_IDENTITIES = "verify identities --trials 10 "
# (id, argv with {placeholders} from `inputs`, the message after "msgdt <command>: error: " as a regex).
# Each row is refused with exit 2 and that one line before any output exists; a message that starts with
# "argument " is argparse's own, printed after its usage.
REFUSALS = [
    ("gen-three-dims", "gen --dims 30,4,2", "expected dims as m,l,q,n, got '30,4,2'"),
    ("gen-xstar-other-dims", "gen --dims 20,4,2,2 --xstar {xstar}",
     r"loaded solution dims \(4, 2, 3\) do not match --dims 20,4,2,2"),
    ("gen-xstar-missing", "gen --dims 12,4,2,3 --xstar {missing}", r"\S+/missing\.t3f: No such file or directory"),
    ("gen-seed", "gen --dims 12,4,2,3 --seed -1", "--seed must be >= 0, got -1"),
    ("mask-block-size-uniform", "mask --a {a} --model uniform --block-size 3",
     "--block-size applies only to --model colblock, not to --model uniform"),
    ("mask-block-size-frontal", "mask --a {a} --model frontal --block-size 3",
     "--block-size applies only to --model colblock, not to --model frontal"),
    ("mask-block-size-0", "mask --a {a} --model colblock --block-size 0", "block size must be positive, got 0"),
    ("mask-seed", "mask --a {a} --seed -1", "--seed must be >= 0, got -1"),
    # alpha = 0.25 / 1e-4: the iterate overflows, under numpy warnings as errors
    ("solve-divergent", "solve --a {a} --b {b} --sampling redraw --iters 200 --step-divisor 0.0001",
     r"the iterate went non-finite in 200 iterations: step size alpha=2500 against 1/L_g=[0-9.e+-]+; "
     r"lower --alpha or raise --step-divisor"),
    # an (l, 1, n) or (1, q, n) X* broadcasts against the iterate: unchecked, the final error is wrong
    ("solve-xstar-one-column", _SOLVE + "--xstar {xstar_one_column}",
     r"X\* dims \(4, 1, 3\) inconsistent with system \(4, 2, 3\)"),
    ("solve-xstar-one-row", _SOLVE + "--xstar {xstar_one_row}",
     r"X\* dims \(1, 2, 3\) inconsistent with system \(4, 2, 3\)"),
    ("solve-full-a-other-dims", _SOLVE + "--full-a {xstar}",
     r"full A dims \(4, 2, 3\) inconsistent with A dims \(12, 4, 3\)"),
    # 0 means the constant step; a negative swap iteration is an error, not another spelling of 0
    ("solve-negative-swap-iter", _SOLVE + "--swap-iter -7",
     r"--swap-iter must be >= 0 \(0 disables the decaying phase\), got -7"),
    # leaving --radius out is the one way to run without projection
    ("solve-radius-unbounded", _SOLVE + "--radius unbounded", "argument --radius: invalid float value: 'unbounded'"),
    # NaN passes a "<= 0" check
    ("solve-radius-nan", _SOLVE + "--radius nan", "projection radius must be finite and positive, got nan"),
    ("solve-radius-negative", _SOLVE + "--radius -1", r"projection radius must be finite and positive, got -1\.0"),
    ("solve-alpha-nan", _SOLVE + "--alpha nan", "step size must be finite and positive, got nan"),
    ("solve-divisor-nan", _SOLVE + "--step-divisor nan", "step divisor must be finite and positive, got nan"),
    ("solve-divisor-zero", _SOLVE + "--step-divisor 0", r"step divisor must be finite and positive, got 0\.0"),
    ("solve-alpha-divisor-nan", _SOLVE + "--alpha 1e-4 --step-divisor nan",
     "step divisor must be finite and positive, got nan"),
    ("solve-x0-nan", _SOLVE + "--x0-fill nan", "X0 has non-finite entries"),
    ("solve-trace-every-0", _SOLVE + "--trace-every 0", "--trace-every must be >= 1, got 0"),
    ("solve-iters-negative", "solve --a {a} --b {b} --iters -1", "iteration count must be >= 0, got -1"),
    ("solve-once-budget", "solve --a {a} --b {b} --iters 13",
     r"13 iterations need 13 distinct rows but A has only 12; sample with replacement \(redraw\) "
     "or lower the iteration count"),
    ("solve-block-size-uniform", _SOLVE + "--model uniform --block-size 3",
     "--block-size applies only to --model colblock, not to --model uniform"),
    ("solve-block-size-frontal", _SOLVE + "--model frontal --block-size 3",
     "--block-size applies only to --model colblock, not to --model frontal"),
    ("solve-seed", _SOLVE + "--seed -1", "--seed must be >= 0, got -1"),
    ("solve-a-missing", "solve --a {missing} --b {b} --iters 5", r"\S+/missing\.t3f: No such file or directory"),
    ("experiment-empty-p", "experiment --dims 10,2,2,2 --p ''", "--p takes at least one p value, got ''"),
    ("experiment-once-budget", "experiment --dims 10,2,2,2 --p 0.5 --iters 20",
     r"20 iterations need 20 distinct rows but A has only 10; sample with replacement \(redraw\) "
     "or lower the iteration count"),
    ("experiment-divergent",
     "experiment --dims 60,4,2,3 --p 0.5,0.9 --iters 50 --swap-iter 20 --step-divisor 1e-6 --trace-every 25",
     r"the iterate of p=0\.5 trial 0 went non-finite in 50 iterations: step size alpha=250000 against "
     r"1/L_g=[0-9.e+-]+; raise --step-divisor"),
    ("experiment-malformed-p", "experiment --dims 40,3,2,2 --p 0.5,abc",
     "--p takes comma-separated numbers, got '0.5,abc'"),
    ("experiment-divisor-nan", _EXPERIMENT + "--step-divisor nan", "step divisor must be finite and positive, got nan"),
    ("experiment-block-size-not-dividing", "experiment --dims 40,4,2,3 --p 0.5 --model colblock --block-size 3",
     "block size 3 does not divide column count 4"),
    ("experiment-block-size-uniform", _EXPERIMENT + "--model uniform --block-size 3",
     "--block-size applies only to --model colblock, not to --model uniform"),
    ("experiment-block-size-frontal", _EXPERIMENT + "--model frontal --block-size 3",
     "--block-size applies only to --model colblock, not to --model frontal"),
    ("experiment-trials-0", _EXPERIMENT + "--trials 0", "trials must be >= 1, got 0"),
    ("experiment-seed", _EXPERIMENT + "--seed -1", "--seed must be >= 0, got -1"),
    # a 1-row B once gave a bound and exit 0, a 30-row B numpy's broadcast message
    ("bounds-b-1-row", "bounds --a {a} --b {b_1_row} --p 0.5 --radius 10",
     r"B dims \(1, 2, 3\) inconsistent with A dims \(12, 4, 3\): B needs A's 12 rows and tube length 3"),
    ("bounds-b-30-rows", "bounds --a {a} --b {b_30_rows} --p 0.5 --radius 10",
     r"B dims \(30, 2, 3\) inconsistent with A dims \(12, 4, 3\): B needs A's 12 rows and tube length 3"),
    # L_g = 0: the step size check once divided by it and ended in a ZeroDivisionError traceback
    ("bounds-all-zero-a", "bounds --a {zero_a} --b {b} --p 0.5 --radius 10 --alpha 1e-3",
     r"strong convexity constant must be finite and positive, got 0\.0"),
    # a 0-row A and B once ended bounds in a traceback
    ("bounds-zero-rows", "bounds --a {zero_rows} --b {zero_rows} --p 0.5 --radius 10",
     r"\S+/zero_rows\.t3f: T3F1 header dims \(0, 3, 3\) must all be positive"),
    ("bounds-radius-nan", _BOUNDS + "--radius nan", "radius must be finite and positive, got nan"),
    ("bounds-radius-0", _BOUNDS + "--radius 0", r"radius must be finite and positive, got 0\.0"),
    ("bounds-alpha-nan", _BOUNDS + "--radius 10 --alpha nan", "step size must be finite and positive, got nan"),
    ("bounds-b-missing", "bounds --a {a} --b {missing} --p 0.5 --radius 10",
     r"\S+/missing\.t3f: No such file or directory"),
    ("verify-bounds-trials-0", "verify bounds --trials 0", "trials must be >= 1, got 0"),
    ("verify-lipschitz-trials-0", "verify lipschitz --trials 0", "trials must be >= 1, got 0"),
    # numpy's own messages ("negative dimensions", "zero-size array") name no flag
    ("verify-l-0", _IDENTITIES + "--l 0", "--l must be >= 1, got 0"),
    ("verify-l-negative", _IDENTITIES + "--l -1", "--l must be >= 1, got -1"),
    ("verify-n-0", _IDENTITIES + "--n 0", "--n must be >= 1, got 0"),
    ("verify-n-negative", _IDENTITIES + "--n -1", "--n must be >= 1, got -1"),
    ("verify-p-1.5", _IDENTITIES + "--p 1.5", r"observation probability must be in \(0, 1\], got 1\.5"),
    # an infinite tolerance would pass any deviation
    ("verify-tol-nan", _IDENTITIES + "--tol nan", "--tol must be finite and positive, got nan"),
    ("verify-tol-inf", _IDENTITIES + "--tol inf", "--tol must be finite and positive, got inf"),
    ("verify-seed", "verify lipschitz --trials 10 --seed -1", "--seed must be >= 0, got -1"),
    # a flag the suite does not read is an error, not silently dropped
    ("verify-lipschitz-model-colblock",
     "verify lipschitz --model colblock --block-size 2 --tol 1e-9 --l 7 --trials 20",
     "--model is not read by the lipschitz suite"),
    ("verify-lipschitz-model-frontal", "verify lipschitz --model frontal",
     "--model is not read by the lipschitz suite"),
    ("verify-bounds-block-size", "verify bounds --block-size 2", "--block-size is not read by the bounds suite"),
    ("verify-bounds-tol", "verify bounds --tol 1e-9", "--tol is not read by the bounds suite"),
    ("verify-lipschitz-l", "verify lipschitz --l 4", "--l is not read by the lipschitz suite"),
    ("verify-bounds-n", "verify bounds --n 4", "--n is not read by the bounds suite"),
    ("verify-unbiasedness-trials", "verify unbiasedness --trials 5", "--trials is not read by the unbiasedness suite"),
    ("verify-unbiasedness-model", "verify unbiasedness --model uniform",
     "--model is not read by the unbiasedness suite"),
    ("frames-header-token", "frames import --src {pgm_token}",
     r"\S+/f0\.pgm: invalid literal for int\(\) with base 10: b'a'"),
    ("frames-header-truncated", "frames import --src {pgm_header}", r"\S+/f0\.pgm: truncated PGM header"),
    ("frames-16-bit", "frames import --src {pgm_16_bit}", r"\S+/f0\.pgm: only 8-bit PGM supported, got maxval 65535"),
    ("frames-empty-frame", "frames import --src {pgm_empty}",
     r"\S+/f0\.pgm: frame width and height must be positive, got 0 x 0"),
    ("frames-mixed-sizes", "frames import --src {pgm_mixed}",
     r"\S+/pgm_mixed: mixed frame dimensions \[\(2, 2\), \(3, 2\)\]"),
    ("frames-no-pgm", "frames import --src {pgm_none}", r"\S+/pgm_none: no \.pgm frames found"),
    ("frames-src-a-file", "frames import --src {a}", r"\S+/a\.t3f: Not a directory"),
    ("frames-export-missing", "frames export --src {missing}", r"\S+/missing\.t3f: No such file or directory"),
    # --out is given: the existing file, which the refused export leaves as it was
    ("frames-export-onto-a-file", "frames export --src {a} --out {taken}", r"\S+/taken: File exists"),
]


@pytest.mark.parametrize("template,message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refused_with_one_line(inputs, tmp_path, capsys, template, message):
    out = tmp_path / "out"
    argv = [token.format(**inputs) for token in shlex.split(template)]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    line = rf"^msgdt {argv[0]}: error: {message}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a divergent run, too, is refused without a numpy warning
        if message.startswith("argument "):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: msgdt {argv[0]}") and re.search(line, err, re.MULTILINE), err
        else:
            assert_one_line_error(capsys, main(argv), argv[0], line)
    assert not out.exists()
    assert inputs["taken"].read_bytes() == b""


@pytest.fixture(scope="module")
def video_demo():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_video_demo.py"
    spec = importlib.util.spec_from_file_location("run_video_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv,message",
    [
        # it solves in "once" sampling, so it needs a distinct row for each iteration
        (["--iters", "100", "--data-rows", "50"], "--iters 100 needs as many distinct rows, but --data-rows is 50"),
        (["--swap-iter", "0"], "--swap-iter must be >= 1, got 0"),
        (["--p", "1.5"], r"--p: observation probability must be in \(0, 1\], got 1\.5"),
    ],
    ids=["iters-above-data-rows", "swap-iter-0", "p-1.5"],
)
def test_video_demo_refuses_before_any_frame(video_demo, tmp_path, capsys, argv, message):
    out = tmp_path / "video"
    with pytest.raises(SystemExit) as exc:
        video_demo.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.search(rf": error: {message}$", err), err
    assert not out.exists()


class TestGen:
    def test_writes_consistent_system(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["gen", "--dims", "30,4,2,3", "--seed", "7", "--out", str(out)]) == 0
        a = mg.read_t3f1(out / "a.t3f")
        x = mg.read_t3f1(out / "xstar.t3f")
        b = mg.read_t3f1(out / "b.t3f")
        assert a.dims == (30, 4, 3) and x.dims == (4, 2, 3) and b.dims == (30, 2, 3)
        assert np.array_equal(mg.tprod(a, x).data, b.data)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["params"]["seed"] == 7

    def test_seed_reproducible(self, tmp_path):
        o1, o2 = tmp_path / "r1", tmp_path / "r2"
        for o in (o1, o2):
            main(["gen", "--dims", "10,3,2,2", "--seed", "5", "--out", str(o)])
        assert read_bytes_map(o1) == read_bytes_map(o2)

    def test_reuses_given_solution(self, tmp_path):
        base = tmp_path / "base"
        main(["gen", "--dims", "10,3,2,2", "--seed", "1", "--out", str(base)])
        out = tmp_path / "derived"
        main(
            [
                "gen",
                "--dims",
                "20,3,2,2",
                "--seed",
                "2",
                "--xstar",
                str(base / "xstar.t3f"),
                "--out",
                str(out),
            ]
        )
        x_base = mg.read_t3f1(base / "xstar.t3f")
        x_new = mg.read_t3f1(out / "xstar.t3f")
        assert np.array_equal(x_base.data, x_new.data)
        a = mg.read_t3f1(out / "a.t3f")
        b = mg.read_t3f1(out / "b.t3f")
        assert np.array_equal(mg.tprod(a, x_new).data, b.data)

class TestMask:
    def test_mask_and_observed(self, tmp_path):
        gen = tmp_path / "gen"
        main(["gen", "--dims", "12,4,2,3", "--seed", "3", "--out", str(gen)])
        out = tmp_path / "masked"
        assert (
            main(
                [
                    "mask",
                    "--a",
                    str(gen / "a.t3f"),
                    "--model",
                    "colblock",
                    "--p",
                    "0.5",
                    "--block-size",
                    "2",
                    "--seed",
                    "4",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        a = mg.read_t3f1(gen / "a.t3f")
        mask = mg.read_t3f1(out / "mask.t3f")
        atilde = mg.read_t3f1(out / "atilde.t3f")
        assert np.array_equal(atilde.data, mask.data * a.data)
        assert np.all((mask.data == 0) | (mask.data == 1))
        model = mg.parse_model((out / "model.txt").read_text().strip())
        assert model == mg.ColumnBlockMissing(0.5, 2)


class TestSolve:
    def test_full_data_error_decreases(self, tmp_path):
        gen = tmp_path / "gen"
        main(["gen", "--dims", "300,4,2,3", "--seed", "9", "--out", str(gen)])
        out = tmp_path / "run"
        code = main(
            [
                "solve",
                "--a",
                str(gen / "a.t3f"),
                "--b",
                str(gen / "b.t3f"),
                "--model",
                "uniform",
                "--p",
                "1.0",
                "--iters",
                "300",
                "--swap-iter",
                "150",
                "--step-divisor",
                "60",
                "--seed",
                "10",
                "--trace-every",
                "50",
                "--xstar",
                str(gen / "xstar.t3f"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,step_size,update_norm,iterate_error,objective"
        first_err = float(lines[1].split(",")[3])
        last_err = float(lines[-1].split(",")[3])
        assert last_err < first_err
        x_final = mg.read_t3f1(out / "xfinal.t3f")
        assert x_final.dims == (4, 2, 3)

    def test_redraw_mode_with_objective_column(self, tmp_path):
        gen = tmp_path / "gen"
        main(["gen", "--dims", "40,3,2,2", "--seed", "30", "--out", str(gen)])
        out = tmp_path / "redraw"
        code = main(
            [
                "solve",
                "--a",
                str(gen / "a.t3f"),  # full tensor: masks are redrawn per iteration
                "--b",
                str(gen / "b.t3f"),
                "--model",
                "frontal",
                "--p",
                "0.5",
                "--sampling",
                "redraw",
                "--iters",
                "120",  # more iterations than rows
                "--swap-iter",
                "60",
                "--step-divisor",
                "50",
                "--seed",
                "31",
                "--trace-every",
                "30",
                "--full-a",
                str(gen / "a.t3f"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "trace.csv").read_text().splitlines()
        objectives = [float(row.split(",")[4]) for row in lines[1:]]
        assert objectives[-1] < objectives[0]

    def test_deterministic_outputs(self, tmp_path):
        gen = tmp_path / "gen"
        main(["gen", "--dims", "50,3,2,2", "--seed", "11", "--out", str(gen)])
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            main(
                [
                    "solve",
                    "--a",
                    str(gen / "a.t3f"),
                    "--b",
                    str(gen / "b.t3f"),
                    "--p",
                    "1.0",
                    "--iters",
                    "50",
                    "--swap-iter",
                    "0",
                    "--alpha",
                    "0.001",
                    "--seed",
                    "12",
                    "--out",
                    str(out),
                ]
            )
            outs.append(read_bytes_map(out))
        assert outs[0] == outs[1]

    def test_swap_iter_0_is_accepted(self, inputs, tmp_path):
        out = tmp_path / "run"
        argv = ["solve", "--a", str(inputs["a"]), "--b", str(inputs["b"]), "--iters", "5", "--swap-iter", "0"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["params"]["swap_iter"] == 0


class TestExperiment:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "exp"
        code = main(
            [
                "experiment",
                "--dims",
                "80,4,2,3",
                "--p",
                "0.5,1.0",
                "--model",
                "uniform",
                "--swap-iter",
                "40",
                "--step-divisor",
                "40",
                "--trials",
                "2",
                "--seed",
                "13",
                "--trace-every",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "model,p,trial,iters,swap_iter,error_initial,error_swap,error_final"
        assert len(summary) == 1 + 4  # 2 p-values x 2 trials
        for p in ("0.5", "1"):
            for t in ("0", "1"):
                assert (out / f"trace_p{p}_trial{t}.csv").exists()
        # full-data runs make progress within one pass
        for line in summary[1:]:
            fields = line.split(",")
            if fields[1] == "1":
                assert float(fields[7]) < float(fields[5])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["p_values"] == [0.5, 1.0]

    def test_redraw_draws_no_full_mask(self, tmp_path, monkeypatch):
        from msgdt import experiment

        def no_mask(*args):
            raise AssertionError("redraw runs must not draw the full mask")

        monkeypatch.setattr(experiment, "draw_units", no_mask)  # the once-mode mask draw
        spec = experiment.ExperimentSpec(
            dims=mg.Dims(30, 4, 2, 3),
            p_values=(0.5,),
            model_kind="colblock",
            block_size=2,
            swap_iter=20,
            step_divisor=40.0,
            out_dir=tmp_path,
            iters=50,
            sampling="redraw",
            trace_every=10,
        )
        rows = experiment.run_experiment(spec)
        assert len(rows) == 1 and rows[0].iters == 50

    SMALL = ["experiment", "--dims", "40,3,2,2", "--swap-iter", "20", "--step-divisor", "20",
             "--seed", "14", "--trace-every", "10"]

    def test_one_system_per_trial(self, tmp_path, monkeypatch):
        from msgdt import experiment

        built = []

        def counting_gen(*args):
            built.append(args)
            return mg.gen_synthetic(*args)

        monkeypatch.setattr(experiment, "gen_synthetic", counting_gen)
        out = tmp_path / "x"
        main(self.SMALL + ["--p", "0.5,0.7,0.9", "--trials", "2", "--out", str(out)])
        assert len(built) == 2  # one per trial, shared by its three p values
        summary = (out / "summary.csv").read_text().splitlines()[1:]
        runs = [(p, t) for p in ("0.5", "0.7", "0.9") for t in ("0", "1")]
        assert [tuple(line.split(",")[1:3]) for line in summary] == runs
        for p, t in runs:
            assert (out / f"trace_p{p}_trial{t}.csv").exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--p", "0.5,0.5000000001"], "p values 0.5 and 0.5000000001 would share the trace file"),
            (["--p", "0.5,0.5"], "p values 0.5 and 0.5 would share the trace file"),
            (["--p", "0.5", "--swap-iter", "0"], "swap iteration must be >= 1, got 0"),
            (["--p", "0.5", "--trace-every", "0"], "--trace-every must be >= 1, got 0"),
            (["--p", "0.5", "--iters", "-1"], "iteration count must be >= 0, got -1"),
            # the once budget and the block size are checked against the dims, in the solver's words
            (["--p", "0.5", "--iters", "41"], re.escape(
                "msgdt experiment: error: 41 iterations need 41 distinct rows but A has only 40; "
                "sample with replacement (redraw) or lower the iteration count") + "$"),
            (["--p", "0.5", "--model", "colblock", "--block-size", "2"], "block size 2 does not divide column count 3"),
        ],
        ids=["close-p", "repeated-p", "swap-iter", "trace-every", "iters", "once-budget", "colblock-block-size"],
    )
    def test_bad_spec_rejected_before_any_output(self, tmp_path, capsys, monkeypatch, extra, message):
        from msgdt import experiment

        def no_system(*args):
            raise AssertionError("a bad spec built a system")

        monkeypatch.setattr(experiment, "gen_synthetic", no_system)
        out = tmp_path / "x"
        assert_one_line_error(capsys, main(self.SMALL + extra + ["--out", str(out)]), "experiment", message)
        assert not out.exists()

    def test_divergence_in_a_later_trial_writes_nothing(self, tmp_path, capsys, monkeypatch):
        from msgdt import experiment

        real_run_batch, calls = experiment.run_batch, []

        def second_trial_diverges(problems, configs, **kwargs):
            results = real_run_batch(problems, configs, **kwargs)
            calls.append(len(results))
            if len(calls) == 2:  # trial 1: its first run, p=0.5, goes non-finite
                nan = mg.Tensor3(np.full_like(results[0].x_final.data, np.nan))
                results[0] = dataclasses.replace(results[0], x_final=nan)
            return results

        monkeypatch.setattr(experiment, "run_batch", second_trial_diverges)
        out = tmp_path / "x"
        code = main(self.SMALL + ["--p", "0.5,0.7", "--trials", "2", "--out", str(out)])
        assert calls == [2, 2]
        assert_one_line_error(capsys, code, "experiment",
                              r"the iterate of p=0\.5 trial 1 went non-finite in 40 iterations: ")
        assert not out.exists()  # trial 0's traces are not written either

    def test_bad_sampling_rejected_before_any_output(self, tmp_path):
        from msgdt.experiment import ExperimentSpec, run_experiment

        out = tmp_path / "x"
        with pytest.raises(ValueError, match="sampling mode must be 'once' or 'redraw', got 'bogus'"):
            run_experiment(ExperimentSpec(dims=mg.Dims(40, 3, 2, 2), p_values=(0.5,), out_dir=out, sampling="bogus"))
        assert not out.exists()


class TestBounds:
    def test_prints_and_writes(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        main(["gen", "--dims", "20,3,2,2", "--seed", "15", "--out", str(gen)])
        out = tmp_path / "bounds"
        code = main(
            [
                "bounds",
                "--a",
                str(gen / "a.t3f"),
                "--b",
                str(gen / "b.t3f"),
                "--p",
                "0.5",
                "--radius",
                "10",
                "--alpha",
                "1e-5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "gradient_second_moment=" in captured
        assert "lipschitz=" in captured
        csv_lines = (out / "bounds.csv").read_text().splitlines()
        assert len(csv_lines) == 2
        assert csv_lines[0].startswith("gradient_second_moment,")

    def test_a_b_of_another_tube_length_is_refused_by_both_bounds(self):
        a = mg.gen_synthetic(mg.Dims(20, 3, 2, 2), 1).a
        b = mg.gen_synthetic(mg.Dims(20, 3, 2, 3), 2).b
        for bound in (mg.compute_bound_report, mg.gradient_second_moment_bound):
            with pytest.raises(ValueError, match=r"B dims \(20, 2, 3\) inconsistent with A dims \(20, 3, 2\): "
                                                 r"B needs A's 20 rows and tube length 2$"):
                bound(a, b, 10.0, 0.5)


class TestVerify:
    def test_identities_p_one_exits_zero(self, capsys):
        assert main(["verify", "identities", "--p", "1", "--trials", "200"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_identities_monte_carlo(self):
        assert main(["verify", "identities", "--model", "uniform", "--trials", "100000"]) == 0

    def test_unbiasedness(self):
        assert main(["verify", "unbiasedness"]) == 0

    def test_lipschitz(self):
        assert main(["verify", "lipschitz", "--trials", "100"]) == 0

    def test_bounds_suite(self):
        assert main(["verify", "bounds", "--trials", "1500"]) == 0

    def test_all_passes_identity_flags_on(self, tmp_path):
        args = ["--model", "colblock", "--block-size", "2", "--l", "4", "--n", "3", "--tol", "0.5", "--trials", "300"]
        main(["verify", "all", *args, "--out", str(tmp_path / "all")])
        main(["verify", "identities", *args, "--out", str(tmp_path / "one")])
        first = (tmp_path / "all" / "verify.txt").read_text().splitlines()[0]
        assert first == (tmp_path / "one" / "verify.txt").read_text().strip()
        assert first.startswith("identities[colblock p=0.5]: trials=300 ") and first.endswith("tol=0.5 -> ok")

    def test_report_written(self, tmp_path):
        out = tmp_path / "verify"
        assert (
            main(
                ["verify", "identities", "--p", "1", "--trials", "100", "--out", str(out)]
            )
            == 0
        )
        assert "identities" in (out / "verify.txt").read_text()
        assert (out / "manifest.json").exists()


class TestFrames:
    def test_import_export_roundtrip(self, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        rng = np.random.default_rng(16)
        stack = rng.integers(0, 256, size=(3, 4, 5)).astype(float)
        for k in range(3):
            write_pgm(stack[k], frames_dir / f"f{k}.pgm")
        tensor_path = tmp_path / "video.t3f"
        assert main(["frames", "import", "--src", str(frames_dir), "--out", str(tensor_path)]) == 0
        t = mg.read_t3f1(tensor_path)
        npt.assert_array_equal(t.data, stack)
        out_dir = tmp_path / "exported"
        assert main(["frames", "export", "--src", str(tensor_path), "--out", str(out_dir)]) == 0
        back = ingest_frames(out_dir)
        npt.assert_array_equal(back.data, stack)


class TestBlockSizeFlag:
    """--block-size belongs to colblock only: elsewhere REFUSALS holds its refusal, and on colblock it defaults to 1."""

    @pytest.mark.parametrize("command", ["mask", "solve", "experiment"])
    def test_colblock_defaults_to_one(self, inputs, tmp_path, command):
        out = tmp_path / "out"
        a, b = str(inputs["a"]), str(inputs["b"])
        argv = {"mask": ["mask", "--a", a], "solve": ["solve", "--a", a, "--b", b, "--iters", "5"],
                "experiment": ["experiment", "--dims", "12,4,2,3", "--p", "0.5", "--iters", "5", "--swap-iter", "3"]}
        assert main(argv[command] + ["--model", "colblock", "--out", str(out)]) == 0
        params = json.loads((out / "manifest.json").read_text())["params"]
        if command == "experiment":
            assert params["block_size"] == 1
        else:
            assert params["model"] == "colblock p=0.5 b=1"


class TestOneParserPerProcess:
    def test_a_replaced_command_function_is_the_one_run(self, tmp_path, capsys, monkeypatch):
        from msgdt import cli

        gen = tmp_path / "gen"
        assert main(["gen", "--dims", "20,3,2,2", "--seed", "3", "--out", str(gen)]) == 0  # the parser exists
        calls = []

        def recording(args):
            calls.append(args.command)
            return original(args)

        original = cli.cmd_bounds
        monkeypatch.setattr(cli, "cmd_bounds", recording)
        argv = ["bounds", "--a", str(gen / "a.t3f"), "--b", str(gen / "b.t3f"), "--p", "0.5", "--radius", "10"]
        assert main(argv) == 0
        assert calls == ["bounds"]
        assert cli.build_parser() is cli.build_parser()
        assert "lipschitz=" in capsys.readouterr().out

    def test_consecutive_commands_keep_their_codes_and_messages(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert main(["gen", "--dims", "20,4,2,2", "--seed", "4", "--out", str(gen)]) == 0
        assert capsys.readouterr().out == f"wrote a.t3f xstar.t3f b.t3f to {gen}\n"
        with pytest.raises(SystemExit) as exc:  # argparse's usage error: the required --out is missing
            main(["mask", "--a", str(gen / "a.t3f")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: msgdt mask")
        assert err.endswith("msgdt mask: error: the following arguments are required: --out\n")
        code = main(["mask", "--a", str(gen / "a.t3f"), "--block-size", "2", "--out", str(tmp_path / "bad")])
        assert_one_line_error(capsys, code, "mask", "--block-size applies only to --model colblock")
        mask = tmp_path / "mask"
        argv = ["mask", "--a", str(gen / "a.t3f"), "--model", "colblock", "--block-size", "2", "--out", str(mask)]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(f"wrote mask.t3f atilde.t3f to {mask} (observed fraction ")
        code = main(["bounds", "--a", str(gen / "a.t3f"), "--b", str(gen / "b.t3f"), "--p", "2", "--radius", "10"])
        assert_one_line_error(capsys, code, "bounds", r"observation probability must be in \(0, 1\], got 2.0")
        assert main(["gen", "--dims", "20,4,2,2", "--seed", "4", "--out", str(tmp_path / "again")]) == 0
        assert read_bytes_map(tmp_path / "again") == read_bytes_map(gen)


def test_module_entry_point(capsys, monkeypatch):
    import runpy

    monkeypatch.setattr("sys.argv", ["msgdt", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("msgdt", run_name="__main__")
    assert exc.value.code == 0
    assert "msgdt" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "msgdt" in capsys.readouterr().out


# --- every command on small, mismatched and malformed T3F1 files --------------------------------------------------

# sampled_from over repeated values: most draws are well formed, so most commands get past their checks
_DIM = st.sampled_from((1, 2, 3, 4) * 3 + (0,))
# a file: its header dims (the system's own, or any 0..4), its payload (right-sized, 8 bytes short or 8 bytes over)
# and its entries (Gaussian or all zero)
_FILE = st.tuples(st.sampled_from(("own",) * 5 + ("other",)), st.tuples(*[st.integers(0, 4)] * 3),
                  st.sampled_from(("exact",) * 6 + ("truncated", "over-long")),
                  st.sampled_from(("normal",) * 3 + ("zero",)))
_MODEL = st.sampled_from([["--model", "uniform"], ["--model", "frontal"], ["--model", "colblock"],
                          ["--model", "colblock", "--block-size", "2"]] * 2
                         + [["--model", "uniform", "--block-size", "2"]])
# numpy's words in the errors this test has seen end a command
_NUMPY_PHRASES = ("broadcast", "operand", "out of bounds", "zero-size array", "non-negative integer",
                  "Mean of empty slice")
_NON_FINITE = re.compile(r"(?i)\b(nan|inf(inity)?)\b")


def _write_t3f1_case(path, own, file, seed):
    kind, other, payload, values = file
    dims = own if kind == "own" else other
    data = np.random.default_rng(seed).standard_normal(math.prod(dims)) * (values == "normal")
    raw = data.astype("<f8").tobytes()
    raw = {"exact": raw, "truncated": raw[:-8], "over-long": raw + bytes(8)}[payload]
    path.write_bytes(b"T3F1" + np.array(dims, dtype="<u8").tobytes() + raw)


def _command_line(draw, d, system):
    """One command over the files in ``d``, its flags drawn from small sets of valid and invalid values."""
    m, l, q, n = system
    a, b, xstar = (str(d / name) for name in ("a.t3f", "b.t3f", "xstar.t3f"))
    seed = ["--seed", str(draw(st.sampled_from((0, 1, 2, 3, 4, 5, 6, -1))))]
    p = ["--p", draw(st.sampled_from(["0.5", "1"]))]
    alpha = draw(st.sampled_from([[], [], ["--alpha", "1e-3"], ["--alpha", "1e3"]]))
    command = draw(st.sampled_from(["gen", "mask", "solve", "bounds", "verify"]))
    if command == "gen":
        return ["gen", "--dims", f"{m},{l},{q},{n}", *draw(st.sampled_from([[], ["--xstar", xstar]])), *seed]
    if command == "mask":
        return ["mask", "--a", a, *draw(_MODEL), *p, *seed]
    if command == "solve":
        extra = draw(st.sampled_from([[], ["--xstar", xstar], ["--full-a", a], ["--xstar", xstar, "--full-a", a]]))
        return ["solve", "--a", a, "--b", b, *draw(_MODEL), *p, "--iters", str(draw(st.integers(0, 5))),
                "--swap-iter", str(draw(st.integers(0, 3))), "--trace-every", "2",
                "--sampling", draw(st.sampled_from(["once", "redraw"])), *alpha, *extra, *seed]
    if command == "bounds":
        return ["bounds", "--a", a, "--b", b, *p, "--radius", "1", *alpha]
    suite = draw(st.sampled_from(["identities", "unbiasedness", "lipschitz", "bounds"]))
    flags = [] if suite == "unbiasedness" else ["--trials", str(draw(st.sampled_from((3, 2, 1, 0))))]
    if suite == "identities":
        flags += [*draw(_MODEL), "--l", str(draw(st.sampled_from((3, 2, 1, 0)))),
                  "--n", str(draw(st.sampled_from((2, 1, 0))))]
    return ["verify", suite, *p, *flags, *seed]


def _assert_finite_outputs(argv, stdout, out):
    """Every number a command printed or wrote is finite; T3F1 outputs are read back, which refuses non-finite ones.

    The one exception is the bound report's NaN contraction and horizon when no --alpha was given.
    """
    texts = {"stdout": stdout}
    if out.exists():
        for path in sorted(out.iterdir()):
            if path.suffix == ".t3f":
                mg.read_t3f1(path)
            else:
                texts[path.name] = path.read_text()
    if "bounds.csv" in texts:  # the report's columns as its key=value lines, so that one rule reads both
        header, row = texts["bounds.csv"].splitlines()
        texts["bounds.csv"] = "\n".join(f"{k}={v}" for k, v in zip(header.split(","), row.split(",")))
    nan_keys = {"contraction", "horizon"} if argv[0] == "bounds" and "--alpha" not in argv else set()
    for name, text in texts.items():
        for line in text.replace(str(out), "<out>").splitlines():
            key = line.split("=", 1)[0]
            if key in nan_keys:
                assert line == f"{key}=nan", (argv, name, line)
            else:
                assert not _NON_FINITE.search(line), (argv, name, line)


@settings(max_examples=200, deadline=None)
@given(system=st.tuples(_DIM, _DIM, _DIM, _DIM), files=st.tuples(_FILE, _FILE, _FILE), data=st.data())
def test_every_command_ends_in_finite_output_or_one_line(system, files, data):
    """gen, mask, solve, bounds and verify exit 0 with finite output, or 2 with one line that is not numpy's."""
    m, l, q, n = system
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        owns = {"a.t3f": (m, l, n), "b.t3f": (m, q, n), "xstar.t3f": (l, q, n)}
        for seed, ((name, own), file) in enumerate(zip(owns.items(), files)):
            _write_t3f1_case(d / name, own, file, seed)
        argv = _command_line(data.draw, d, system)
        out = d / "out"
        if argv[0] != "bounds" or data.draw(st.booleans()):  # --out is optional for bounds only
            argv += ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(argv)
        err = stderr.getvalue()
        if code == 2:
            assert err.startswith(f"msgdt {argv[0]}: error: ") and err.count("\n") == 1, (argv, err)
            assert not any(phrase in err for phrase in _NUMPY_PHRASES), (argv, err)
            assert not out.exists(), argv
        elif code == 1 and argv[0] == "verify":  # a violation seen in a few draws is a result, reported as one
            assert err == "" and "VIOLATION" in stdout.getvalue(), (argv, err)
        else:
            assert code == 0 and err == "", (argv, code, err)
            _assert_finite_outputs(argv, stdout.getvalue(), out)
