import json

import numpy as np
import numpy.testing as npt
import pytest

import msgdt as mg
from msgdt.cli import main
from msgdt.frames import ingest_frames, write_pgm


def read_bytes_map(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


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

        monkeypatch.setattr(experiment, "draw_mask", no_mask)
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

    def test_empty_p_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no experiments requested"):
            main(
                [
                    "experiment",
                    "--dims",
                    "10,2,2,2",
                    "--p",
                    "",
                    "--out",
                    str(tmp_path / "x"),
                ]
            )

    def test_infeasible_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="infeasible"):
            main(
                [
                    "experiment",
                    "--dims",
                    "10,2,2,2",
                    "--p",
                    "0.5",
                    "--iters",
                    "20",
                    "--out",
                    str(tmp_path / "x"),
                ]
            )

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        args = [
            "experiment",
            "--dims",
            "40,3,2,2",
            "--p",
            "0.5,0.9",
            "--swap-iter",
            "20",
            "--step-divisor",
            "20",
            "--trials",
            "2",
            "--seed",
            "14",
            "--trace-every",
            "10",
        ]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        monkeypatch.setenv("MSGDT_THREADS", "1")
        main(args + ["--out", str(serial)])
        monkeypatch.setenv("MSGDT_THREADS", "2")
        main(args + ["--out", str(parallel)])
        assert read_bytes_map(serial) == read_bytes_map(parallel)

    SMALL = ["experiment", "--dims", "20,2,2,2", "--p", "0.5,0.9", "--trials", "2",
             "--swap-iter", "5", "--step-divisor", "20", "--trace-every", "10"]

    def test_non_integer_thread_count_named(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MSGDT_THREADS", "two")
        with pytest.raises(ValueError, match="MSGDT_THREADS"):
            main(self.SMALL + ["--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("cpus,expected", [(64, 4), (3, 3)])
    def test_worker_count_clamped(self, tmp_path, monkeypatch, cpus, expected):
        # a stand-in executor records max_workers and runs the jobs in-process
        from msgdt import experiment

        seen = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("MSGDT_THREADS", "100000")
        main(self.SMALL + ["--out", str(tmp_path / "x")])
        assert seen == [expected]  # 4 runs: 2 p values x 2 trials


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "msgdt" in capsys.readouterr().out
