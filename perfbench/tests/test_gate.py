import math
from types import SimpleNamespace

from gate import Gate, phase_ok, rel_close
from workloads import SweepDesk


def test_phase_check_rejects_nan_and_non_decreasing_errors():
    assert phase_ok(10.0, 5.0, 4.0)
    assert not phase_ok(10.0, 5.0, math.nan)
    assert not phase_ok(10.0, 5.0, 5.0)
    assert not phase_ok(10.0, math.inf, 4.0)


def test_reference_match_rejects_perturbed_and_nan_values():
    stored = [2.5, 11.0]
    assert rel_close([2.5 * (1 + 1e-12), 11.0], stored, 1e-9)
    assert not rel_close([2.5 * (1 + 1e-7), 11.0], stored, 1e-9)
    assert not rel_close([math.nan, 11.0], stored, 1e-9)
    assert not rel_close([2.5], stored, 1e-9)


def test_gate_counts_failures_and_exceptions():
    gate = Gate()
    gate.check("good", True)
    gate.check("bad", False, "why")

    def boom():
        raise RuntimeError("broken")

    assert gate.attempt("sweep", 3, boom) is None
    assert (gate.attempted, gate.failed) == (5, 4)
    assert gate.failures[0] == "bad: why"


def test_sweep_verify_flags_a_nan_final_error():
    spec = SimpleNamespace(model_kind="uniform", p_values=(0.5, 0.9), total_iters=10, trials=1)
    rows = [
        SimpleNamespace(p=0.5, error_initial=10.0, error_swap=5.0, error_final=4.0),
        SimpleNamespace(p=0.9, error_initial=10.0, error_swap=5.0, error_final=math.nan),
    ]
    gate = Gate()
    result = SweepDesk().verify([spec], [rows], gate)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert result.iters == 20 and result.final_errors[0] == 4.0
