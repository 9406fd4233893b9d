"""Tests of the benchmark itself: seeded inputs, wrapper removal, failure labels and speed scaling.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import hashlib
import json
import sys
import time

import layers
import worker
import workloads


def _inputs_digest(workload: str, seed: int, blocks: int = 3) -> str:
    h = hashlib.sha256()
    for k in range(blocks):
        for spec in workloads.block_specs(workload, seed, k):
            h.update(json.dumps(spec, sort_keys=True).encode())
            if spec["kind"].startswith("apply"):
                h.update(workloads.apply_inputs(spec).tobytes())
    return h.hexdigest()


def test_same_seed_gives_same_inputs():
    for workload in ("apply", "cli"):
        assert _inputs_digest(workload, 7) == _inputs_digest(workload, 7)
        assert _inputs_digest(workload, 7) != _inputs_digest(workload, 8)


def test_draws_stay_inside_the_accepted_windows():
    for k in range(20):
        for spec in workloads.block_specs("apply", 3, k):
            if spec["problem"] == "z4":
                assert workloads.elliptic.ELL_MIN < spec["ell"] < workloads.elliptic.ELL_MAX
                assert 1 <= spec["degree"] <= 64
            else:
                assert workloads.elliptic.THETA_MIN < spec["theta"] < workloads.elliptic.THETA_MAX
                assert 1 <= spec["degree"] <= 256
            assert 64 <= spec["points"] <= 65536


def _snapshot():
    """Every attribute of every zolocirc module and traced class, by identity."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "zolocirc" or name.startswith("zolocirc."):
            out.update({(name, attr): id(value) for attr, value in vars(module).items()})
    for cls, *_ in layers.METHODS:
        out.update({(cls.__qualname__, attr): id(value) for attr, value in vars(cls).items()})
    return out


def test_wrappers_are_installed_everywhere_and_removed():
    from zolocirc import analysis, approximants, elliptic, selftest

    before = _snapshot()
    original = elliptic.solve_lambda
    original_call = approximants.UnimodularRational.__call__
    tracer = layers.Tracer()
    with tracer:
        assert elliptic.solve_lambda is not original
        assert analysis.solve_lambda is elliptic.solve_lambda
        assert approximants.UnimodularRational.__call__ is not original_call
        approximants.build_s(4, 1.0)(1j)
        assert len(selftest.CRITERIA) == layers.CRITERIA
    assert elliptic.solve_lambda is original
    assert _snapshot() == before
    metrics = tracer.metrics()
    assert metrics["approximants.build.calls"] == 1
    assert metrics["approximants.coeff.calls"] == 4
    assert metrics["approximants.eval_scalar.calls"] == 1


def test_wrappers_are_removed_after_an_exception():
    from zolocirc import approximants, errors

    before = _snapshot()
    tracer = layers.Tracer()
    try:
        with tracer:
            approximants.build_s(-1, 1.0)
    except errors.DomainError:
        pass
    assert _snapshot() == before
    assert tracer.metrics()["approximants.build.calls"] == 1


def _error_report(measured, predicted):
    results = dict.fromkeys(workloads.RESULT_KEYS["error"], 0)
    results.update(measured_max_error=measured, predicted_max_error=predicted,
                   alternation_counts=[1, 0], expected_per_arc=9)
    return json.dumps({"command": "error", "inputs": {}, "results": results, "tool_version": "0"})


def test_only_verified_failures_carry_a_known_label():
    best = 0.3
    exit_4 = workloads._check_cli_exit("error", "z6", 8, 4, _error_report(best, best), "", 1.0, best)
    assert exit_4.known == workloads.ITEM_4
    off = workloads._check_cli_exit("error", "z6", 8, 4, _error_report(best + 1e-6, best), "", 1.0, best)
    assert off.known is None
    assert workloads._check_cli_exit("compose", "z6", 2, 5, "", "composition law failed", 1.0, best).known is None
    assert workloads._check_cli_exit("error", "z6", 8, 3, "", "domain error", 1.0, best).known is None
    assert workloads.item_3(1.0, best + 1e-6, best) is None
    assert workloads.item_3(1.5703, best + 1e-6, best) == workloads.ITEM_3
    assert workloads.item_3(1.5703, best - 1e-6, best) is None


def test_selftest_block_is_one_sweep_in_order():
    specs = workloads.block_specs("selftest", 1, 0)
    assert [spec["criterion"] for spec in specs] == list(range(1, len(workloads.selftest.CRITERIA) + 1))
    assert workloads.operation_size("selftest") == len(specs)


def test_latencies_are_scaled_by_the_calibrations_around_them(monkeypatch):
    readings = iter([worker.CALIB_REF_S, 3.0 * worker.CALIB_REF_S])
    monkeypatch.setattr(worker, "calibration", lambda: next(readings))
    run = worker._run_ops([[({"kind": "sleep"}, lambda: time.sleep(0.02), lambda _: None)]], calibrate=True)
    assert run["calibrations_s"] == [worker.CALIB_REF_S, 3.0 * worker.CALIB_REF_S]
    # The machine ran at half the reference speed on average, so the 20 ms
    # sleep counts as about 10 ms.
    assert 0.01 <= run["latencies_s"][0] < 0.02
