import pytest
from tracer import Tracer
from workloads import WORKLOADS, report_fingerprint

import run


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_pass_of_every_workload(name):
    result = run.run_workload(name, seed=3, seconds=0.0, trace=True, size="smoke")
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= run.MIN_PASSES * len(WORKLOADS[name].metrics)
    assert set(result["end_to_end"]) >= set(run.END_TO_END) | set(WORKLOADS[name].metrics)
    assert set(result["per_layer"]) == set(run.per_layer_units())
    assert all(m["value"] > 0 for k, m in result["end_to_end"].items() if k != "failed_frac")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_reports_are_bit_identical_to_untraced(name, tmp_path):
    run.import_program()
    workload = WORKLOADS[name]
    ops = workload.setup(tmp_path, 5, workload.sizes["smoke"])
    runner = run.Runner(workload)

    def reports(tracer=None):
        out = {}
        for op in ops:
            if tracer is not None:
                tracer.install()
            try:
                _, error = runner.call(op, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            assert error is None, error
            out[op.key] = report_fingerprint(op.report.read_text())
        return out

    plain = reports()
    tracer = Tracer()
    traced = reports(tracer)
    assert tracer.spans, "the traced pass recorded no spans"
    assert traced == plain
