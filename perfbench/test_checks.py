"""Tests of the benchmark's own output checks and tracing.

Run from the repository root:

    python3 -m pytest perfbench -q

Each checker must accept the program's real output and reject a perturbed
copy of it; a failed `qfi` exit must be counted, not dropped.
"""

import json
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from cvgraphsense import cli  # noqa: E402


def program(*argv):
    return worker.run_op(cli, argv)


def with_field(out, **fields):
    d = json.loads(out)
    d.update(fields)
    return json.dumps(d, indent=2) + "\n"


def scale_csv_cell(out, row, column, factor):
    lines = out.splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = repr(float(cells[column]) * factor)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_scaling_check_rejects_perturbed_qfi():
    for name, modality in (("fig2", "phase"), ("fig4", "displacement")):
        rc, out = program("figure", name, "--n-max", "64")
        assert checks.check_scaling(modality, 64, rc, out) == []
        for column in (2, 3):
            bad = scale_csv_cell(out, 20, column, 1 + 1e-6)
            assert checks.check_scaling(modality, 64, rc, bad)
        missing = "".join(out.splitlines(keepends=True)[:-1])
        assert checks.check_scaling(modality, 64, rc, missing)


def test_saturation_check_rejects_fi_above_qfi_or_below_grid():
    rc, out = program("fi", "displacement", "--star", "2", "--r", "1", "--optimize")
    ansatz = workloads._ansatz(2, 1.0, "displacement")
    check = partial(checks.check_saturation, "displacement", 2, 1.0, ansatz, rc)
    assert check(out) == []
    d = json.loads(out)
    assert check(with_field(out, value=d["qfi"] * (1 + 1e-6)))
    assert check(with_field(out, value=d["value"] * 0.9))
    assert check(with_field(out, qfi=d["qfi"] * (1 + 1e-6)))
    assert check(with_field(out, alpha=d["alpha"] + 0.5))


def test_fixed_angle_check_rejects_fi_above_qfi():
    argv = ("fi", "phase", "--star", "6", "--r", "1", "--alpha", "0.3", "--beta", "1.1")
    rc, out = program(*argv)
    check = partial(checks.check_fixed_fi, "phase", 6, 1.0, 0.3, 1.1, rc)
    assert check(out) == []
    assert check(with_field(out, value=json.loads(out)["qfi"] * (1 + 1e-6)))


def test_qfi_check_rejects_scaled_value():
    cases = [("phase", ("--star", "8"), partial(checks.star_adjacency, 8)),
             ("displacement", ("--rectangular", "4"), partial(checks.rectangular_adjacency, 4))]
    for modality, graph, adjacency in cases:
        rc, out = program("qfi", modality, *graph, "--r", "1")
        check = partial(checks.check_qfi, modality, adjacency, 1.0)
        assert check(rc, out) == []
        assert check(rc, with_field(out, value=json.loads(out)["value"] * (1 + 1e-6)))
        assert check(1, out), "exit 1 without a reported cross-check failure"


def test_failed_qfi_exit_is_counted_not_dropped():
    failing = workloads.Op(
        ("qfi", "phase", "--multipartite", "4", "64", "--r", "1"),
        partial(checks.check_qfi, "phase", partial(checks.multipartite_adjacency, 4, 64), 1.0),
        expect_fail=True)
    passing = workloads.Op(
        ("qfi", "phase", "--star", "4", "--r", "1"),
        partial(checks.check_qfi, "phase", partial(checks.star_adjacency, 4), 1.0))
    ops = [failing, passing]
    outputs = [[program(*op.argv) for op in ops] for _ in range(3)]
    assert outputs[0][0][0] == 1
    assert "cross-check failed" in outputs[0][0][1]
    assert worker.tally(ops, outputs) == (3, [])
    failed, problems = worker.tally([failing._replace(expect_fail=False), passing], outputs)
    assert failed == 3 and problems


def test_verify_check_rejects_loose_or_failed_suites():
    rc, out = program("verify", "all", "--cases", "10", "--seed", "1")
    assert checks.check_verify(10, rc, out) == []
    assert checks.check_verify(20, rc, out)
    for field, value in (("max_rel_error", 2e-12), ("tolerance", 1e-6)):
        reports = json.loads(out)
        reports[2][field] = value
        assert checks.check_verify(10, rc, json.dumps(reports))


def test_passes_must_repeat_byte_for_byte():
    op = workloads.Op(("verify",), lambda rc, out: [])
    assert worker.tally([op], [[(0, "a")], [(0, "a")]]) == (0, [])
    assert worker.tally([op], [[(0, "a")], [(0, "b")]])[1]


def test_tracer_counts_repeat_and_uninstall_restores():
    import cvgraphsense

    original = cli.main
    tr = tracer.Tracer()
    tr.install(cvgraphsense)
    try:
        per_op = []
        for _ in range(2):
            before = tr.totals.copy()
            assert program("qfi", "phase", "--star", "5", "--target-N", "20")[0] == 0
            per_op.append(tracer.metrics(tr.totals - before))
    finally:
        tr.uninstall()
    assert cli.main is original
    counts, again = ({k: v for k, v in m.items() if tracer.METRICS[k][0] == "count"}
                     for m in per_op)
    assert counts == again
    assert counts["cli.ops"] == 1
    assert counts["gaussian.budget_calls"] == 1
    assert counts["gaussian.photon_evals_per_budget"] > 2
    assert counts["qfi.closed_calls"] == counts["qfi.generic_calls"] == 1


def test_tracing_keeps_exceptions_and_exit_codes():
    import cvgraphsense

    argv = ("qfi", "phase", "--star", "5", "--target-N", "1e12")  # unreachable budget
    untraced = program(*argv)
    tr = tracer.Tracer()
    tr.install(cvgraphsense)
    try:
        traced = program(*argv)
        budget_depth = tr._budget_depth
    finally:
        tr.uninstall()
    assert untraced[0] == 2
    assert traced == untraced
    assert budget_depth == 0


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: run.unit_of(name)
                         for name in [*tracer.METRICS, *run.EXTRA_UNITS]}
