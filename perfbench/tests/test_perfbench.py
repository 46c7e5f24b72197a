"""Tests of the benchmark's own machinery (not of confgauss).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from confgauss import acceptance, classify, cli, grid  # noqa: E402


def _bindings():
    """Every function object bound in a confgauss namespace or module list."""
    out = {}
    for mod in spans._confgauss_modules():
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
            elif type(value) is list:
                out[(mod.__name__, key)] = list(value)
    for attr in ("d_u", "d_v", "__post_init__"):
        out[("ChartGrid", attr)] = grid.ChartGrid.__dict__[attr]
    return out


def test_wrappers_restore_originals():
    before = _bindings()
    orig_classify_data = classify.classify_data
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.classify_data is not orig_classify_data
        assert cli.classify_data is classify.classify_data
        assert acceptance.CRITERIA[-1] is acceptance.criterion_convergence
        assert acceptance.CRITERIA[0].__wrapped__ is before[
            ("confgauss.acceptance", "criterion_structure_equations")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, list):
            assert all(a is b for a, b in zip(after[key], value)), key
        else:
            assert after[key] is value, key


def _summary(out):
    """A comparable form of a request's output."""
    if isinstance(out, classify.ClassificationReport):
        return cli.to_json(cli._sanitize(out.to_dict()))
    if isinstance(out, tuple) and isinstance(out[1], classify.ClassificationReport):
        return cli.to_json(cli._sanitize(out[1].to_dict()))
    path, (code, stdout) = out
    return code, stdout


def _outputs(workload, tracer=None):
    results = []
    for req in workload.requests:
        scope = tracer.request(req.label) if tracer else contextlib.nullcontext()
        with scope:
            out = req.call()
        results.append((_summary(out), req.check(out)))
    return results


def _small_workloads(tmp_path):
    transform = workloads.TransformN128(5)
    transform.requests = transform.requests[:3]
    analyze = workloads.AnalyzeExportN128(5, n=64, workdir=tmp_path)
    analyze.requests = analyze.requests[2:]
    return [workloads.ClassifyN512(5, n=128), transform, analyze]


def test_traced_and_untraced_runs_agree(tmp_path):
    for workload in _small_workloads(tmp_path):
        plain = _outputs(workload)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = _outputs(workload, tracer)
        finally:
            tracer.uninstall()
        assert traced == plain, workload.name
        assert all(ok for _, ok in plain), workload.name
        assert tracer.spans, workload.name


def _layer_counts(workload):
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = workload.run_round(tracer.request)
    finally:
        tracer.uninstall()
    assert all(r.ok for r in records)
    metrics = tracer.layer_metrics(len(records), 1, 0.0)
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "MB") or k == "grid.axis_pass_unique_frac"}


def test_count_metrics_repeat_exactly(tmp_path):
    for workload in _small_workloads(tmp_path):
        first = _layer_counts(workload)
        assert first == _layer_counts(workload), workload.name
        assert first["grid.axis_passes"] > 0
        assert 0.0 < first["grid.axis_pass_unique_frac"] <= 1.0


def test_repeated_axis_passes_counted_within_a_request():
    g = workloads.zoo.sample(workloads.zoo.make_surface("cylinder"), 16)
    f = g.pos[..., 0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.request("a"):
            g.d_u(f)
            g.d_u(f)
            g.d_v(f)
        with tracer.request("b"):
            g.d_u(f)
        g.d_u(f)  # outside a request: not recorded
    finally:
        tracer.uninstall()
    assert (tracer.axis_passes, tracer.unique_axis_passes) == (4, 3)
    assert tracer.totals()["grid.axis_pass"][0] == 4


def test_criteria_are_wrapped_consistently():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.request("criterion"):
            res = acceptance.CRITERIA[1](16)
    finally:
        tracer.uninstall()
    assert res.name
    totals = tracer.totals()
    assert totals["acceptance.criterion02"][0] == 1


@pytest.mark.parametrize("n, label, index", [
    (5, "max", 4), (39, "max", 38), (40, "p75", 29),
    (100, "p90", 89), (1000, "p99", 989),
])
def test_tail_percentile_has_ten_samples_beyond(n, label, index):
    assert run._tail(list(range(n))) == (label, index)


def test_timestamp_sink_times_each_line():
    sink = workloads._TimestampSink()
    print("a", file=sink)
    sink.write("b\nc")
    sink.write("\n")
    assert len(sink.ends) == 3
    assert len(sink.starts) == len(sink.calibrations) == 4
    assert all(s < e for s, e in zip(sink.starts, sink.ends))
    assert all(c > 0 for c in sink.calibrations)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transform-n128",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "correct" not in json.loads(line)
