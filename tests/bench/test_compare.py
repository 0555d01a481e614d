"""Regression-gate tests, including the injected-slowdown exit code."""

import json

import pytest

from repro.bench.compare import (
    Comparison,
    compare_dirs,
    compare_payloads,
    format_report,
)
from repro.bench.harness import BenchResult
from repro.bench.schema import write_area_files
from repro.cli import main


def _write(dirname, medians, area="nn", quick=True):
    """Write one BENCH_<area>.json whose benchmarks have given medians."""
    results = [
        BenchResult(name=name, area=area, params={},
                    samples=[m, m, m], warmup=1)
        for name, m in medians.items()
    ]
    return write_area_files(results, str(dirname), quick=quick)


def test_statuses():
    base = {"ok": 0.010, "slow": 0.010, "fast": 0.010, "gone": 0.010}
    new = {"ok": 0.011, "slow": 0.031, "fast": 0.002, "new": 0.005}
    baseline = {"area": "nn", "results": {k: {"median_s": v} for k, v in base.items()}}
    current = {"area": "nn", "results": {k: {"median_s": v} for k, v in new.items()}}
    by_name = {
        c.name: c.status
        for c in compare_payloads(baseline, current, threshold=1.5)
    }
    assert by_name == {
        "ok": "ok", "slow": "regression", "fast": "improved",
        "gone": "removed", "new": "added",
    }


def test_area_mismatch_rejected():
    with pytest.raises(ValueError, match="area mismatch"):
        compare_payloads(
            {"area": "nn", "results": {}}, {"area": "data", "results": {}}, 1.5
        )


def test_min_seconds_floor_suppresses_noise():
    # 2 us -> 8 us is a 4x blowup but far below the 50 us noise floor.
    baseline = {"area": "nn", "results": {"tiny": {"median_s": 2e-6}}}
    current = {"area": "nn", "results": {"tiny": {"median_s": 8e-6}}}
    (c,) = compare_payloads(baseline, current, threshold=1.5)
    assert c.status == "ok"
    (c,) = compare_payloads(baseline, current, threshold=1.5, min_seconds=0.0)
    assert c.status == "regression"


def test_compare_dirs_matches_areas(tmp_path):
    base_dir, new_dir = tmp_path / "base", tmp_path / "new"
    _write(base_dir, {"a": 0.01}, area="nn")
    _write(base_dir, {"b": 0.01}, area="data")
    _write(new_dir, {"a": 0.05}, area="nn")  # regression; data area removed
    _write(new_dir, {"c": 0.01}, area="comm")  # new area
    statuses = {
        (c.area, c.name): c.status
        for c in compare_dirs(str(base_dir), str(new_dir), threshold=1.5)
    }
    assert statuses == {
        ("nn", "a"): "regression",
        ("data", "b"): "removed",
        ("comm", "c"): "added",
    }


def test_compare_dirs_empty_dir_rejected(tmp_path):
    (tmp_path / "empty").mkdir()
    _write(tmp_path / "new", {"a": 0.01})
    with pytest.raises(FileNotFoundError):
        compare_dirs(str(tmp_path / "empty"), str(tmp_path / "new"), 1.5)


def test_format_report_orders_regressions_first():
    comparisons = [
        Comparison("fine", "nn", 0.01, 0.01, 1.5),
        Comparison("bad", "nn", 0.01, 0.05, 1.5),
    ]
    report = format_report(comparisons)
    assert report.index("bad") < report.index("fine")
    assert "1 regression(s)" in report


def test_cli_compare_identical_exits_zero(tmp_path, capsys):
    _write(tmp_path / "base", {"a": 0.01})
    _write(tmp_path / "new", {"a": 0.0101})
    rc = main(["bench", "compare", str(tmp_path / "base"), str(tmp_path / "new")])
    assert rc == 0
    assert "0 regression(s)" in capsys.readouterr().out


def test_cli_compare_injected_slowdown_exits_nonzero(tmp_path, capsys):
    """The CI gate scenario: a 3x slowdown must fail the command."""
    _write(tmp_path / "base", {"conv": 0.010, "other": 0.010})
    slow_dir = tmp_path / "new"
    _write(slow_dir, {"conv": 0.010, "other": 0.010})
    path = slow_dir / "BENCH_nn.json"
    payload = json.loads(path.read_text())
    payload["results"]["conv"]["median_s"] *= 3.0
    path.write_text(json.dumps(payload))

    rc = main(["bench", "compare", str(tmp_path / "base"), str(slow_dir),
               "--threshold", "1.5"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "1 regression(s)" in out
    # threshold above the injected slowdown passes again
    assert main(["bench", "compare", str(tmp_path / "base"), str(slow_dir),
                 "--threshold", "4.0"]) == 0


def test_cli_compare_rejects_bad_threshold(tmp_path):
    _write(tmp_path / "base", {"a": 0.01})
    with pytest.raises(SystemExit, match="threshold"):
        main(["bench", "compare", str(tmp_path / "base"), str(tmp_path / "base"),
              "--threshold", "0.9"])


def test_cli_run_quick_writes_schema_valid_files(tmp_path, capsys):
    from repro.bench.schema import load_payload

    rc = main(["bench", "run", "--quick", "--out-dir", str(tmp_path),
               "--areas", "cluster", "--filter", "packing.*"])
    assert rc == 0
    payload = load_payload(str(tmp_path / "BENCH_cluster.json"))
    assert payload["quick"] is True
    assert set(payload["results"]) == {
        "packing.flatten_grads", "packing.roundtrip",
    }


def test_cli_run_memory_replay_row(tmp_path, capsys):
    # The replay row drives a MemoryContext by hand: it must open its own
    # passes, or every request raises.
    from repro.bench.schema import load_payload

    rc = main(["bench", "run", "--quick", "--out-dir", str(tmp_path),
               "--areas", "memory", "--filter", "context.*"])
    assert rc == 0
    payload = load_payload(str(tmp_path / "BENCH_memory.json"))
    assert set(payload["results"]) == {"context.replay"}


def test_cli_run_no_match_exits_nonzero(tmp_path, capsys):
    rc = main(["bench", "run", "--quick", "--out-dir", str(tmp_path),
               "--filter", "no.such.benchmark"])
    assert rc == 1


def test_cli_run_rejects_unknown_area(tmp_path):
    with pytest.raises(SystemExit, match="unknown area"):
        main(["bench", "run", "--areas", "gpu", "--out-dir", str(tmp_path)])
