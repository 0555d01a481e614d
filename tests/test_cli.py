"""CLI smoke tests."""

import numpy as np
import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "resnet50" in out and "Omni-Path" in out


def test_predict_headline(capsys):
    assert main(["predict", "--model", "resnet50", "--epochs", "90",
                 "--batch", "32768", "--processors", "2048",
                 "--device", "knl", "--network", "opa"]) == 0
    out = capsys.readouterr().out
    assert "total time" in out
    # the 20-minute headline, within the model's band
    minutes = float(out.split("total time:")[1].split("minutes")[0])
    assert 14 < minutes < 26


def test_train_serial(capsys):
    assert main(["train", "--model", "mlp", "--optimizer", "lars",
                 "--batch", "64", "--epochs", "2", "--dataset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "peak test accuracy" in out


def test_train_cluster(capsys):
    assert main(["train", "--model", "mlp", "--optimizer", "sgd",
                 "--batch", "64", "--epochs", "1", "--world", "2",
                 "--dataset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "simulated ranks" in out


def test_train_trace_export(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main(["train", "--model", "mlp", "--optimizer", "sgd",
                 "--batch", "64", "--epochs", "1", "--dataset", "tiny",
                 "--trace", str(trace_path),
                 "--metrics-out", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote trace" in out and "wrote metrics" in out
    from repro.obs.metrics import validate_metrics_snapshot
    from repro.obs.trace import validate_chrome_trace

    payload = json.loads(trace_path.read_text())
    validate_chrome_trace(payload)
    assert any(ev["name"] == "trainer.train_step" for ev in payload["traceEvents"])
    validate_metrics_snapshot(json.loads(metrics_path.read_text()))


def test_train_without_trace_leaves_obs_disabled():
    from repro import obs

    assert main(["train", "--model", "mlp", "--optimizer", "sgd",
                 "--batch", "64", "--epochs", "1", "--dataset", "tiny"]) == 0
    assert not obs.is_enabled()
    assert obs.get_tracer().spans == []


def test_quiet_suppresses_info(capsys):
    from repro.obs.console import configure_verbosity

    try:
        assert main(["-q", "info"]) == 0
        assert capsys.readouterr().out == ""
    finally:
        configure_verbosity()


def test_trace_export_validate_summary(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main(["trace", "export", "--out", str(trace_path),
                 "--metrics-out", str(metrics_path),
                 "--world", "2", "--epochs", "1", "--examples", "64"]) == 0
    capsys.readouterr()
    payload = json.loads(trace_path.read_text())
    names = {ev["name"] for ev in payload["traceEvents"]}
    assert "cluster.grad_sync" in names

    assert main(["trace", "validate", str(trace_path), str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("ok (") == 2

    assert main(["trace", "summary", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "trainer.train_step" in out


def test_trace_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a trace"}')
    assert main(["trace", "validate", str(bad)]) == 1
    assert str(bad) in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_device_errors():
    with pytest.raises(KeyError):
        main(["predict", "--device", "tpu"])


def test_train_check_zero_alloc(capsys):
    assert main(["train", "--model", "mlp", "--optimizer", "sgd",
                 "--batch", "32", "--epochs", "1", "--dataset", "tiny",
                 "--check-zero-alloc"]) == 0
    out = capsys.readouterr().out
    assert "zero-alloc check passed" in out
    assert "train-step plan" in out


def test_train_static_memory_matches_eager(capsys):
    args = ["train", "--model", "mlp", "--optimizer", "sgd",
            "--batch", "32", "--epochs", "2", "--dataset", "tiny"]
    assert main(args) == 0
    eager = capsys.readouterr().out
    assert main([*args, "--static-memory"]) == 0
    planned = capsys.readouterr().out
    # same accuracies line for line: static memory is bitwise-neutral
    pick = lambda s: [ln for ln in s.splitlines() if "epoch" in ln or "peak" in ln]  # noqa: E731
    assert pick(eager) == pick(planned)


def test_check_zero_alloc_rejects_cluster_runs():
    with pytest.raises(SystemExit, match="serial"):
        main(["train", "--model", "mlp", "--world", "2",
              "--dataset", "tiny", "--epochs", "1", "--check-zero-alloc"])


def test_check_zero_alloc_fails_when_evaluation_outgrows_training(capsys):
    from repro.cli import _check_zero_alloc
    from repro.core import SGD, Trainer
    from repro.data import proxy_dataset
    from repro.nn.models import mlp

    ds = proxy_dataset("tiny")
    model = mlp(int(np.prod(ds.input_shape)), [16], ds.num_classes, flatten_input=True)
    trainer = Trainer(model, SGD(model.parameters()), 0.05, static_memory=True)
    trainer.fit(ds.x_train, ds.y_train, ds.x_test, ds.y_test, epochs=1, batch_size=8)
    # an evaluation plan at the whole test set outgrows the batch-8 step
    trainer.evaluate(ds.x_test, ds.y_test, batch_size=len(ds.x_test))
    assert not _check_zero_alloc(trainer, ds, 8)
    out = capsys.readouterr().out
    assert "0 bytes allocated" in out  # the slab did not grow: only the new rule fails
    assert "largest evaluation plan" in out and "largest train-step plan" in out
    assert "zero-alloc check FAILED" in out
