"""End-to-end telemetry: instrumented trainer/cluster runs produce nested
spans, labeled histograms, and fault events on one timeline."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.trace import validate_chrome_trace


def _tiny_serial_run(epochs=2):
    from repro.core import SGD, ConstantLR
    from repro.core.trainer import Trainer
    from repro.data import gaussian_blobs
    from repro.nn.models import mlp

    x, y = gaussian_blobs(48, num_classes=3, dim=6, seed=0)
    model = mlp(6, [8], 3, seed=1)
    trainer = Trainer(model, SGD(model.parameters()), ConstantLR(0.1))
    return trainer.fit(x, y, x[:12], y[:12], epochs=epochs, batch_size=16)


def test_serial_trainer_spans_and_histograms():
    obs.enable()
    result = _tiny_serial_run(epochs=2)
    tracer = obs.get_tracer()
    steps = tracer.spans_named("trainer.train_step")
    assert len(steps) == result.total_iterations == 6
    assert all(s.parent == "trainer.epoch" for s in steps)
    assert len(tracer.spans_named("trainer.epoch")) == 2
    assert len(tracer.spans_named("trainer.evaluate")) == 2
    # the timed() helper fed the matching latency histograms too
    reg = obs.get_registry()
    assert reg.histogram("trainer.train_step_s").count == 6
    assert reg.histogram("trainer.epoch_s").count == 2
    # epoch boundaries published onto the bus
    epochs = obs.get_event_bus().events("trainer.epoch")
    assert [e.fields["epoch"] for e in epochs] == [1, 2]


def test_disabled_run_records_nothing():
    _tiny_serial_run(epochs=1)
    assert obs.get_tracer().spans == []
    assert obs.get_registry().series() == []
    assert obs.get_event_bus().events() == []


def test_traced_sync_sgd_demo_has_nested_spans_and_fault_events(tmp_path):
    """The acceptance path: a fault-armed cluster run exports a valid Chrome
    trace containing nested trainer -> grad_sync -> allreduce spans and at
    least one fault-injector event."""
    from repro.obs.cli import run_traced_demo

    obs.enable()
    result = run_traced_demo(world=4, epochs=1, batch=32, examples=64,
                             drop_prob=0.05, straggler_mult=1.5, seed=0)
    assert result.final_test_accuracy >= 0.0
    tracer = obs.get_tracer()

    steps = tracer.spans_named("trainer.train_step")
    assert steps and all(s.depth == 0 for s in steps)
    syncs = tracer.spans_named("cluster.grad_sync")
    assert syncs and all(s.parent == "trainer.train_step" for s in syncs)
    allreduces = tracer.spans_named("comm.allreduce")
    assert allreduces
    assert any(s.parent == "cluster.grad_sync" for s in allreduces)
    computes = tracer.spans_named("cluster.compute")
    assert computes and all(s.parent == "trainer.train_step" for s in computes)

    # rank threads are distinguishable tracks
    assert len({s.tid for s in steps}) == 4

    # the armed straggler guarantees fault events on the same timeline
    fault_marks = [e for e in tracer.instants if e.name.startswith("fault.")]
    assert fault_marks
    fault_events = obs.get_event_bus().events("fault")
    assert fault_events

    # straggler-wait gauge and per-collective histogram recorded
    reg = obs.get_registry()
    waits = [g for g in reg.series()
             if g.name == "cluster.straggler_wait_s" and g.kind == "gauge"]
    assert len(waits) == 4
    ring = reg.histogram("comm.allreduce_s", algorithm="ring")
    assert ring.count == sum(s.attrs.get("algorithm") == "ring" for s in allreduces)
    assert ring.count > 0

    # exported file passes the Chrome schema and keeps the nesting visible
    path = tmp_path / "trace.json"
    obs.export_trace(str(path))
    payload = json.loads(path.read_text())
    validate_chrome_trace(payload)
    names = {ev["name"] for ev in payload["traceEvents"]}
    assert {"trainer.train_step", "cluster.grad_sync", "comm.allreduce"} <= names
    assert any(ev["ph"] == "i" and ev["name"].startswith("fault.")
               for ev in payload["traceEvents"])


def test_metrics_export_from_traced_run(tmp_path):
    from repro.obs.metrics import validate_metrics_snapshot

    obs.enable()
    _tiny_serial_run(epochs=1)
    json_path = tmp_path / "metrics.json"
    csv_path = tmp_path / "metrics.csv"
    obs.export_metrics(str(json_path))
    obs.export_metrics(str(csv_path), fmt="csv")
    payload = json.loads(json_path.read_text())
    validate_metrics_snapshot(payload)
    assert any(m["name"] == "trainer.train_step_s" for m in payload["metrics"])
    assert "trainer.train_step_s" in csv_path.read_text()
    with pytest.raises(ValueError):
        obs.export_metrics(str(json_path), fmt="xml")


def test_timed_skips_histogram_labels_from_span_attrs():
    obs.enable()
    with obs.timed("op", hist_labels={"algorithm": "ring"}, rank=3, iteration=17):
        pass
    reg = obs.get_registry()
    h = reg.histogram("op_s", algorithm="ring")
    assert h.count == 1
    (s,) = obs.get_tracer().spans_named("op")
    assert s.attrs["rank"] == 3 and s.attrs["iteration"] == 17


def test_timed_metrics_only_mode():
    obs.enable(tracing=False)
    with obs.timed("op"):
        pass
    assert obs.get_tracer().spans == []
    assert obs.get_registry().histogram("op_s").count == 1


def test_loader_batch_fetch_spans():
    from repro.data import BatchLoader

    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 4))
    y = rng.integers(0, 3, 32)
    obs.enable()
    loader = BatchLoader(x, y, batch_size=8)
    batches = list(loader)
    fetches = obs.get_tracer().spans_named("data.batch_fetch")
    assert len(fetches) == len(batches) == 4


def test_layer_profiler_emits_spans_and_keeps_table():
    from repro.nn.models import mlp
    from repro.obs.trace import Tracer
    from repro.util.timing import LayerProfiler

    model = mlp(6, [8], 3, seed=0)
    tracer = Tracer(enabled=True)
    prof = LayerProfiler(model, tracer=tracer)
    x = np.random.default_rng(0).normal(size=(4, 6))
    model.forward(x)
    prof.unwrap()
    fwd = tracer.spans_named("layer.forward")
    assert len(fwd) == len(model.layers)
    report = prof.report()
    assert "fwd_s" in report and "TOTAL" in report
    # span labels match the table's layer labels
    labels = {s.attrs["layer"] for s in fwd}
    assert labels == set(prof.forward_time)
