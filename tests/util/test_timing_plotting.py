"""Timer, LayerProfiler and ascii plotting tests."""

import time

import numpy as np
import pytest

from repro.nn.models import mlp
from repro.util import LayerProfiler, Timer, ascii_plot, sparkline


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        with t:
            time.sleep(0.01)
        assert t.count == 2
        assert t.total >= 0.02
        assert t.mean == pytest.approx(t.total / 2)

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.total == 0.0 and t.count == 0

    def test_mean_empty(self):
        assert Timer().mean == 0.0

    def test_integer_ns_accumulation(self):
        t = Timer()
        with t:
            pass
        assert t.total_ns > 0
        assert t.total == pytest.approx(t.total_ns * 1e-9)
        t.reset()
        assert t.total_ns == 0 and t.total == 0.0

    def test_total_is_read_only(self):
        t = Timer()
        with pytest.raises(AttributeError):
            t.total = 1.0


class TestLayerProfiler:
    def test_records_all_layers(self):
        model = mlp(6, [8], 3)
        prof = LayerProfiler(model)
        x = np.random.default_rng(0).normal(size=(16, 6))
        out = model.forward(x)
        model.backward(np.ones_like(out))
        assert len(prof.forward_time) == len(model.layers)
        assert all(t.count == 1 for t in prof.forward_time.values())

    def test_report_sorted_with_total(self):
        model = mlp(6, [8], 3)
        prof = LayerProfiler(model)
        model.forward(np.zeros((4, 6)))
        rep = prof.report()
        assert "TOTAL" in rep and "mlp.layers" in rep

    def test_hotspot(self):
        model = mlp(6, [64], 3)
        prof = LayerProfiler(model)
        model.forward(np.zeros((64, 6)))
        assert prof.hotspot() is not None

    def test_unwrap_restores(self):
        model = mlp(6, [8], 3)
        originals = [layer.forward for layer in model.layers]
        prof = LayerProfiler(model)
        prof.unwrap()
        assert [layer.forward for layer in model.layers] == originals

    def test_requires_sequential(self):
        from repro.nn import Dense

        with pytest.raises(TypeError):
            LayerProfiler(Dense(3, 3))

    def test_profiled_model_still_correct(self):
        model = mlp(6, [8], 3, seed=3)
        x = np.random.default_rng(1).normal(size=(5, 6))
        expected = model.forward(x)
        prof = LayerProfiler(model)
        assert np.array_equal(model.forward(x), expected)

    def test_tracer_spans_per_layer(self):
        from repro.obs.trace import Tracer

        model = mlp(6, [8], 3)
        tracer = Tracer(enabled=True)
        prof = LayerProfiler(model, tracer=tracer)
        out = model.forward(np.zeros((4, 6)))
        model.backward(np.ones_like(out))
        assert len(tracer.spans_named("layer.forward")) == len(model.layers)
        assert len(tracer.spans_named("layer.backward")) == len(model.layers)
        # timers still accumulate alongside the spans
        assert all(t.count == 1 for t in prof.forward_time.values())

    def test_static_memory_step_is_unchanged_by_profiling(self):
        # Bound layers hand out=/fused-input targets to their neighbours;
        # the timing wrappers must forward them, and change no bit.
        from repro.nn import MemoryContext, SoftmaxCrossEntropy
        from repro.nn.models import micro_resnet

        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 8, 8))
        y = rng.integers(0, 10, size=4)

        def step(profile):
            model, loss = micro_resnet(width=4), SoftmaxCrossEntropy()
            mem = MemoryContext()
            model.bind_memory(mem)
            loss.bind_memory(mem)
            prof = LayerProfiler(model) if profile else None
            logits = model.forward(x).copy()
            loss.forward(logits, y)
            model.backward(loss.backward())
            return prof, logits, [p.grad.copy() for p in model.parameters()]

        prof, logits, grads = step(profile=True)
        _, ref_logits, ref_grads = step(profile=False)
        assert all(t.count == 1 for t in prof.backward_time.values())
        assert logits.tobytes() == ref_logits.tobytes()
        for g, ref in zip(grads, ref_grads, strict=True):
            assert g.tobytes() == ref.tobytes()

    def test_disabled_tracer_emits_no_spans(self):
        from repro.obs.trace import Tracer

        model = mlp(6, [8], 3)
        tracer = Tracer(enabled=False)
        LayerProfiler(model, tracer=tracer)
        model.forward(np.zeros((4, 6)))
        assert tracer.spans == []


class TestProfilerComposesWithHooks:
    """The profiler is one hook among others: any registration order, any
    removal order, and ``super()`` calls inside a layer time it once."""

    @staticmethod
    def _step(model, batch=4):
        out = model.forward(np.zeros((batch, 6)))
        model.backward(np.ones_like(out))

    def test_overlapped_cluster_run_profiles_every_backward(self):
        from repro.cluster import SyncSGDConfig, train_sync_sgd
        from repro.core import SGD, ConstantLR
        from repro.data import gaussian_blobs

        x, y = gaussian_blobs(64, num_classes=3, dim=6, seed=5)
        profilers = []

        def build(profile):
            def builder():
                model = mlp(6, [8], 3, seed=2)
                if profile:
                    # attached before the exchange adds its grad-ready hooks
                    profilers.append(LayerProfiler(model))
                return model

            return builder

        def run(profile):
            config = SyncSGDConfig(world=2, epochs=1, batch_size=16,
                                   overlap=True, bucket_bytes=64)
            return train_sync_sgd(build(profile), lambda p: SGD(p, momentum=0.9),
                                  ConstantLR(0.05), x, y, x[:8], y[:8], config)

        profiled, plain = run(True), run(False)
        assert len(profilers) == 2
        for prof in profilers:
            assert len(prof.backward_time) == 3
            assert all(t.count == 4 for t in prof.backward_time.values())
        for k, v in plain.final_state.items():
            assert profiled.final_state[k].tobytes() == v.tobytes()

    def test_removing_an_earlier_hook_keeps_the_profiler(self):
        model = mlp(6, [8], 3)
        fired = []

        def hook(module, phase, x):
            fired.append(phase)

        for layer in model.layers:
            layer.add_hook(hook)
        prof = LayerProfiler(model)
        for layer in model.layers:
            layer.remove_hook(hook)
        self._step(model)
        assert fired == []
        assert len(prof.backward_time) == len(model.layers)
        assert all(t.count == 1 for t in prof.forward_time.values())
        assert all(t.count == 1 for t in prof.backward_time.values())

    def test_super_call_is_timed_once(self):
        # SyncBatchNorm in eval mode runs BatchNorm's forward through super()
        model = mlp(6, [8], 3, batch_norm="sync")
        model.eval()
        prof = LayerProfiler(model)
        model.forward(np.zeros((4, 6)))
        assert len(prof.forward_time) == len(model.layers) == 4
        assert all(t.count == 1 for t in prof.forward_time.values())

    def test_detached_copy_drops_every_hook(self):
        from repro.nn import MemoryContext
        from repro.nn.memory import _detached_copy

        model = mlp(6, [8], 3)
        model.bind_memory(MemoryContext())
        LayerProfiler(model)
        assert all(layer._hooks for layer in model.layers) and model._hooks
        copy, _ = _detached_copy(model, None)
        assert all(m._hooks == () for m in copy.modules())
        assert all(m._memory is None for m in copy.modules())
        copy.forward(np.zeros((2, 6)))  # runs unhooked, on fresh arrays


class TestPlotting:
    def test_sparkline_monotone(self):
        s = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert s == "▁▂▃▄▅▆▇█"

    def test_sparkline_constant(self):
        assert len(sparkline([5, 5, 5])) == 3

    def test_sparkline_nan_blank(self):
        assert sparkline([1.0, float("nan"), 2.0])[1] == " "

    def test_ascii_plot_contains_markers_and_legend(self):
        chart = ascii_plot({
            "lars": [(256, 0.75), (32768, 0.75)],
            "sgd": [(256, 0.75), (32768, 0.55)],
        }, logx=True)
        assert "l = lars" in chart and "s = sgd" in chart
        assert "l" in chart.splitlines()[0] + chart.splitlines()[1]

    def test_ascii_plot_empty(self):
        assert ascii_plot({"a": []}) == "(no data)"

    def test_ascii_plot_single_point(self):
        chart = ascii_plot({"x": [(1.0, 1.0)]})
        assert "x = x" in chart

    def test_ascii_plot_logx_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_plot({"a": [(0.0, 1.0)]}, logx=True)

    def test_ascii_plot_filters_nonfinite(self):
        chart = ascii_plot({"a": [(1.0, 1.0), (float("nan"), 2.0), (2.0, 3.0)]})
        assert "a = a" in chart
