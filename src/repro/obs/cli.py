"""Command implementations behind ``repro trace <export|summary|validate>``.

Kept out of :mod:`repro.cli` (mirroring :mod:`repro.bench.runner`) so the
telemetry machinery stays importable and testable on its own, and so the
CLI only pays the import cost when a trace subcommand actually runs.

``repro trace export`` runs a small *traced* sync-SGD job — a 4-rank MLP on
Gaussian blobs over the Omni-Path α-β profile, with a seeded fault plan
armed (message loss + one straggler) — and writes the Chrome trace-event
JSON plus an optional metrics snapshot.  The resulting file opens directly
in ``chrome://tracing`` or Perfetto and shows the nested
``trainer.train_step`` → ``cluster.grad_sync`` → ``comm.allreduce`` spans
per rank thread with fault marks on the same timeline.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter as _TallyCounter

from . import disable, enable, export_metrics, export_trace, reset
from .console import get_console
from .metrics import MetricsSchemaError, validate_metrics_snapshot
from .trace import TraceSchemaError, get_tracer, validate_chrome_trace

__all__ = ["add_trace_parser", "cmd_trace", "run_traced_demo",
           "check_overlap_speedup"]

DEFAULT_TRACE_OUT = "trace.json"


def add_trace_parser(sub) -> None:
    """Attach the ``trace`` subcommand (``export``/``summary``/``validate``)."""
    p = sub.add_parser("trace", help="capture, summarise, or validate traces")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    exp = trace_sub.add_parser(
        "export",
        help="run a small traced sync-SGD job and write the Chrome trace JSON",
    )
    exp.add_argument("--out", default=DEFAULT_TRACE_OUT,
                     help=f"trace output path (default: {DEFAULT_TRACE_OUT})")
    exp.add_argument("--metrics-out", default=None,
                     help="also write a metrics snapshot (JSON) here")
    exp.add_argument("--world", type=int, default=4, help="simulated ranks")
    exp.add_argument("--epochs", type=int, default=2)
    exp.add_argument("--batch", type=int, default=32, help="global batch size")
    exp.add_argument("--examples", type=int, default=96, help="dataset size")
    exp.add_argument("--algorithm", default="ring",
                     choices=["tree", "ring", "rhd"])
    exp.add_argument("--drop-prob", type=float, default=0.02,
                     help="per-message loss probability of the armed fault plan")
    exp.add_argument("--straggler-mult", type=float, default=1.5,
                     help="slowdown of the straggling rank (1.0 disables)")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--bucket-bytes", type=int, default=None, metavar="N",
                     help="bucket the gradient exchange into ~N-byte buckets")
    exp.add_argument("--overlap", action="store_true",
                     help="overlap bucketed allreduces with backward compute "
                          "(the trace then shows cluster.bucket_sync spans)")
    exp.add_argument("--check-overlap-speedup", action="store_true",
                     help="also run the fault-free overlapped and monolithic "
                          "variants and fail unless overlap reduces "
                          "simulated_seconds (CI smoke of the overlap path)")

    summ = trace_sub.add_parser("summary", help="per-span-name statistics of a trace file")
    summ.add_argument("file", help="Chrome trace-event JSON to summarise")

    val = trace_sub.add_parser(
        "validate",
        help="schema-check trace/metrics JSON files; exit 1 on violation",
    )
    val.add_argument("files", nargs="+", help="trace or metrics JSON files")


def run_traced_demo(
    world: int = 4,
    epochs: int = 2,
    batch: int = 32,
    examples: int = 96,
    algorithm: str = "ring",
    drop_prob: float = 0.02,
    straggler_mult: float = 1.5,
    seed: int = 0,
    bucket_bytes: int | None = None,
    overlap: bool = False,
):
    """Run the small fault-armed sync-SGD job ``trace export`` captures.

    Telemetry must already be enabled; returns the :class:`ClusterResult`.
    The straggler guarantees at least one fault event lands in the trace
    even when the seeded message-loss draw stays quiet.
    """
    from ..cluster import SyncSGDConfig, train_sync_sgd
    from ..core import SGD, ConstantLR
    from ..data import gaussian_blobs
    from ..faults import FaultPlan
    from ..nn.models import mlp
    from ..perfmodel import network

    x, y = gaussian_blobs(examples, num_classes=3, dim=8, seed=seed)

    def builder():
        return mlp(8, [12], 3, seed=seed + 1)

    stragglers = {1 % world: straggler_mult} if straggler_mult != 1.0 else {}
    plan = FaultPlan(seed=seed, drop_prob=drop_prob, stragglers=stragglers)
    config = SyncSGDConfig(
        world=world,
        epochs=epochs,
        batch_size=batch,
        algorithm=algorithm,
        profile=network("opa"),
        compute_time=lambda k: 1e-4 * k,
        shuffle_seed=seed,
        fault_plan=plan,
        bucket_bytes=bucket_bytes,
        overlap=overlap,
    )
    return train_sync_sgd(
        builder,
        lambda p: SGD(p, momentum=0.9, weight_decay=0.0005),
        ConstantLR(0.1),
        x, y, x[: examples // 3], y[: examples // 3],
        config,
    )


def check_overlap_speedup(
    world: int = 4, algorithm: str = "tree", seed: int = 0
) -> tuple[float, float]:
    """Fault-free overlap-vs-monolithic comparison for CI smoke.

    Runs the same sync-SGD job twice — monolithic blocking exchange vs
    overlapped 16 KiB buckets — on a bandwidth-heavy α-β profile where
    backward compute can hide most of the allreduce.  The model is the
    micro ResNet proxy: its ~30 similar-sized tensors bucket evenly, the
    regime where overlap pays (one huge tensor would collapse the plan to
    a single exposed bucket).  Returns ``(monolithic_seconds,
    overlapped_seconds)``.  Fault-free so the comparison is exactly
    reproducible.
    """
    from ..cluster import SyncSGDConfig, train_sync_sgd
    from ..comm import NetworkProfile
    from ..core import SGD, ConstantLR
    from ..nn.models import micro_resnet
    import numpy as np

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(32, 3, 8, 8))
    y = rng.integers(0, 10, size=32)

    def builder():
        return micro_resnet(num_classes=10, seed=seed + 1)

    base = dict(
        world=world, epochs=1, batch_size=32, algorithm=algorithm,
        profile=NetworkProfile(alpha=1e-5, beta=1e-8),
        compute_time=lambda k: 2.5e-3 * k, shuffle_seed=seed,
    )
    opt = lambda p: SGD(p, momentum=0.9)  # noqa: E731
    sims = []
    for overlap in (False, True):
        cfg = SyncSGDConfig(
            **base, overlap=overlap,
            bucket_bytes=(1 << 14) if overlap else None,
        )
        res = train_sync_sgd(builder, opt, ConstantLR(0.1),
                             x, y, x[:8], y[:8], cfg)
        sims.append(res.simulated_seconds)
    return sims[0], sims[1]


def _cmd_export(args: argparse.Namespace) -> int:
    console = get_console()
    if args.world < 1:
        raise SystemExit("error: --world must be >= 1")
    enable()
    reset()
    try:
        result = run_traced_demo(
            world=args.world,
            epochs=args.epochs,
            batch=args.batch,
            examples=args.examples,
            algorithm=args.algorithm,
            drop_prob=args.drop_prob,
            straggler_mult=args.straggler_mult,
            seed=args.seed,
            bucket_bytes=args.bucket_bytes,
            overlap=args.overlap,
        )
        export_trace(args.out)
        if args.metrics_out:
            export_metrics(args.metrics_out)
    finally:
        disable()
    if args.check_overlap_speedup:
        mono_s, overlap_s = check_overlap_speedup(
            world=args.world, algorithm=args.algorithm, seed=args.seed
        )
        if not overlap_s < mono_s:
            console.error(
                f"overlap did not beat monolithic: {overlap_s:.6f}s vs "
                f"{mono_s:.6f}s simulated"
            )
            return 1
        console.info(
            f"overlap check: {mono_s:.4f}s monolithic -> {overlap_s:.4f}s "
            f"overlapped ({1 - overlap_s / mono_s:.1%} faster, simulated)"
        )
    tracer = get_tracer()
    console.info(
        f"traced {args.world}-rank sync-SGD run: "
        f"final test accuracy {result.final_test_accuracy:.4f}, "
        f"{result.messages} messages, "
        f"{len(tracer.spans)} spans, {len(tracer.instants)} events"
    )
    console.info(f"wrote {args.out} (open in chrome://tracing or ui.perfetto.dev)")
    if args.metrics_out:
        console.info(f"wrote {args.metrics_out}")
    reset()
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    console = get_console()
    with open(args.file) as fh:
        payload = json.load(fh)
    try:
        validate_chrome_trace(payload)
    except TraceSchemaError as exc:
        console.error(f"{args.file}: {exc}")
        return 1
    durations: dict[str, list[float]] = {}
    instants: _TallyCounter = _TallyCounter()
    for ev in payload["traceEvents"]:
        if ev["ph"] == "X":
            durations.setdefault(ev["name"], []).append(ev["dur"])
        elif ev["ph"] == "i":
            instants[ev["name"]] += 1
    console.info(f"{'span':<28}{'count':>8}{'total_ms':>12}{'mean_us':>12}")
    for name, durs in sorted(durations.items(), key=lambda kv: -sum(kv[1])):
        total_us = sum(durs)
        console.info(
            f"{name:<28}{len(durs):>8}{total_us / 1e3:>12.3f}"
            f"{total_us / len(durs):>12.1f}"
        )
    if instants:
        console.info("")
        console.info(f"{'instant event':<28}{'count':>8}")
        for name, count in instants.most_common():
            console.info(f"{name:<28}{count:>8}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    console = get_console()
    status = 0
    for path in args.files:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            console.error(f"{path}: {exc}")
            status = 1
            continue
        try:
            if isinstance(payload, dict) and "traceEvents" in payload:
                validate_chrome_trace(payload)
                kind = "trace"
            else:
                validate_metrics_snapshot(payload)
                kind = "metrics"
        except (TraceSchemaError, MetricsSchemaError) as exc:
            console.error(f"{path}: {exc}")
            status = 1
            continue
        console.info(f"{path}: ok ({kind})")
    return status


def cmd_trace(args: argparse.Namespace) -> int:
    """Dispatch ``repro trace <export|summary|validate>``."""
    commands = {"export": _cmd_export, "summary": _cmd_summary,
                "validate": _cmd_validate}
    return commands[args.trace_command](args)
