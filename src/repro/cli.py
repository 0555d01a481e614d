"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``train``
    Train a proxy model with any optimiser/recipe combination, serially or
    on a simulated cluster.
``predict``
    Query the α-β-γ performance model for an ImageNet-scale configuration.
``experiments``
    Alias for ``python -m repro.experiments``.
``info``
    Print the model zoo's cost table and the available devices/networks.
``bench``
    Run the microbenchmark suites (``bench run``) or diff two result sets
    against a regression threshold (``bench compare``); see
    ``docs/benchmarking.md``.
``trace``
    Capture a Chrome trace of a small sync-SGD run (``trace export``),
    summarise or schema-check trace/metrics files; see
    ``docs/observability.md``.

The global ``--quiet``/``--verbose`` flags (before the subcommand) set the
console log level: ``--quiet`` suppresses informational output, ``--verbose``
adds debug lines.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .obs.console import configure_verbosity, get_console


def _add_train_parser(sub) -> None:
    p = sub.add_parser("train", help="train a proxy model")
    p.add_argument("--model", default="micro_resnet",
                   choices=["micro_resnet", "micro_alexnet", "mlp"])
    p.add_argument("--optimizer", default="lars",
                   choices=["sgd", "lars", "lamb", "adam"])
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--base-batch", type=int, default=8)
    p.add_argument("--base-lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--warmup-epochs", type=float, default=1.0)
    p.add_argument("--trust", type=float, default=0.01)
    p.add_argument("--dataset", default="small", choices=["tiny", "small", "medium"])
    p.add_argument("--world", type=int, default=1,
                   help="simulated ranks (1 = serial)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bucket-bytes", type=int, default=None, metavar="N",
                   help="split the gradient exchange into ~N-byte buckets "
                        "(cluster runs; see repro.cluster.bucketing)")
    p.add_argument("--overlap", action="store_true",
                   help="overlap bucketed gradient allreduces with backward "
                        "compute (cluster runs; implies 1 MiB buckets unless "
                        "--bucket-bytes is given)")
    fault = p.add_argument_group(
        "fault injection (cluster runs only; see repro.faults)")
    fault.add_argument("--drop-prob", type=float, default=0.0,
                       help="per-message loss probability (reliable link "
                            "retransmits; time is lost, values are not)")
    fault.add_argument("--corrupt-prob", type=float, default=0.0,
                       help="per-message checksum-detected corruption "
                            "probability (treated as a loss)")
    fault.add_argument("--straggler", action="append", default=[],
                       metavar="RANK:MULT",
                       help="slow rank RANK down by MULT x (repeatable)")
    fault.add_argument("--kill", action="append", default=[],
                       metavar="RANK:ITER",
                       help="crash rank RANK at iteration ITER; survivors "
                            "restart from the last checkpoint (repeatable)")
    fault.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the deterministic fault sequence")
    fault.add_argument("--checkpoint-dir", default=None,
                       help="directory for periodic on-disk checkpoints "
                            "(atomic .npz; used by crash recovery)")
    mem = p.add_argument_group("static memory (see docs/architecture.md)")
    mem.add_argument("--static-memory", action="store_true",
                     help="record each step shape's buffer lifetimes once and "
                          "run every later step out of one packed slab "
                          "(bitwise-identical results, zero steady-state "
                          "allocations)")
    mem.add_argument("--check-zero-alloc", action="store_true",
                     help="after training, run one extra epoch (short batch "
                          "and evaluation included) and fail unless the slab "
                          "did not grow, every step shape's slab bytes "
                          "equal MemoryPlan's prediction and no evaluation "
                          "plan outgrows the largest train-step plan (implies "
                          "--static-memory; serial runs only)")
    obs = p.add_argument_group("telemetry (see docs/observability.md)")
    obs.add_argument("--trace", default=None, metavar="PATH",
                     help="capture spans and write Chrome trace-event JSON "
                          "here (open in chrome://tracing or Perfetto)")
    obs.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write a metrics snapshot (JSON) here after the run")


def _parse_rank_map(pairs: list[str], flag: str, cast) -> dict[int, float | int]:
    """Parse repeated ``RANK:VALUE`` options into a dict."""
    out = {}
    for pair in pairs:
        try:
            rank_s, value_s = pair.split(":", 1)
            out[int(rank_s)] = cast(value_s)
        except ValueError:
            raise SystemExit(
                f"error: {flag} expects RANK:VALUE (got {pair!r})"
            ) from None
    return out


def _add_predict_parser(sub) -> None:
    p = sub.add_parser("predict", help="predict ImageNet training time")
    p.add_argument("--model", default="resnet50",
                   choices=["alexnet", "alexnet_bn", "resnet50", "resnet18", "resnet34"])
    p.add_argument("--epochs", type=int, default=90)
    p.add_argument("--batch", type=int, default=32768)
    p.add_argument("--processors", type=int, default=2048)
    p.add_argument("--device", default="knl")
    p.add_argument("--network", default="opa")
    p.add_argument("--algorithm", default="ring", choices=["tree", "ring", "rhd"])


def cmd_train(args) -> int:
    """``repro train``: train a proxy model, serially or on simulated ranks."""
    from .core import LAMB, LARS, SGD, Adam, iterations_per_epoch, paper_schedule
    from .core.trainer import Trainer
    from .data import proxy_dataset
    from .nn.models import build_model

    console = get_console()
    telemetry = bool(args.trace or args.metrics_out)
    if telemetry:
        from .obs import enable, reset

        enable()
        reset()

    static_memory = bool(args.static_memory or args.check_zero_alloc)
    if args.check_zero_alloc and args.world > 1:
        raise SystemExit("error: --check-zero-alloc requires a serial run "
                         "(--world 1); per-rank slabs are not inspectable "
                         "after a cluster run")

    ds = proxy_dataset(args.dataset)
    kwargs = {"num_classes": ds.num_classes, "seed": args.seed}
    if args.model == "micro_alexnet":
        kwargs["image_size"] = ds.input_shape[-1]
    if args.model == "mlp":
        kwargs.update(in_features=int(np.prod(ds.input_shape)), hidden=[64],
                      flatten_input=True)

    def builder():
        """The run's model: the serial trainer's, and each rank's replica."""
        return build_model(args.model, **kwargs)

    model = builder()

    peak = args.base_lr * args.batch / args.base_batch
    ipe = iterations_per_epoch(ds.n_train, min(args.batch, ds.n_train))
    schedule = paper_schedule(peak, args.epochs * ipe,
                              round(args.warmup_epochs * ipe))
    builders = {
        "sgd": lambda p: SGD(p, momentum=0.9, weight_decay=0.0005),
        "lars": lambda p: LARS(p, trust_coefficient=args.trust,
                               momentum=0.9, weight_decay=0.0005),
        "lamb": lambda p: LAMB(p, weight_decay=0.0005),
        "adam": lambda p: Adam(p, weight_decay=0.0005),
    }
    opt_builder = builders[args.optimizer]

    console.info(f"{args.model}: {model.num_parameters():,} parameters; "
                 f"batch {args.batch} ({args.batch / args.base_batch:.0f}x baseline), "
                 f"peak lr {peak:.3g}, {args.optimizer}")

    if args.world > 1:
        from .cluster import SyncSGDConfig, train_sync_sgd

        stragglers = _parse_rank_map(args.straggler, "--straggler", float)
        kills = _parse_rank_map(args.kill, "--kill", int)
        fault_plan = None
        if (args.drop_prob > 0 or args.corrupt_prob > 0
                or stragglers or kills):
            from .faults import FaultPlan

            fault_plan = FaultPlan(seed=args.fault_seed,
                                   drop_prob=args.drop_prob,
                                   corrupt_prob=args.corrupt_prob,
                                   stragglers=stragglers, kills=kills)

        config = SyncSGDConfig(world=args.world, epochs=args.epochs,
                               batch_size=args.batch, shuffle_seed=args.seed,
                               bucket_bytes=args.bucket_bytes,
                               overlap=args.overlap,
                               fault_plan=fault_plan,
                               checkpoint_dir=args.checkpoint_dir,
                               static_memory=static_memory)
        res = train_sync_sgd(builder, opt_builder, schedule,
                             ds.x_train, ds.y_train, ds.x_test, ds.y_test, config)
        console.info(f"final test accuracy: {res.final_test_accuracy:.4f} "
                     f"({args.world} simulated ranks, {res.messages} messages)")
        if args.overlap or args.bucket_bytes is not None:
            console.info(
                f"gradient exchange: exposed {res.exposed_comm_seconds:.4f}s "
                f"of {res.comm_busy_seconds:.4f}s busy "
                f"(overlap efficiency {res.overlap_efficiency:.1%})")
        if res.fault_stats is not None:
            console.info(f"faults: {res.fault_stats.summary()}")
            for report in res.fault_reports:
                console.info(report.format())
    else:
        trainer = Trainer(model, opt_builder(model.parameters()), schedule,
                          shuffle_seed=args.seed, static_memory=static_memory)
        batch_size = min(args.batch, ds.n_train)
        with np.errstate(all="ignore"):
            res = trainer.fit(ds.x_train, ds.y_train, ds.x_test, ds.y_test,
                              epochs=args.epochs,
                              batch_size=batch_size,
                              callback=lambda r: console.info(
                                  f"  epoch {r.epoch:3d}  loss {r.train_loss:7.4f}  "
                                  f"test {r.test_accuracy:.4f}"))
        console.info(f"peak test accuracy: {res.peak_test_accuracy:.4f}")
        if args.check_zero_alloc and not _check_zero_alloc(trainer, ds, batch_size):
            return 1

    if telemetry:
        from .obs import disable, export_metrics, export_trace, reset

        if args.trace:
            export_trace(args.trace)
            console.info(f"wrote trace {args.trace} "
                         f"(open in chrome://tracing or ui.perfetto.dev)")
        if args.metrics_out:
            export_metrics(args.metrics_out)
            console.info(f"wrote metrics {args.metrics_out}")
        disable()
        reset()
    return 0


def _check_zero_alloc(trainer, ds, batch_size: int) -> bool:
    """One extra epoch must not grow the slab, every recorded step shape's
    slab bytes must equal :class:`MemoryPlan`'s prediction, and no
    evaluation plan may need more slab than the largest train-step plan."""
    from .nn.memory import MemoryPlan

    console = get_console()
    before = trainer.arena_stats()["bytes_allocated"]
    with np.errstate(all="ignore"):
        trainer.fit(ds.x_train, ds.y_train, ds.x_test, ds.y_test,
                    epochs=1, batch_size=batch_size)
    stats = trainer.arena_stats()
    grown = stats["bytes_allocated"] - before
    exact = True
    pools = {True: 0, False: 0}  # largest slab of a train-step/evaluation plan
    for plan in trainer.memory.plans.values():
        kind = "train-step" if plan.training else "evaluation"
        predicted = MemoryPlan.build(trainer.model, ds.input_shape, plan.batch_size,
                                     loss=trainer.loss, training=plan.training)
        exact &= predicted.pool_bytes == plan.pool_bytes
        pools[plan.training] = max(pools[plan.training], plan.pool_bytes)
        console.info(f"  {kind} plan, batch {plan.batch_size}: slab "
                     f"{plan.pool_bytes:,} bytes (live peak {plan.peak_bytes:,}); "
                     f"MemoryPlan predicts {predicted.pool_bytes:,} "
                     f"(live peak {predicted.peak_bytes:,})")
    console.info(f"slab: {stats['pool_bytes']:,} bytes for "
                 f"{len(trainer.memory.plans)} step shapes, {grown:,} bytes "
                 f"allocated over one extra epoch; largest evaluation plan "
                 f"{pools[False]:,} bytes, largest train-step plan {pools[True]:,}")
    if grown or not exact or pools[False] > pools[True]:
        console.info("zero-alloc check FAILED")
        return False
    console.info("zero-alloc check passed")
    return True


def cmd_predict(args) -> int:
    """``repro predict``: query the performance model for one configuration."""
    from .core import IMAGENET_TRAIN_SIZE
    from .nn.models import paper_model_cost
    from .perfmodel import device, estimate_training_time, network

    est = estimate_training_time(
        paper_model_cost(args.model),
        epochs=args.epochs,
        dataset_size=IMAGENET_TRAIN_SIZE,
        global_batch=args.batch,
        processors=args.processors,
        device=device(args.device),
        net=network(args.network),
        algorithm=args.algorithm,
    )
    b = est.iteration
    console = get_console()
    console.info(f"{args.model}, {args.epochs} epochs, batch {args.batch}, "
                 f"{args.processors}x {est.device}, {args.algorithm} allreduce")
    console.info(f"  iterations:        {est.iterations:,}")
    console.info(f"  local batch:       {b.local_batch:.1f}")
    console.info(f"  t_iter:            {b.total_seconds * 1e3:.1f} ms "
                 f"(compute {b.compute_seconds * 1e3:.1f} + comm {b.comm_seconds * 1e3:.1f})")
    console.info(f"  comm fraction:     {b.comm_fraction:.1%}")
    console.info(f"  throughput:        {est.images_per_second:,.0f} images/s")
    console.info(f"  total time:        {est.total_minutes:.1f} minutes "
                 f"({est.total_hours:.2f} h)")
    return 0


def cmd_info(args) -> int:
    """``repro info``: print the model/device/network tables."""
    from .nn.models import PAPER_INPUT_SHAPES, paper_model_cost
    from .perfmodel import DEVICES, NETWORKS

    console = get_console()
    console.info("== model zoo (full-size paper models) ==")
    for name in PAPER_INPUT_SHAPES:
        c = paper_model_cost(name)
        console.info(f"  {name:<12} {c.parameters / 1e6:7.1f} M params   "
                     f"{c.flops_per_image / 1e9:6.2f} Gflop/image   "
                     f"ratio {c.scaling_ratio:7.1f}")
    console.info("\n== devices ==")
    for key, d in DEVICES.items():
        console.info(f"  {key:<9} {d.name:<28} peak {d.peak_flops / 1e12:5.1f} Tflops")
    console.info("\n== networks ==")
    for key, n in NETWORKS.items():
        console.info(f"  {key:<9} {n.name:<28} alpha {n.alpha * 1e6:5.2f} us  "
                     f"beta {n.beta * 1e9:5.3f} ns/B")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Console entry point (see module docstring for the commands)."""
    from .bench.runner import add_bench_parser, cmd_bench
    from .obs.cli import add_trace_parser, cmd_trace

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only show warnings and errors")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also show debug output")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train_parser(sub)
    _add_predict_parser(sub)
    sub.add_parser("info", help="print model/device/network tables")
    add_bench_parser(sub)
    add_trace_parser(sub)
    args = parser.parse_args(argv)
    configure_verbosity(quiet=args.quiet, verbose=args.verbose)
    commands = {"train": cmd_train, "predict": cmd_predict, "info": cmd_info,
                "bench": cmd_bench, "trace": cmd_trace}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
