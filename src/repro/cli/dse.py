"""``repro dse`` — automated per-layer design-space exploration.

With ``--remote URL`` the campaign's candidate batches become jobs against
a running ``repro serve`` daemon (:class:`~repro.runtime.jobs.client.
RemotePlanEvaluator`): the search loop, the ledger keying and the Pareto
assembly are identical — only accuracy scoring crosses the wire, so
several campaigns (from several machines) can share one warm daemon and
its service-level result cache.
"""

from __future__ import annotations

import argparse
import json
import os

from repro.analysis.reporting import Table, pareto_front_table
from repro.core.seeding import SeedBank
from repro.models.zoo import MODEL_NAMES
from repro.simulation.campaign import (
    TrainedModelCache,
    TrainingSettings,
    default_cache_dir,
    experiment_dataset,
)

from repro.cli.common import (
    add_remote_flag,
    add_workers_flag,
    check_engine_backend,
    check_workers,
    cli_error,
    model_manifest_entries,
    subsampled_eval,
)


def _dse_model_names(args: argparse.Namespace) -> list[str]:
    """The models one ``repro dse`` invocation explores.

    ``--models`` (a list, or the ``all`` sentinel) selects a multi-model
    campaign served by one shared evaluation service; without it the
    single ``--model`` is explored, exactly as before.
    """
    if not args.models:
        return [args.model]
    if "all" in args.models:
        return list(MODEL_NAMES)
    return list(dict.fromkeys(args.models))


def _dse_json_payload(dataset, result) -> dict:
    best = result.best()
    return {
        "dataset": dataset.name,
        "strategy": result.strategy,
        "max_loss": result.max_loss,
        "baseline_accuracy": result.baseline_accuracy,
        "accurate_energy_nj": result.accurate_energy_nj,
        "energy_reduction_percent": result.energy_reduction_percent(),
        "best": None
        if best is None
        else {
            "label": best.label,
            "energy_nj": best.energy_nj,
            "accuracy": best.accuracy,
            "accuracy_loss": best.accuracy_loss,
        },
        "front": [
            {
                "label": p.label,
                "energy_nj": p.energy_nj,
                "accuracy": p.accuracy,
                "accuracy_loss": p.accuracy_loss,
            }
            for p in result.front.points()
        ],
        "stats": result.stats,
    }


def _check_remote_flags(args: argparse.Namespace) -> str | None:
    """Flags that would silently do nothing against a daemon are rejected.

    The daemon's measurement setup (eval split, calibration head, engine
    backend, worker pool) wins — mirroring how ``run_campaign`` rejects
    measurement knobs that conflict with an externally-owned service.
    """
    clashes = []
    if args.workers != 1:
        clashes.append("--workers")
    if args.subsample_eval is not None:
        clashes.append("--subsample-eval")
    if args.max_eval_images is not None:
        clashes.append("--max-eval-images")
    if args.calibration_images != 128:
        clashes.append("--calibration-images")
    if args.engine_backend is not None:
        clashes.append("--engine-backend")
    if args.no_prefix_reuse:
        clashes.append("--no-prefix-reuse")
    if not clashes:
        return None
    return (
        "--remote delegates evaluation to the daemon, whose measurement "
        "setup wins; incompatible flags: " + ", ".join(clashes)
    )


def cmd_dse(args: argparse.Namespace) -> int:
    # Late-validated names: clear one-line errors instead of tracebacks.
    from repro.dse import CampaignLedger, has_strategy, run_campaign, strategy_names
    from repro.multipliers.library import MultiplierLibrary

    if not has_strategy(args.strategy):
        return cli_error(
            f"unknown search strategy {args.strategy!r}; registered strategies: "
            f"{', '.join(strategy_names())}"
        )
    for error in (check_engine_backend(args.engine_backend), check_workers(args.workers)):
        if error is not None:
            return cli_error(error)
    if args.subsample_eval is not None:
        if args.max_eval_images is not None:
            return cli_error(
                "--subsample-eval and --max-eval-images are mutually exclusive: "
                "the subsample already determines the evaluation set size"
            )
        if args.subsample_eval < 1:
            return cli_error(
                f"--subsample-eval must be positive, got {args.subsample_eval}"
            )
    if args.remote is not None:
        error = _check_remote_flags(args)
        if error is not None:
            return cli_error(error)

    from repro.dse.engine import front_payload
    from repro.provenance import dataset_digest, record_run

    with record_run("dse", label="-".join(_dse_model_names(args))) as manifest:
        bank = SeedBank(args.seed)
        dataset = experiment_dataset(
            num_classes=args.classes,
            seed=bank.seed_for("dataset") if args.seed is not None else None,
        )
        cache = TrainedModelCache(cache_dir=args.cache_dir)
        settings = TrainingSettings(epochs=args.epochs)
        model_names = _dse_model_names(args)
        multi = len(model_names) > 1
        trained_models = [
            cache.load_or_train(name, dataset, settings, verbose=args.verbose)
            for name in model_names
        ]

        eval_images = eval_labels = None
        if args.subsample_eval is not None:
            eval_images, eval_labels = subsampled_eval(
                dataset, args.subsample_eval, bank
            )

        if args.no_ledger:
            ledger_dir = None
        else:
            ledger_dir = args.ledger or os.path.join(
                args.cache_dir or default_cache_dir(), "dse-ledger"
            )

        manifest.inputs.update(
            {
                "dataset": dataset.name,
                "dataset_digest": dataset_digest(dataset),
                "models": model_manifest_entries(trained_models, settings),
                "seed": args.seed,
                "strategy": args.strategy,
                "max_loss": args.max_loss,
                "budget_evals": args.budget_evals,
                "perforations": list(args.perforations),
                "array_size": args.array_size,
                "max_eval_images": args.max_eval_images,
                "subsample_eval": args.subsample_eval,
                "calibration_images": args.calibration_images,
                "engine_backend": args.engine_backend,
                "workers": args.workers,
                "reuse_prefix": not args.no_prefix_reuse,
                "ledger_dir": ledger_dir,
                "resume": args.resume,
                "remote": args.remote,
            }
        )

        library = (
            MultiplierLibrary.synthetic_evoapprox()
            if args.include_library > 0
            else None
        )

        # A multi-model campaign hosts every network in ONE evaluation
        # service: models and datasets are published once and the worker
        # pool (or the in-process serial state) is reused across the
        # sequential campaigns.  An eval subsample becomes the hosted
        # dataset's test split inside build_campaign_service, keeping
        # ledger context keys serial-identical.  With --remote the daemon
        # plays that role for every campaign instead.
        service = None
        remote_client = None
        if args.remote is not None:
            from repro.runtime.jobs import HttpJobClient

            remote_client = HttpJobClient(args.remote)
        elif multi:
            from repro.dse.engine import build_campaign_service

            service = build_campaign_service(
                trained_models,
                dataset,
                args.workers,
                max_eval_images=args.max_eval_images,
                calibration_images=args.calibration_images,
                engine_backend=args.engine_backend,
                reuse_prefix=not args.no_prefix_reuse,
                eval_images=eval_images,
                eval_labels=eval_labels,
            )

        results = []
        try:
            for trained in trained_models:
                evaluator = None
                if remote_client is not None:
                    from repro.runtime.jobs import RemotePlanEvaluator

                    try:
                        evaluator = RemotePlanEvaluator(
                            remote_client, trained.name, session="dse"
                        )
                    except KeyError as error:
                        manifest.status = "error"
                        manifest.error = f"KeyError: {error}"
                        return cli_error(str(error).strip('"\''))
                rng_stream = f"nsga2-{trained.name}" if multi else "nsga2"
                result = run_campaign(
                    trained,
                    dataset,
                    strategy=args.strategy,
                    max_loss=args.max_loss,
                    budget_evals=args.budget_evals,
                    evaluator=evaluator,
                    ledger=CampaignLedger(path=ledger_dir),
                    resume=args.resume,
                    rng=bank.generator(rng_stream),
                    max_eval_images=args.max_eval_images,
                    calibration_images=args.calibration_images,
                    engine_backend=args.engine_backend,
                    reuse_prefix=not args.no_prefix_reuse,
                    # The shared service already hosts any eval subsample as
                    # its dataset's test split; passing the arrays alongside
                    # `service` is rejected by run_campaign.
                    eval_images=None if service is not None else eval_images,
                    eval_labels=None if service is not None else eval_labels,
                    workers=args.workers,
                    service=service,
                    array_size=args.array_size,
                    perforations=tuple(args.perforations),
                    library=library,
                    max_library_candidates=args.include_library,
                )
                results.append((trained, result))
        except ValueError as error:
            # Campaign-configuration errors (exhaustive search on an
            # unbounded space, bad budget, ...) are user errors, not
            # tracebacks.
            manifest.status = "error"
            manifest.error = f"{type(error).__name__}: {error}"
            return cli_error(str(error))
        except RuntimeError as error:
            # The remote evaluator raises RuntimeError for operations a
            # daemon cannot serve (e.g. baseline strategies that drive a
            # local executor) and for transport failures mid-campaign.
            if remote_client is None:
                raise
            manifest.status = "error"
            manifest.error = f"{type(error).__name__}: {error}"
            return cli_error(str(error))
        finally:
            if service is not None:
                try:
                    # The session context goes into the manifest while the
                    # service is still alive (shared-block sizes and all).
                    # Best effort: a partially-started service may not have
                    # one, and that must not skip close() below.
                    manifest.inputs["service"] = service.session_context()
                except Exception:
                    pass
                finally:
                    service.close()

        # Each campaign's outputs: the front with its ledger record keys
        # and the stats block, whose context_key is the exact digest the
        # CampaignLedger keyed this campaign's records under.
        manifest.outputs["models"] = [
            {
                "model": trained.name,
                "baseline_accuracy": result.baseline_accuracy,
                "accurate_energy_nj": result.accurate_energy_nj,
                "energy_reduction_percent": result.energy_reduction_percent(),
                "front": front_payload(result),
                "stats": result.stats,
            }
            for trained, result in results
        ]

    if multi:
        if args.json:
            payload = {
                "models": [
                    {"model": trained.name, **_dse_json_payload(dataset, result)}
                    for trained, result in results
                ],
            }
            print(json.dumps(payload, indent=2))
            return 0
        table = Table(
            title=f"DSE campaigns on {dataset.name} "
            f"(strategy={results[0][1].strategy}, loss budget {args.max_loss:.2f}%, "
            f"workers={args.workers})",
            columns=[
                "model",
                "baseline acc",
                "evals",
                "front",
                "best energy nJ",
                "best loss %",
                "energy saved %",
            ],
        )
        for trained, result in results:
            best = result.best()
            reduction = result.energy_reduction_percent()
            table.add_row(
                trained.name,
                result.baseline_accuracy,
                result.stats["evaluations"],
                result.stats["front_size"],
                "-" if best is None else f"{best.energy_nj:.1f}",
                "-" if best is None else f"{best.accuracy_loss:+.2f}",
                "-" if reduction is None else f"{reduction:.1f}",
            )
        print(table.render(float_format="{:.3f}"))
        return 0

    result = results[0][1]
    best = result.best()
    if args.json:
        payload = {
            "model": results[0][0].name,
            **_dse_json_payload(dataset, result),
        }
        print(json.dumps(payload, indent=2))
        return 0

    stats = result.stats
    print(
        f"{results[0][0].name} on {dataset.name}: strategy={result.strategy} "
        f"space={stats['space_size']} evaluations={stats['evaluations']} "
        f"ledger_replays={stats['ledger_replays']} "
        f"wall={stats['wall_clock_s']:.1f}s"
    )
    print(
        f"quantized baseline accuracy {result.baseline_accuracy:.3f}, "
        f"accurate-design energy {result.accurate_energy_nj:.1f} nJ, "
        f"loss budget {result.max_loss:.2f}%"
    )
    print()
    table = pareto_front_table(
        result.front.points(), baseline_energy_nj=result.accurate_energy_nj
    )
    print(table.render(float_format="{:.3f}"))
    print()
    if best is None:
        print(f"no front point within the {result.max_loss:.2f}% loss budget")
    else:
        reduction = result.energy_reduction_percent()
        print(
            f"minimum-energy feasible point: {best.label} "
            f"({best.energy_nj:.1f} nJ, loss {best.accuracy_loss:+.2f}%, "
            f"{reduction:.1f}% energy below the accurate design)"
        )
    return 0


def register(sub) -> None:
    dse = sub.add_parser(
        "dse",
        help="automated design-space exploration of per-layer approximation "
        "(energy/accuracy Pareto front under a loss budget)",
    )
    dse.add_argument("--model", choices=MODEL_NAMES, default="vgg13")
    dse.add_argument(
        "--models",
        nargs="+",
        choices=MODEL_NAMES + ("all",),
        default=None,
        help="run one campaign per listed model (or 'all' for every "
        "reference network), all served by ONE shared evaluation service "
        "(models and datasets published once, one worker pool); overrides "
        "--model",
    )
    dse.add_argument("--classes", type=int, choices=(10, 100), default=10)
    dse.add_argument("--epochs", type=int, default=6)
    dse.add_argument(
        "--strategy",
        default="greedy",
        help="search strategy name (see repro.dse.strategy_names(): "
        "exhaustive, greedy, nsga2, or a one-call baseline); unknown "
        "names exit with a clear error",
    )
    dse.add_argument(
        "--max-loss",
        type=float,
        default=0.5,
        help="accuracy-loss budget in percentage points (paper headline: 0.5)",
    )
    dse.add_argument(
        "--budget-evals",
        type=int,
        default=None,
        help="cap on fresh accuracy evaluations (ledger replays are free)",
    )
    dse.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed of every stochastic path (dataset generation, eval "
        "subsampling, NSGA-II); distinct streams are derived per consumer",
    )
    dse.add_argument(
        "--resume",
        action="store_true",
        help="replay ledger records of a previous (possibly killed) campaign "
        "instead of re-evaluating plans",
    )
    dse.add_argument(
        "--ledger",
        default=None,
        help="campaign ledger directory (default: <cache-dir>/dse-ledger); "
        "records are always written so campaigns are resumable",
    )
    dse.add_argument(
        "--no-ledger", action="store_true", help="keep the ledger in memory only"
    )
    dse.add_argument("--array-size", type=int, default=64)
    dse.add_argument("--perforations", type=int, nargs="+", default=[1, 2, 3])
    dse.add_argument(
        "--include-library",
        type=int,
        default=0,
        metavar="N",
        help="add the N cheapest approximate-library multipliers as per-layer "
        "LUT candidates (each runs as one dense product per activation-bit "
        "group of its table)",
    )
    dse.add_argument("--max-eval-images", type=int, default=None)
    dse.add_argument(
        "--subsample-eval",
        type=int,
        default=None,
        metavar="N",
        help="evaluate on a seeded random subset of N test images (drawn "
        "from the --seed bank's eval-subsample stream)",
    )
    dse.add_argument("--calibration-images", type=int, default=128)
    add_workers_flag(dse)
    dse.add_argument(
        "--engine-backend",
        default=None,
        help="engine backend name (validated against the registry; unknown "
        "names exit with a clear error)",
    )
    dse.add_argument("--cache-dir", default=None)
    dse.add_argument("--no-prefix-reuse", action="store_true")
    dse.add_argument(
        "--json", action="store_true", help="emit the campaign result as JSON"
    )
    dse.add_argument("--verbose", action="store_true")
    add_remote_flag(dse)
    dse.set_defaults(func=cmd_dse)
