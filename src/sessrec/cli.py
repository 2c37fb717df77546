"""Command-line entry point: prep, train, eval, bench, export.

Human-readable progress goes to stderr; machine-readable results go to files.
Every run writes its fully resolved config next to its outputs so results can
be reproduced bit-exactly from the snapshot. The default data directory comes
from $SESSREC_DATA_DIR when --input is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import config as C
from . import data as D
from . import evaluate as E
from . import model as M
from . import sampler as S
from . import train as TR
from .errors import ConfigError, SessrecError

DATA_DIR_ENV = "SESSREC_DATA_DIR"


def log(message: str) -> None:
    print(message, file=sys.stderr)


def _export_metrics(epochs: list[dict], path) -> int:
    """Write the evaluated epochs of a report's `epochs` as metrics CSV rows;
    returns how many there were (none: no file is written)."""
    evaluated = [stats for stats in epochs if stats.get("eval")]
    if evaluated:
        k = evaluated[0]["eval"]["k"]
        series = [
            {
                "epoch": stats["epoch"],
                f"recall_at_{k}": stats["eval"]["recall_at_k"],
                f"mrr_at_{k}": stats["eval"]["mrr_at_k"],
                "wall_seconds": stats["wall_seconds"],
            }
            for stats in evaluated
        ]
        E.export_metrics(series, path, k=k)
    return len(evaluated)


def _evaluate(state: M.ModelState, dataset: D.PreparedDataset, config: dict) -> E.EvalResult:
    """Exhaustive eval of the test sessions under the `eval.*` keys."""
    return E.evaluate(
        state, dataset.test, k=config["eval.k"], batch_size=config["eval.batch_size"],
        chunk_size=config["eval.chunk_size"] or None, average=config["eval.average"],
    )


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (dotted keys)")
    parser.add_argument("--preset", default=None, choices=sorted(C.PRESETS),
                        help="experiment preset")
    for key in C.SCHEMA:
        parser.add_argument(f"--{key}", dest=key, default=None, metavar="V",
                            help=argparse.SUPPRESS)
    # spec-level aliases for the most common keys
    parser.add_argument("--seed", dest="train.seed", default=None, metavar="N")
    parser.add_argument("--epochs", dest="train.epochs", default=None, metavar="N")
    parser.add_argument("--input", dest="data.input", default=None, metavar="PATH")
    parser.add_argument("--min-support", dest="data.min_support", default=None, metavar="N")
    parser.add_argument("--min-len", dest="data.min_len", default=None, metavar="N")
    parser.add_argument("--holdout-days", dest="data.holdout_days", default=None, metavar="D")


def _resolve_config(args: argparse.Namespace) -> dict:
    base = C.load_config(args.config) if args.config else None
    overrides = {key: getattr(args, key) for key in C.SCHEMA if getattr(args, key, None) is not None}
    return C.resolve(base=base, preset=args.preset, overrides=overrides)


def _input_path(config: dict) -> Path:
    raw = config["data.input"] or os.environ.get(DATA_DIR_ENV)
    if raw is None:
        raise SessrecError(f"no input given: pass --input or set ${DATA_DIR_ENV}")
    return Path(raw)


def cmd_prep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = Path(args.output_dir)
    source = _input_path(config)
    log(f"parsing {source} ({config['data.format']})")
    stats = D.ParseStats()
    events = D.parse_events(source, format=config["data.format"],
                            strict=args.strict, stats=stats)
    dataset = D.prepare_dataset(
        events,
        min_support=config["data.min_support"],
        min_len=config["data.min_len"],
        holdout=int(config["data.holdout_days"] * 24 * 3600 * 1000),
        support_scope=config["data.support_scope"],
        fraction=config["data.fraction"],
        fraction_seed=config["train.seed"],
    )
    D.save_prepared(dataset, out)
    C.save_config(config, out / "resolved-config.json")
    manifest = dataset.manifest()
    log(f"parsed {stats.events} events ({stats.skipped} skipped)")
    log("manifest: " + json.dumps(manifest))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    out = Path(args.output_dir)
    dataset = D.load_prepared(_input_path(config))
    log(
        f"training on {len(dataset.train)} sessions, {dataset.catalog.n_items} items "
        f"(preset={config['train.preset'] or 'none'}, loss={config['loss']})"
    )
    out.mkdir(parents=True, exist_ok=True)
    C.save_config(config, out / "resolved-config.json")

    eval_hook = None
    if args.eval_every > 0:
        def eval_hook(state, epoch):
            if epoch % args.eval_every != 0 and epoch != config["train.epochs"]:
                return None
            result = _evaluate(state, dataset, config)
            log(f"epoch {epoch}: recall@{result.k}={result.recall_at_k:.4f} "
                f"mrr@{result.k}={result.mrr_at_k:.4f}")
            return result.to_dict()

    state, report = TR.train(config, dataset, eval_hook=eval_hook, out_dir=out)
    for stats in report.epochs:
        log(f"epoch {stats.epoch}: loss={stats.loss_mean:.5f} "
            f"wall={stats.wall_seconds:.2f}s ({stats.epochs_per_hour:.1f} epochs/h)")

    _export_metrics(report.to_dict()["epochs"], out / "metrics.csv")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    source = _input_path(config)
    dataset = D.load_prepared(source)
    state, extra = M.load_checkpoint(args.checkpoint)
    if "trainer.manifest" in extra:
        TR.check_checkpoint(args.checkpoint, extra, manifest=dataset.manifest())
    if state.config.n_items != dataset.catalog.n_items:
        # ids at or past the smaller size would be ranked wrongly or read as padding
        raise ConfigError(
            f"checkpoint {args.checkpoint} scores {state.config.n_items} items but the "
            f"cache {source} has a catalog of {dataset.catalog.n_items}"
        )
    result = _evaluate(state, dataset, config)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    C.save_config(config, out / "resolved-config.json")
    with D.atomic_write(out / "eval.json", "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    log(f"recall@{result.k}={result.recall_at_k:.4f} mrr@{result.k}={result.mrr_at_k:.4f} "
        f"over {result.n_transitions} transitions")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    granularities = [g.strip() for g in args.granularity.split(",") if g.strip()]
    rows = [
        S.throughput_benchmark(
            args.n_items, args.negs, gran, args.batch_size, args.seq_len,
            seed=args.seed, repeats=args.repeats,
        )
        for gran in granularities
    ]
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "params": {
            "negs": args.negs, "batch_size": args.batch_size, "seq_len": args.seq_len,
            "n_items": args.n_items, "repeats": args.repeats, "seed": args.seed,
        },
        "rows": rows,
    }
    with D.atomic_write(out / "bench.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    log(f"{'granularity':>12} {'draws/batch':>12} {'samples/sec':>14}")
    for row in rows:
        log(f"{row['granularity']:>12} {row['draws_per_batch']:>12} {row['samples_per_sec']:>14.3g}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    rows = _export_metrics(report["epochs"], args.output)
    if not rows:
        raise SessrecError(f"report {args.report} holds no evaluation entries")
    log(f"wrote {rows} rows to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sessrec",
        description="Session-based transformer recommender with optimized negative sampling",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    prep = sub.add_parser("prep", help="parse, filter, split, and cache a dataset")
    _add_config_flags(prep)
    prep.add_argument("--output-dir", required=True, type=Path)
    prep.add_argument("--strict", action="store_true",
                      help="fail on malformed records instead of skipping")
    prep.set_defaults(func=cmd_prep)

    tr = sub.add_parser("train", help="train a model on a prepared dataset")
    _add_config_flags(tr)
    tr.add_argument("--output-dir", required=True, type=Path)
    tr.add_argument("--eval-every", type=int, default=0, metavar="N",
                    help="run full evaluation every N epochs (0 = never)")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint exhaustively")
    _add_config_flags(ev)
    ev.add_argument("--checkpoint", required=True, type=Path)
    ev.add_argument("--output-dir", required=True, type=Path)
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="benchmark sampler throughput")
    bench.add_argument("--negs", type=int, default=8192)
    bench.add_argument("--granularity", default="batchwise,sessionwise,elementwise")
    bench.add_argument("--batch-size", type=int, default=128)
    bench.add_argument("--seq-len", type=int, default=50)
    bench.add_argument("--n-items", type=int, default=100_000)
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--output-dir", required=True, type=Path)
    bench.set_defaults(func=cmd_bench)

    ex = sub.add_parser("export", help="export metric curves from a train report")
    ex.add_argument("--report", required=True, type=Path)
    ex.add_argument("--output", required=True, type=Path)
    ex.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SessrecError as err:
        log(f"error: {err}")
        return 2
    except OSError as err:
        log(f"i/o error: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
