"""Command-line entry point.

Subcommands: ``gen`` (phantom datasets), ``reformat`` (synthetic volume ->
curved reformation), ``train`` (staged pipeline over folds), ``eval``
(probe or classifier protocol), ``project`` (2D embedding scatter).
Results go to files under --out, logs to stderr, summaries to stdout.
Every run writes a ``run.json`` echoing the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import phantom
from .atomic import atomic_open, canonical_json
from .backbone import HEAD_CLASSIFIER, HEAD_EMBEDDING, NetworkConfig, load_model, save_model
from .data import load_patch_set
from .evaluation import PROBE_STEPS, embed_samples, evaluate_folds, projection_csv, projection_svg, project_2d
from .mining import GRADES, GradeLabel, folds_from_json, folds_to_json, make_folds
from .pipeline import (
    STAGE_FRACTURE,
    STAGE_LABEL,
    STAGE_LOSSES,
    STAGE_ORDER,
    STAGE_REPRESENTATION,
    PipelineConfig,
    run_pipeline,
)

# --stages tokens, in stage order: the stage each one adds and its loss.
_STAGE_TOKENS = {
    "label": (STAGE_LABEL, "contrastive"),
    **{loss: (STAGE_REPRESENTATION, loss) for loss in STAGE_LOSSES[STAGE_REPRESENTATION]},
    "fracture": (STAGE_FRACTURE, "cross_entropy"),
}

# Fold defaults of `train` and of the probe protocol of `eval`.
_DEFAULT_FOLDS = 15
_DEFAULT_TEST_FRACTION = 0.25

log = logging.getLogger("spinemetric")

NETWORK_PRESETS = {
    "full": NetworkConfig(),
    "reduced": NetworkConfig(input_size=28, conv_channels=(8, 16), linear_dims=(32, 8)),
    "tiny": NetworkConfig(input_size=16, conv_channels=(6, 12), linear_dims=(24, 8)),
}


def _write_text(path: Path, text: str) -> None:
    """Replace ``path`` atomically with ``text``, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def _write_json(path: Path, doc) -> None:
    _write_text(path, canonical_json(doc) + "\n")


def _load_dataset(dataset):
    """(manifest, entries, manifest path) of a dataset directory or manifest file; see read_manifest."""
    p = Path(dataset)
    if p.is_dir():
        p = p / "manifest.json"
    if not p.exists():
        raise FileNotFoundError(
            f"dataset manifest not found at {p}; run `spinemetric gen` first "
            f"or pass the manifest path explicitly"
        )
    return (*phantom.formats.read_manifest(p), p)


# --- gen ---------------------------------------------------------------

# The preset options of `gen`, with their defaults; --counts takes neither.
_GEN_PRESET_OPTIONS = {"preset": "paper-ratio", "scale": 1.0}


def _parse_grade(name: str, where: str) -> GradeLabel:
    try:
        return GradeLabel[name.strip().upper()]
    except KeyError:
        valid = ", ".join(g.name.lower() for g in GRADES)
        raise ValueError(f"{where}: unknown grade {name.strip()!r} (valid grades: {valid})") from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} is not an integer") from None


def _parse_counts(text: str) -> dict:
    """Per-grade totals from ``g0=100,g2=30,g3=10``; unnamed grades get 0."""
    totals = {}
    for token in text.split(","):
        name, sep, value = token.partition("=")
        where = f"--counts token {token!r}"
        if not sep:
            raise ValueError(f"{where} is not of the form grade=count")
        grade = _parse_grade(name, where)
        if grade in totals:
            raise ValueError(f"{where}: grade {name.strip()!r} is given more than once")
        totals[grade] = _parse_int(value, f"{where}: count")
    return {g: totals.get(g, 0) for g in GRADES}


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    if args.counts is not None:
        for option in ("preset", "scale"):
            if getattr(args, option) is not None:
                raise ValueError(f"--counts does not take --{option}: the counts give every grade's total")
        totals = _parse_counts(args.counts)
        if any(v < 0 for v in totals.values()):
            raise ValueError("counts must be nonnegative")
        counts = phantom.counts_at_ratio(totals, scale=1.0)
    else:
        for option, default in _GEN_PRESET_OPTIONS.items():
            if getattr(args, option) is None:
                setattr(args, option, default)
        if not math.isfinite(args.scale):
            raise ValueError(f"--scale must be a finite number, got {args.scale}")
        if args.preset != "paper-ratio":
            raise ValueError(f"unknown preset {args.preset!r}")
        if args.scale <= 0:
            raise ValueError(f"--scale must be positive, got {args.scale}")
        counts = phantom.counts_at_ratio(phantom.PAPER_GRADE_TOTALS, scale=args.scale)

    total = sum(counts.values())
    if total <= 0:
        raise ValueError("requested dataset is empty (count 0)")
    log.info("generating %d samples into %s", total, out_dir)

    manifest = phantom.stream_dataset(phantom.PhantomConfig(seed=args.seed), counts, args.seed, out_dir)
    digest = phantom.manifest_digest(manifest)
    _write_json(
        out_dir / "run.json",
        {
            "command": "gen",
            "seed": args.seed,
            "preset": args.preset,
            "scale": args.scale,
            "counts": args.counts,
            "total": total,
            "manifest_digest": digest,
        },
    )
    print(digest)
    return 0


# --- reformat ------------------------------------------------------------


def cmd_reformat(args) -> int:
    if not math.isfinite(args.curvature):
        raise ValueError(f"--curvature must be a finite number, got {args.curvature}")
    out_dir = Path(args.out)
    grades = None if args.grades is None else [_parse_grade(g, "--grades") for g in args.grades.split(",")]
    if not 3 <= args.vertebrae <= len(phantom.SPINE_NAMES):  # a curved reformation needs 3 centroids
        raise ValueError(f"--vertebrae must lie in [3, {len(phantom.SPINE_NAMES)}], got {args.vertebrae}")
    if grades is None:
        rng = np.random.default_rng([args.seed, 555])
        grades = [GradeLabel(int(rng.choice([0, 0, 0, 2, 3]))) for _ in range(args.vertebrae)]
    elif len(grades) != args.vertebrae:
        raise ValueError("--grades length must equal --vertebrae")

    config = phantom.PhantomConfig(seed=args.seed)
    volume = phantom.generate_spine_volume(
        config, n_vertebrae=args.vertebrae, curvature=args.curvature, grades=grades, seed=args.seed
    )
    reformation = phantom.reformat_curved(volume)

    out_dir.mkdir(parents=True, exist_ok=True)
    phantom.write_volume(out_dir / "volume.vvol", volume)
    phantom.write_sample_tensor(out_dir / "reformation.vpat", reformation.image[None])
    centroid_doc = {
        "labels": reformation.labels,
        "centroids_rc": [[r, c] for r, c in reformation.centroids_rc],
        "out_of_bounds_fraction": float(reformation.out_of_bounds.mean()),
    }
    _write_json(out_dir / "centroids.json", centroid_doc)
    _write_json(
        out_dir / "run.json",
        {
            "command": "reformat",
            "seed": args.seed,
            "vertebrae": args.vertebrae,
            "curvature": args.curvature,
            "grades": [int(g) for g in grades],
            "rows": int(reformation.image.shape[0]),
            "cols": int(reformation.image.shape[1]),
        },
    )
    print(f"reformation {reformation.image.shape[0]}x{reformation.image.shape[1]}")
    return 0


# --- train ---------------------------------------------------------------


def _build_pipeline_config(args) -> PipelineConfig:
    config = PipelineConfig(network=NETWORK_PRESETS[args.network], seed=args.seed)
    if args.stages is not None:
        tokens = [t.strip() for t in args.stages.split(",") if t.strip()]
        unknown = [t for t in tokens if t not in _STAGE_TOKENS]
        if unknown:
            raise ValueError(f"unknown stage tokens: {unknown}")
        if not tokens:
            raise ValueError("--stages selected no stages")
        # One rule covers a repeated token, two representation losses and a wrong order.
        order = [STAGE_ORDER.index(_STAGE_TOKENS[t][0]) for t in tokens]
        for k in range(1, len(tokens)):
            if order[k] <= order[k - 1]:
                raise ValueError(f"--stages token {tokens[k]!r} comes after {tokens[k - 1]!r}; "
                                 "stages run once each, in the order label, representation loss, fracture")
        # Epochs and batch size come from the default plan of the same stage.
        defaults = {p.stage: p for p in config.stages}
        plans = [replace(defaults[stage], loss_kind=loss) for stage, loss in map(_STAGE_TOKENS.get, tokens)]
        config = replace(config, stages=tuple(plans))
    if args.epochs is not None:
        counts = [_parse_int(v, "--epochs token") for v in args.epochs.split(",")]
        if min(counts) < 0:
            raise ValueError(f"--epochs token {min(counts)} must be at least 0")
        if len(counts) != len(config.stages):
            raise ValueError(f"--epochs needs {len(config.stages)} comma-separated values")
        config = replace(config, stages=tuple(replace(p, epochs=e) for p, e in zip(config.stages, counts)))
    return config


def _check_split(n_folds, test_fraction) -> None:
    """Refuse, by its flag, a fold count or test fraction that ``make_folds`` would."""
    if n_folds < 1:
        raise ValueError(f"--folds must be at least 1, got {n_folds}")
    if not 0 < test_fraction < 1:
        raise ValueError(f"--test-fraction must lie in (0, 1), got {test_fraction}")


def _train_one_fold(data, config, fold, out_dir):
    """Train and score one fold into ``out_dir/fold_NN``; also the worker
    of fold-level parallelism."""
    fold_dir = Path(out_dir) / f"fold_{fold.fold_id:02d}"
    fold_dir.mkdir(parents=True, exist_ok=True)

    model, metrics, records = run_pipeline(config, data, fold, checkpoint_dir=fold_dir)
    save_model(model, fold_dir / "final.gmck")
    record_doc = {
        "seed": config.seed,
        "config_digest": hashlib.sha256(config.to_json().encode()).hexdigest(),
        "fold_id": fold.fold_id,
        "stages": [r.to_dict() for r in records],
    }
    _write_json(fold_dir / "records.json", record_doc)
    _write_json(fold_dir / "metrics.json", metrics.to_dict())
    return fold.fold_id, metrics.to_dict()


def cmd_train(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    manifest, entries, manifest_path = _load_dataset(args.dataset)
    config = _build_pipeline_config(args)
    _check_split(args.folds, args.test_fraction)
    data = load_patch_set(entries, config.network.input_size)
    out_dir = Path(args.out)

    folds = make_folds(data.grades, n_folds=args.folds, test_fraction=args.test_fraction, seed=config.seed)
    _write_text(out_dir / "folds.json", folds_to_json(folds) + "\n")

    _write_json(
        out_dir / "run.json",
        {
            "command": "train",
            "dataset": str(manifest_path),
            "dataset_digest": phantom.manifest_digest(manifest),
            "pipeline": config.to_dict(),
            "folds": args.folds,
            "test_fraction": args.test_fraction,
            "jobs": args.jobs,
        },
    )

    # A process pool starts all of its workers at the first submit.
    workers = min(args.jobs, len(folds))
    parallel = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with parallel or contextlib.nullcontext():
        run = parallel.map if parallel else map
        for fold_id, metrics in run(_train_one_fold, repeat(data), repeat(config), folds, repeat(out_dir)):
            log.info("fold %d done: f1=%.3f", fold_id, metrics["f1"])
    print(json.dumps({"folds_trained": len(folds)}))
    return 0


# --- eval ----------------------------------------------------------------


def _print_summary_table(title: str, name: str, summary) -> None:
    m, s = summary.mean, summary.std
    print(title)
    print(f"{'Setup':<16} {'SN':>12} {'SP':>12} {'F1':>12}")
    print(
        f"{name:<16} "
        f"{100 * m['sensitivity']:5.1f} ± {100 * s['sensitivity']:4.1f} "
        f"{100 * m['specificity']:5.1f} ± {100 * s['specificity']:4.1f} "
        f"{100 * m['f1']:5.1f} ± {100 * s['f1']:4.1f}"
    )


# The probe protocol's fold and probe options, with their defaults. The
# classify protocol reads its folds from the run and fits no probe.
_PROBE_OPTIONS = {"folds": _DEFAULT_FOLDS, "test_fraction": _DEFAULT_TEST_FRACTION,
                  "probe_steps": PROBE_STEPS, "seed": 0}


def _check_protocol_options(args) -> None:
    """Refuse, by flag and before any file is read, an option that the
    protocol needs and lacks or that only the other protocol takes."""
    if args.protocol == "probe":
        if not args.checkpoint:
            raise ValueError("--protocol probe requires --checkpoint")
        foreign = {"run": "it evaluates --checkpoint"}
    else:
        if not args.run:
            raise ValueError("--protocol classify requires --run (a train output dir)")
        foreign = {"checkpoint": "its checkpoints come from --run",
                   **dict.fromkeys(_PROBE_OPTIONS, "its folds come from --run")}
    for option, why in foreign.items():
        if getattr(args, option) is not None:
            raise ValueError(f"--protocol {args.protocol} does not take --{option.replace('_', '-')}: {why}")


def _protocol_folds(args, grades):
    """The protocol's folds, one checkpoint path per fold, the head those
    checkpoints must carry, and the name of the evaluated setup. Fills in
    the probe options' defaults on ``args``."""
    if args.protocol == "probe":
        for option, default in _PROBE_OPTIONS.items():
            if getattr(args, option) is None:
                setattr(args, option, default)
        if args.probe_steps < 1:
            raise ValueError(f"--probe-steps must be at least 1, got {args.probe_steps}")
        _check_split(args.folds, args.test_fraction)
        folds = make_folds(grades, n_folds=args.folds, test_fraction=args.test_fraction, seed=args.seed)
        path = Path(args.checkpoint)
        return folds, [path] * len(folds), HEAD_EMBEDDING, path.stem
    folds_path = Path(args.run) / "folds.json"
    try:
        folds = folds_from_json(folds_path.read_text(), n_samples=len(grades))
    except ValueError as exc:
        raise ValueError(f"{folds_path}: {exc}") from None
    paths = [folds_path.parent / f"fold_{f.fold_id:02d}" / "final.gmck" for f in folds]
    return folds, paths, HEAD_CLASSIFIER, folds_path.parent.name


def _check_run_dataset(run_dir: Path, manifest_path: Path, manifest: dict) -> None:
    """Refuse a dataset other than the one that ``run_dir`` was trained on."""
    run_json = run_dir / "run.json"
    try:
        trained_on = json.loads(run_json.read_bytes().decode("utf-8"))["dataset_digest"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{run_json}: no dataset_digest to check {manifest_path} against ({exc!r})") from None
    if trained_on != phantom.manifest_digest(manifest):
        raise ValueError(f"{manifest_path} is not the dataset that {run_json} was trained on")


def _load_checkpoint(path, head, use):
    """The model at ``path``, refused unless it carries the ``head`` that ``use`` needs."""
    model = load_model(path)
    if model.head != head:
        raise ValueError(f"{path}: {use} needs the {head} head, not {model.head}")
    return model


def cmd_eval(args) -> int:
    _check_protocol_options(args)
    manifest, entries, manifest_path = _load_dataset(args.dataset)
    out_dir = Path(args.out)

    folds, paths, head, name = _protocol_folds(args, [f["grade"] for _, f in entries])
    if args.protocol == "classify":
        _check_run_dataset(Path(args.run), manifest_path, manifest)
    use = f"--protocol {args.protocol}"
    models = {path: _load_checkpoint(path, head, use) for path in dict.fromkeys(paths)}
    data = load_patch_set(entries, next(iter(models.values())).config.input_size)
    summary = evaluate_folds([models[p] for p in paths], data, folds, n_steps=args.probe_steps)

    _write_json(out_dir / "metrics.json", summary.to_dict())
    _write_json(
        out_dir / "run.json",
        {
            "command": "eval",
            "protocol": args.protocol,
            "dataset": str(manifest_path),
            "checkpoint": args.checkpoint,
            "run": args.run,
            "folds": len(summary.folds),
            "test_fraction": args.test_fraction,
            "probe_steps": args.probe_steps,
            "seed": args.seed,
        },
    )
    _print_summary_table(f"protocol={args.protocol}", name, summary)
    return 0


# --- project -------------------------------------------------------------


def cmd_project(args) -> int:
    _, entries, manifest_path = _load_dataset(args.dataset)
    model = _load_checkpoint(args.checkpoint, HEAD_EMBEDDING, "project")
    out_dir = Path(args.out)

    ids = [f["id"] for _, f in entries]
    data = load_patch_set(entries, model.config.input_size)
    coords = project_2d(embed_samples(model, data))

    _write_text(out_dir / "projection.csv", projection_csv(ids, data.grades, coords))
    _write_text(out_dir / "projection.svg", projection_svg(data.grades, coords))
    _write_json(
        out_dir / "run.json",
        {
            "command": "project",
            "dataset": str(manifest_path),
            "checkpoint": args.checkpoint,
            "samples": len(data),
        },
    )
    print(f"projected {len(data)} embeddings")
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinemetric",
        description="Grade-aware metric learning on vertebra phantoms",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0, help="log more (-v, -vv)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a phantom patch dataset")
    p.add_argument("--preset", help="dataset preset (default paper-ratio)")
    p.add_argument("--scale", type=float, help="scale factor on preset class totals (default 1.0)")
    p.add_argument("--counts", help="explicit per-grade totals, e.g. g0=100,g2=30,g3=10; "
                                    "takes no --preset or --scale")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reformat", help="synthesize a spine volume and reformat it")
    p.add_argument("--vertebrae", type=int, default=17)
    p.add_argument("--curvature", type=float, default=0.3)
    p.add_argument("--grades", help="comma list of per-vertebra grades (g0/g2/g3)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reformat)

    p = sub.add_parser("train", help="run the staged training pipeline over folds")
    p.add_argument("--dataset", required=True, help="dataset directory or manifest.json")
    p.add_argument("--stages", help="comma list, in this order: label, one of contrastive/triplet/grading, fracture")
    p.add_argument("--epochs", help="comma list of per-stage epoch counts")
    p.add_argument("--network", choices=sorted(NETWORK_PRESETS), default="full",
                   help="network preset (default full)")
    p.add_argument("--folds", type=int, default=_DEFAULT_FOLDS, help=f"number of folds (default {_DEFAULT_FOLDS})")
    p.add_argument("--test-fraction", type=float, default=_DEFAULT_TEST_FRACTION,
                   help=f"test split share (default {_DEFAULT_TEST_FRACTION})")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--jobs", type=int, default=1, help="parallel fold workers (at most one per fold)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or training run")
    p.add_argument("--protocol", choices=("probe", "classify"), required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", help="embedding checkpoint (probe protocol)")
    p.add_argument("--run", help="train output directory (classify protocol)")
    p.add_argument("--folds", type=int, help=f"number of folds (probe protocol; default {_DEFAULT_FOLDS})")
    p.add_argument("--test-fraction", type=float,
                   help=f"test split share (probe protocol; default {_DEFAULT_TEST_FRACTION})")
    p.add_argument("--probe-steps", type=int,
                   help="cap on the probe's interior-point iterations; each fit stops earlier once "
                        f"its duality gap is at most 1e-8 or it stalls (probe protocol; default {PROBE_STEPS})")
    p.add_argument("--seed", type=int, help="fold RNG seed (probe protocol; default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("project", help="2D PCA scatter of a checkpoint's embeddings")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")
    try:
        # gen, reformat, train and eval seed NumPy generators, which refuse a
        # negative seed only once files are written or read.
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
        return args.func(args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
