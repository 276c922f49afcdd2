"""Command line entry points: preprocess, adapt, matrix, synth."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, TrotError
from .harness import (
    DEFAULT_GRIDS, METHODS, TaskSpec, default_grid, matrix_to_json, render_table, run_matrix,
    run_task,
)
from .ot_core import TrotHyperparams
from .preprocess import build_features, load_features, load_recording, save_features
from .synth import SynthSpec, adversarial_user_shift, generate_user

log = logging.getLogger("trot")


def _preprocess_one(path: Path, out: Path, rate: float, window_sec: float, overlap: float) -> int:
    """Segment and featurize one recording into `out`; return its window count."""
    recording = load_recording(path, rate)
    try:
        dataset = build_features(recording, window_sec, overlap)
    except TrotError as exc:  # such as a window whose majority label is -1
        raise type(exc)(f"{exc} in {path.name}") from exc
    if len(dataset) == 0:  # `load_features` would refuse the header-only file
        raise InsufficientDataError(
            f"insufficient data: every window of {path.name} has a tied label count"
        )
    save_features(dataset, out / f"{path.stem}.csv")
    return len(dataset)


def _cmd_preprocess(args) -> int:
    """Preprocess every recording CSV of --input into --out.

    Recordings run in parallel, one forked process per recording up to the
    CPU count.  Results are taken in sorted path order, so the log lines and
    the error raised (the first failing recording's) are those of a serial
    run, though recordings after a failing one may already be written.
    """
    from concurrent.futures import ProcessPoolExecutor  # only this command needs a pool
    from multiprocessing import get_context

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = sorted(Path(args.input).glob("*.csv"))
    if not paths:
        raise TrotError(f"no CSV recordings found in {args.input}")
    one = partial(_preprocess_one, out=out, rate=args.rate, window_sec=args.window_sec,
                  overlap=args.overlap)
    # fork, from a process that has started no thread: spawn and forkserver would
    # re-import trot in every worker, and forkserver leaves its server running
    with ProcessPoolExecutor(min(len(paths), os.cpu_count() or 1), get_context("fork")) as pool:
        for path, windows in zip(paths, pool.map(one, paths)):
            log.info("preprocessed %s: %d windows", path.stem, windows)
    return 0


def _adapt_grid(args):
    """One setting of the --lambda/--eta/--tau given (TrotHyperparams' defaults
    for the rest), or the method's default grid when none is given.  --states
    and --order-mode apply to the methods whose `DEFAULT_GRIDS` entry holds
    n_states and order_mode."""
    searched = DEFAULT_GRIDS.get(args.method, {})
    for flag, name, value in (("--states", "n_states", args.states),
                              ("--order-mode", "order_mode", args.order_mode)):
        if value is not None and name not in searched:
            takers = " and ".join(m for m, entry in DEFAULT_GRIDS.items() if name in entry)
            raise ValueError(f"{flag} applies to {takers} only, not {args.method}")
    chain = {
        "n_states": TrotHyperparams.n_states if args.states is None else args.states,
        "order_mode": args.order_mode or TrotHyperparams.order_mode,
    }
    given = {
        name: getattr(args, name)
        for name in ("entropy_weight", "group_weight", "order_weight")
        if getattr(args, name) is not None
    }
    if given:
        return (TrotHyperparams(**given, **chain),)
    grid = default_grid(args.method)
    if "n_states" in searched:
        # the default grid's points at its first n_states, moved to --states and --order-mode
        grid = tuple(replace(h, **chain) for h in grid if h.n_states == grid[0].n_states)
    return grid


def _cmd_adapt(args) -> int:
    source = load_features(args.source)
    target = load_features(args.target)
    spec = TaskSpec(source.user_id, target.user_id, args.method, _adapt_grid(args), args.seed)
    report = run_task(spec, source, target)
    payload = report.to_dict(include_timing=True)
    if args.report:
        Path(args.report).write_text(json.dumps(payload, sort_keys=True, indent=2))
    if report.error is not None:
        raise TrotError(report.error)
    print(
        f"{args.method} {source.user_id}->{target.user_id}: "
        f"validation {report.validation_accuracy:.4f}, test {report.test_accuracy:.4f}"
    )
    return 0


def _cmd_matrix(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = run_matrix(args.data, methods=methods, seed=args.seed)
    Path(args.out).write_text(matrix_to_json(report))
    print(render_table(report))
    return 0


def _cmd_synth(args) -> int:
    if args.users < 1:
        raise ValueError(f"--users must be >= 1, got {args.users}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    given = {f.name: getattr(args, f.name) for f in fields(SynthSpec) if hasattr(args, f.name)}
    spec = SynthSpec(**given)
    rng = np.random.default_rng(spec.seed)
    for i in range(args.users):
        shift = None if i == 0 else adversarial_user_shift(spec, scale=i * args.shift_scale)
        dataset, _ = generate_user(spec, shift, f"user{i}", rng)
        save_features(dataset, out / f"user{i}.csv")
        log.info("generated user%d: %d windows", i, len(dataset))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trot", description="Cross-user activity adaptation pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "preprocess", help="segment recordings and extract window features",
        description="Segment each recording CSV and extract window features. Recordings run in "
        "parallel, one process per recording up to the CPU count.",
    )
    p.add_argument("--input", required=True, help="directory of recording CSVs")
    p.add_argument("--rate", required=True, type=float, help="sample rate in Hz")
    p.add_argument("--window-sec", type=float, default=3.0)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output directory for feature CSVs")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("adapt", help="run one cross-user task")
    p.add_argument("--source", required=True, help="source user feature CSV")
    p.add_argument("--target", required=True, help="target user feature CSV")
    p.add_argument("--method", default="trot", choices=METHODS)
    p.add_argument("--states", type=int, default=None,
                   help="temporal states per activity (trot only, default 4)")
    p.add_argument("--lambda", dest="entropy_weight", type=float, default=None,
                   help="entropy weight; giving any of --lambda/--eta/--tau pins a single setting")
    p.add_argument("--eta", dest="group_weight", type=float, default=None)
    p.add_argument("--tau", dest="order_weight", type=float, default=None)
    p.add_argument("--order-mode", default=None, choices=("matched", "mismatched"),
                   help="trot only, default mismatched")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="write the task report JSON here")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("matrix", help="all directed user pairs x methods")
    p.add_argument("--data", required=True, help="directory of per-user feature CSVs")
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("synth", help="generate synthetic benchmark users")
    # SynthSpec's field names; a flag not given takes SynthSpec's default, except --seed
    p.add_argument("--classes", dest="n_classes", type=int, default=argparse.SUPPRESS)
    p.add_argument("--states", dest="n_states", type=int, default=argparse.SUPPRESS)
    p.add_argument("--windows", dest="windows_per_class", type=int, default=argparse.SUPPRESS,
                   help="windows per class per user")
    p.add_argument("--dim", dest="feature_dim", type=int, default=argparse.SUPPRESS)
    p.add_argument("--class-sep", dest="class_separation", type=float, default=argparse.SUPPRESS)
    p.add_argument("--state-sep", dest="state_separation", type=float, default=argparse.SUPPRESS)
    p.add_argument("--noise", dest="noise_std", type=float, default=argparse.SUPPRESS)
    p.add_argument("--shift-scale", type=float, default=1.0,
                   help="user i is translated by i*scale times the alternating class shift")
    p.add_argument("--users", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="output directory for user CSVs")
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("TROT_LOG_LEVEL", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrotError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
