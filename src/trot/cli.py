"""Command line entry points: preprocess, adapt, matrix, synth."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import TrotError
from .harness import METHODS, TaskSpec, default_grid, matrix_to_json, render_table, run_matrix, run_task
from .ot_core import TrotHyperparams
from .preprocess import build_features, load_features, load_recording, save_features
from .synth import SynthSpec, adversarial_user_shift, generate_user

log = logging.getLogger("trot")


def _cmd_preprocess(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = sorted(Path(args.input).glob("*.csv"))
    if not paths:
        raise TrotError(f"no CSV recordings found in {args.input}")
    for path in paths:
        recording = load_recording(path, args.rate)
        dataset = build_features(recording, args.window_sec, args.overlap)
        save_features(dataset, out / f"{path.stem}.csv")
        log.info("preprocessed %s: %d windows", path.stem, len(dataset))
    return 0


def _adapt_grid(args):
    explicit = any(
        getattr(args, name) is not None for name in ("entropy_weight", "group_weight", "order_weight")
    )
    if explicit:
        return (
            TrotHyperparams(
                entropy_weight=args.entropy_weight if args.entropy_weight is not None else 0.1,
                group_weight=args.group_weight or 0.0,
                order_weight=args.order_weight or 0.0,
                order_mode=args.order_mode,
                n_states=args.states,
            ),
        )
    grid = default_grid(args.method)
    if args.method == "trot":
        # the 36 (lambda, eta, tau) points of the default grid at --states and --order-mode
        grid = tuple(
            replace(h, n_states=args.states, order_mode=args.order_mode)
            for h in grid
            if h.n_states == grid[0].n_states
        )
    return grid


def _cmd_adapt(args) -> int:
    source = load_features(args.source)
    target = load_features(args.target)
    grid = None if args.method in ("na", "td", "coral") else _adapt_grid(args)
    spec = TaskSpec(source.user_id, target.user_id, args.method, grid, args.seed)
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
    methods = [m.strip().lower() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise TrotError(f"no methods given; choose from {', '.join(METHODS)}")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise TrotError(f"unknown methods: {', '.join(unknown)}")
    report = run_matrix(args.data, methods=methods, seed=args.seed)
    Path(args.out).write_text(matrix_to_json(report))
    print(render_table(report))
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = SynthSpec(
        n_classes=args.classes,
        n_states=args.states,
        windows_per_class=args.windows,
        feature_dim=args.dim,
        class_separation=args.class_sep,
        state_separation=args.state_sep,
        noise_std=args.noise,
        seed=args.seed,
    )
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

    p = sub.add_parser("preprocess", help="segment recordings and extract window features")
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
    p.add_argument("--states", type=int, default=4, help="temporal states per activity")
    p.add_argument("--lambda", dest="entropy_weight", type=float, default=None,
                   help="entropy weight; giving any of --lambda/--eta/--tau pins a single setting")
    p.add_argument("--eta", dest="group_weight", type=float, default=None)
    p.add_argument("--tau", dest="order_weight", type=float, default=None)
    p.add_argument("--order-mode", default="mismatched", choices=("matched", "mismatched"))
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
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--windows", type=int, default=200, help="windows per class per user")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--class-sep", type=float, default=4.0)
    p.add_argument("--state-sep", type=float, default=4.0)
    p.add_argument("--noise", type=float, default=0.25)
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
