"""Command-line interface: train, eval, synth, inspect."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .attention import capture
from .checkpoint import CheckpointError, save_archive
from .config import ConfigError, TrainConfig, format_config, parse_config
from .data import ParseError, normalize_window, parse_scene, synth_generate, window_scene, write_scene
from .model import CrowdForecaster
from .train import evaluate, train, write_metrics_jsonl, write_summary_csv


def _load_config(path):
    """The config read from ``path``, or the defaults without one; a file
    it cannot read or a bad entry exits with one line naming the file."""
    if path is None:
        return TrainConfig()
    try:
        return parse_config(path)
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read config: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise SystemExit(f"{path}: not UTF-8 text") from None
    except ConfigError as exc:  # names the path
        raise SystemExit(str(exc)) from None


def _load_scenes(data_dir):
    names = sorted(f for f in os.listdir(data_dir) if f.endswith(".txt"))
    if not names:
        raise SystemExit(f"no .txt scene files under {data_dir}")
    try:
        return {os.path.splitext(n)[0]: parse_scene(os.path.join(data_dir, n)) for n in names}
    except ParseError as exc:
        raise SystemExit(str(exc)) from None


def _load_model(cfg, path):
    try:
        return CrowdForecaster(cfg, seed=cfg.seed).load(path)
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read checkpoint: {exc.strerror or exc}") from None
    except CheckpointError as exc:  # names the path
        raise SystemExit(str(exc)) from None


def _windows_by_scene(scenes, cfg):
    """Each scene's windows; a scene that holds a window the model cannot
    take (a coordinate beyond ``data.MAX_COORD``) exits with one line."""
    out = {}
    for name, s in scenes.items():
        try:
            out[name] = window_scene(s, stride=cfg.stride, t_in=cfg.t_in, t_out=cfg.t_out)
        except ValueError as exc:
            raise SystemExit(f"scene {name}: {exc}") from None
    return out


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def cmd_train(args):
    cfg = _load_config(args.config)
    scenes = _load_scenes(args.data)
    if args.holdout is not None and args.holdout not in scenes:
        raise SystemExit(f"--holdout {args.holdout!r} is not a scene under {args.data}; "
                         f"scenes: {', '.join(scenes)}")
    per_scene = _windows_by_scene(scenes, cfg)
    train_names = [n for n in per_scene if n != args.holdout]
    windows = [w for n in train_names for w in per_scene[n]]
    if not windows:
        besides = "" if args.holdout is None else f" besides --holdout {args.holdout!r}"
        raise SystemExit(f"no scene under {args.data}{besides} has a window of {cfg.t_in + cfg.t_out} "
                         f"frames to train on")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.txt"), "w") as fh:
        fh.write(format_config(cfg))
    _, report = train(cfg, windows, out_dir=args.out, log=args.log_every)
    print(f"trained on {len(windows)} windows from {len(train_names)} scenes")
    print(f"final loss {report['epochs'][-1]['total']:.4f} (best {report['best_loss']:.4f})")
    print(f"checkpoints and report written under {args.out}")


def cmd_eval(args):
    cfg = _load_config(args.config)
    model = _load_model(cfg, args.checkpoint)
    scenes = _load_scenes(args.data)
    per_scene = _windows_by_scene(scenes, cfg)
    span = cfg.t_in + cfg.t_out
    if not any(per_scene.values()):
        raise SystemExit(f"no scene under {args.data} has a window of {span} frames to score")
    all_rows, fold_rows = [], []
    for fold in sorted(per_scene):
        if not per_scene[fold]:
            print(f"fold {fold}: left out, no window of {span} frames to score")
            continue
        rows, (ade, fde) = evaluate(model, per_scene[fold], args.k, args.seed, fold=fold)
        all_rows.extend(rows)
        fold_rows.append((fold, ade, fde))
        print(f"fold {fold}: minADE{args.k} {ade:.4f}  minFDE{args.k} {fde:.4f}  ({len(rows)} windows)")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    write_metrics_jsonl(os.path.join(out_dir, "metrics.jsonl"), all_rows)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), fold_rows, args.k)
    print(f"metrics written to {out_dir}/metrics.jsonl and {out_dir}/summary.csv")


def cmd_synth(args):
    try:
        scenes = synth_generate(args.seed, args.scenes, agents_range=(args.min_agents, args.max_agents),
                                n_frames=args.frames)
    except ValueError as exc:
        raise SystemExit(f"synth: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    for i, scene in enumerate(scenes):
        write_scene(scene, os.path.join(args.out, f"synth{i:03d}.txt"))
    print(f"wrote {len(scenes)} scenes to {args.out}")


def cmd_inspect(args):
    cfg = _load_config(args.config)
    model = _load_model(cfg, args.checkpoint)
    if args.data:
        per_scene = _windows_by_scene(_load_scenes(args.data), cfg)
        windows = [w for name in sorted(per_scene) for w in per_scene[name]]
    else:
        windows = [w for s in synth_generate(args.seed, 1)
                   for w in window_scene(s, stride=cfg.stride, t_in=cfg.t_in, t_out=cfg.t_out)]
    if not 0 <= args.window < len(windows):
        raise SystemExit(f"--window {args.window} is out of range: there are {len(windows)} windows")
    window, _ = normalize_window(windows[args.window])
    with capture() as kept:
        model.sample_futures(window, 1, np.random.default_rng(args.seed))
    hyperedges = kept.pop("hyper/edges", [])  # none for a window of one agent; the rest are attention maps
    os.makedirs(args.out, exist_ok=True)
    if args.dump_attention:
        arrays = {}
        for prefix, value in kept.items():
            # spatial maps are [T, h, N, N] (one per timestep); temporal [N, h, T, T]
            if prefix.startswith(("spatial/", "temporal/")):
                arrays.update((f"{prefix}/{i}", v) for i, v in enumerate(value))
            else:
                arrays[prefix] = value
        path = os.path.join(args.out, "attention.ckpt")
        save_archive(path, arrays)
        print(f"wrote {len(arrays)} attention tensors to {path}")
    if args.dump_hypergraphs:
        path = os.path.join(args.out, "hypergraphs.jsonl")
        with open(path, "w") as fh:
            fh.write("".join(json.dumps(entry) + "\n" for entry in hyperedges))
        print(f"wrote {len(hyperedges)} hypergraph records to {path}")


def build_parser():
    parser = argparse.ArgumentParser(prog="crowdcast", description="crowd trajectory forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on scene files")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--data", required=True, help="directory of .txt scene files")
    p.add_argument("--out", required=True, help="output directory for checkpoints/report")
    p.add_argument("--holdout", default=None, help="scene name to exclude from training")
    p.add_argument("--log-every", type=_positive_int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="best-of-K metrics per scene fold")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=_positive_int, default=20)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic crowd scenes")
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=_positive_int, default=12)
    p.add_argument("--frames", type=int, default=25)
    p.add_argument("--min-agents", type=int, default=3)
    p.add_argument("--max-agents", type=int, default=6)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="dump attention maps / hypergraph membership")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--window", type=int, default=0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default="inspect_out")
    p.add_argument("--dump-attention", action="store_true")
    p.add_argument("--dump-hypergraphs", action="store_true")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
