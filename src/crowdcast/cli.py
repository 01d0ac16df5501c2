"""Command-line interface: train, eval, synth, inspect."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checkpoint import save_archive
from .config import TrainConfig, format_config, parse_config
from .data import normalize_window, parse_scene, synth_generate, window_scene, write_scene
from .model import CrowdForecaster
from .train import evaluate, train, write_metrics_jsonl, write_summary_csv


def _load_scenes(data_dir):
    names = sorted(f for f in os.listdir(data_dir) if f.endswith(".txt"))
    if not names:
        raise SystemExit(f"no .txt scene files under {data_dir}")
    return {os.path.splitext(n)[0]: parse_scene(os.path.join(data_dir, n)) for n in names}


def _windows_by_scene(scenes, cfg):
    return {name: window_scene(s, stride=cfg.stride, t_in=cfg.t_in, t_out=cfg.t_out)
            for name, s in scenes.items()}


def cmd_train(args):
    cfg = parse_config(args.config) if args.config else TrainConfig()
    scenes = _load_scenes(args.data)
    per_scene = _windows_by_scene(scenes, cfg)
    train_names = [n for n in per_scene if n != args.holdout]
    windows = [w for n in train_names for w in per_scene[n]]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.txt"), "w") as fh:
        fh.write(format_config(cfg))
    _, report = train(cfg, windows, out_dir=args.out, log=args.log_every)
    print(f"trained on {len(windows)} windows from {len(train_names)} scenes")
    print(f"final loss {report['epochs'][-1]['total']:.4f} (best {report['best_loss']:.4f})")
    print(f"checkpoints and report written under {args.out}")


def cmd_eval(args):
    cfg = parse_config(args.config) if args.config else TrainConfig()
    model = CrowdForecaster(cfg, seed=cfg.seed).load(args.checkpoint)
    scenes = _load_scenes(args.data)
    per_scene = _windows_by_scene(scenes, cfg)
    all_rows, fold_rows = [], []
    for fold in sorted(per_scene):
        rows, (ade, fde) = evaluate(model, per_scene[fold], args.k, args.seed,
                                    joint_fde=cfg.fde_joint, fold=fold)
        all_rows.extend(rows)
        fold_rows.append((fold, ade, fde))
        print(f"fold {fold}: minADE{args.k} {ade:.4f}  minFDE{args.k} {fde:.4f}  ({len(rows)} windows)")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    write_metrics_jsonl(os.path.join(out_dir, "metrics.jsonl"), all_rows)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), fold_rows, args.k)
    print(f"metrics written to {out_dir}/metrics.jsonl and {out_dir}/summary.csv")


def cmd_synth(args):
    scenes = synth_generate(args.seed, args.scenes, agents_range=(args.min_agents, args.max_agents),
                            n_frames=args.frames)
    os.makedirs(args.out, exist_ok=True)
    for i, scene in enumerate(scenes):
        write_scene(scene, os.path.join(args.out, f"synth{i:03d}.txt"))
    print(f"wrote {len(scenes)} scenes to {args.out}")


def cmd_inspect(args):
    cfg = parse_config(args.config) if args.config else TrainConfig()
    model = CrowdForecaster(cfg, seed=cfg.seed).load(args.checkpoint)
    if args.data:
        scenes = _load_scenes(args.data)
        windows = [w for name in sorted(scenes) for w in _windows_by_scene(scenes, cfg)[name]]
    else:
        windows = [w for s in synth_generate(args.seed, 1)
                   for w in window_scene(s, stride=cfg.stride, t_in=cfg.t_in, t_out=cfg.t_out)]
    if not windows:
        raise SystemExit("no windows to inspect")
    window, _ = normalize_window(windows[args.window])
    record = {} if args.dump_attention else None
    hyper_dump = [] if args.dump_hypergraphs else None
    model.sample_futures(window, 1, np.random.default_rng(args.seed),
                         record=record, hyper_dump=hyper_dump)
    os.makedirs(args.out, exist_ok=True)
    if record is not None:
        arrays = {}
        for key, value in record.items():
            # spatial maps are [T, h, N, N] (one per timestep); temporal [N, h, T, T]
            if key.startswith("attn/spatial/") or key.startswith("attn/temporal/"):
                for i in range(value.shape[0]):
                    arrays[f"{key}/{i}"] = value[i]
            else:
                arrays[key] = value
        path = os.path.join(args.out, "attention.ckpt")
        save_archive(path, arrays)
        print(f"wrote {len(arrays)} attention tensors to {path}")
    if hyper_dump is not None:
        path = os.path.join(args.out, "hypergraphs.jsonl")
        with open(path, "w") as fh:
            for entry in hyper_dump:
                fh.write(json.dumps(entry) + "\n")
        print(f"wrote {len(hyper_dump)} hypergraph records to {path}")


def build_parser():
    parser = argparse.ArgumentParser(prog="crowdcast", description="crowd trajectory forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on scene files")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--data", required=True, help="directory of .txt scene files")
    p.add_argument("--out", required=True, help="output directory for checkpoints/report")
    p.add_argument("--holdout", default=None, help="scene name to exclude from training")
    p.add_argument("--log-every", type=int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="best-of-K metrics per scene fold")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic crowd scenes")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=12)
    p.add_argument("--frames", type=int, default=25)
    p.add_argument("--min-agents", type=int, default=3)
    p.add_argument("--max-agents", type=int, default=6)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="dump attention maps / hypergraph membership")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--window", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
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
