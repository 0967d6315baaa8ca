"""Command-line entry points: train / sample / eval / render / convert / synth.

Every run prints its resolved configuration (flags > config file > defaults)
and seed, and mirrors them into `resolved_config.json` inside the output
directory, so any run is reproducible from its printed output. All file
outputs are written atomically. The environment variable DOLFIN_THREADS caps
worker threads for per-item rendering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import data as D
from . import metrics as MET
from . import model as M
from . import render as R
from . import sampling as SMP
from . import schedule as S
from . import training as TR
from .core import DatasetConfig, tokenize_layout, tokenize_segments


def _max_threads() -> int:
    v = os.environ.get("DOLFIN_THREADS")
    if not v:
        return 1
    return max(1, min(int(v), os.cpu_count() or 1))


def _resolve(args, defaults: dict, required=()) -> dict:
    """Merge flags > config file > defaults; a required key may come from
    the flag or the file, and without either the run stops with exit 2."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as f:
            file_cfg = json.load(f)
        # a resolved_config.json names its own subcommand, so it can be fed back
        if file_cfg.get("command", args.command) == args.command:
            file_cfg.pop("command", None)
        unknown = [k for k in file_cfg if k not in cfg]
        if unknown:
            raise ValueError(f"{args.config}: unknown key {', '.join(map(repr, unknown))} "
                             f"for {args.command}")
        cfg.update(file_cfg)
    for k in cfg:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
    missing = [f"--{k.replace('_', '-')}" for k in required if cfg[k] is None]
    if missing:
        args.parser.error(f"the following arguments are required: {', '.join(missing)}")
    return cfg


def _announce(command: str, cfg: dict) -> None:
    resolved = {"command": command, **cfg}
    print("resolved config: " + json.dumps(resolved, sort_keys=True))
    out = cfg.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        D.atomic_write_text(
            os.path.join(out, "resolved_config.json"),
            json.dumps(resolved, indent=2, sort_keys=True) + "\n",
        )


def _tokenize_all(cfg: DatasetConfig, records) -> np.ndarray:
    if cfg.mode == "segment":
        return np.stack([tokenize_segments(r, cfg) for r in records])
    return np.stack([tokenize_layout(r, cfg) for r in records])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    cfg = _resolve(args, {
        "seed": 0, "n": 32, "style": "columns", "mode": "layout",
        "n_max": 8, "k_segments": 8, "out": "synth.jsonl",
    })
    _announce("synth", {**cfg, "out": None})
    if cfg["mode"] == "segment":
        dcfg, records = D.synth_segment_corpus(
            cfg["seed"], cfg["n"], k_segments=cfg["k_segments"], n_max=cfg["n_max"]
        )
    else:
        dcfg, records = D.synth_layout_corpus(
            cfg["seed"], cfg["n"], style=cfg["style"], n_max=cfg["n_max"]
        )
    D.save_canonical(cfg["out"], dcfg, records)
    print(f"wrote {len(records)} records to {cfg['out']}")
    return 0


def _cmd_convert(args) -> int:
    cfg = _resolve(args, {
        "src": None, "out": "converted.jsonl", "n_max": 16,
        "num_categories": 5, "seed": 0,
    }, required=("src",))
    _announce("convert", {**cfg, "out": None})
    with open(cfg["src"], "r", encoding="utf-8") as f:
        annotations = json.load(f)
    dcfg, layouts, tags, dropped = D.convert_publaynet_like(
        annotations, n_max=cfg["n_max"], num_categories=cfg["num_categories"],
        seed=cfg["seed"],
    )
    D.save_canonical(cfg["out"], dcfg, layouts, splits=tags)
    print(f"wrote {len(layouts)} records to {cfg['out']} (dropped {dropped} oversize)")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve(args, {
        "data": None, "out": "run", "seed": 0, "variant": "nonar",
        "steps": 100, "train_steps": 1000, "batch_size": 64, "lr": 1e-4,
        "layers": 4, "heads": 8, "hidden": 512, "checkpoint_every": 0,
        "variance_head": False,
    }, required=("data",))
    _announce("train", cfg)
    dcfg, records = D.load_canonical(cfg["data"])
    tokens = _tokenize_all(dcfg, records)
    model_cfg = M.ModelConfig(
        layers=cfg["layers"], heads=cfg["heads"], hidden=cfg["hidden"],
        n_max=dcfg.n_max, ar_mode=cfg["variant"] == "ar",
        variance_head=cfg["variance_head"],
    )
    train_cfg = TR.TrainConfig(
        lr=cfg["lr"], batch_size=cfg["batch_size"], total_steps=cfg["train_steps"],
        seed=cfg["seed"], variant=cfg["variant"],
        checkpoint_every=cfg["checkpoint_every"],
    )
    sched = S.build_schedule(cfg["steps"])
    ckpt = os.path.join(cfg["out"], "model.ckpt")
    log = os.path.join(cfg["out"], "loss.log")
    state = TR.train_loop(
        train_cfg, model_cfg, dcfg, tokens, sched=sched,
        log_path=log, checkpoint_path=ckpt,
    )
    print(f"trained {state.step} steps; checkpoint at {ckpt}")
    return 0


def _load_mask(mask_kind, cond_data, dcfg, index=0):
    if mask_kind in (None, "none"):
        return None
    if not cond_data:
        raise ValueError(f"--mask {mask_kind} requires --cond-data")
    ccfg, records = D.load_canonical(cond_data)
    if ccfg.mode != "layout":
        raise ValueError("conditioning requires a layout corpus")
    if not 0 <= index < len(records):
        raise ValueError(f"--cond-index {index} outside [0, {len(records)}) for {cond_data}")
    return SMP.mask_from_layout(records[index], dcfg, mask_kind)


def _fold_categories(layout, dcfg: DatasetConfig):
    """Map sampled 8-bit category codes into the dataset vocabulary.

    Undertrained models can emit codes above num_categories; the canonical
    format rejects those, so fold them the same way the render palette does.
    """
    from .core import BoundingBox, Layout

    boxes = tuple(
        BoundingBox(b.x, b.y, b.h, b.w, (b.c - 1) % dcfg.num_categories + 1)
        for b in layout.boxes
    )
    return Layout(H=layout.H, W=layout.W, boxes=boxes)


def _cmd_sample(args) -> int:
    cfg = _resolve(args, {
        "checkpoint": None, "out": "samples", "seed": 0, "n": 8,
        "mask": "none", "cond_data": None, "cond_index": 0,
        "method": None, "eta": 0.0, "capture_stride": None,
    }, required=("checkpoint",))
    _announce("sample", cfg)
    state = TR.load_checkpoint(cfg["checkpoint"])
    dcfg = state.data_cfg
    mask = _load_mask(cfg["mask"], cfg["cond_data"], dcfg, cfg["cond_index"])
    is_ar = state.model_cfg.ar_mode
    method = cfg["method"] or ("ddim" if is_ar else "ddpm")
    sampler = SMP.sample_ar if is_ar else SMP.sample_nonar
    items, _, trajs = sampler(
        state.params, state.model_cfg, state.sched, dcfg,
        n_samples=cfg["n"], seed=cfg["seed"], mask=mask, method=method,
        eta=cfg["eta"], capture_stride=cfg["capture_stride"],
    )
    if dcfg.mode == "layout":
        items = [_fold_categories(lay, dcfg) for lay in items]
    out_file = os.path.join(cfg["out"], "samples.jsonl")
    D.save_canonical(out_file, dcfg, items)
    if trajs:
        for i, traj in enumerate(trajs):
            R.render_trajectory(
                traj, dcfg, os.path.join(cfg["out"], f"trajectory_{i:03d}"),
                total_steps=state.sched.T,
            )
    print(f"wrote {len(items)} samples to {out_file}")
    return 0


def _render_corpus(records):
    with ThreadPoolExecutor(max_workers=_max_threads()) as ex:
        return list(ex.map(R.rasterize, records))


def _cmd_eval(args) -> int:
    cfg = _resolve(args, {
        "generated": None, "reference": None, "out": None, "timing": False,
        "seed": 0, "n": 4, "steps": 100, "layers": 2, "heads": 2,
        "hidden": 32, "n_max": 8,
    })
    _announce("eval", cfg)
    result = {}
    if cfg["timing"]:
        result["timing"] = _timing_report(cfg)
        print(json.dumps(result["timing"], indent=2, sort_keys=True))
    if cfg["generated"] and cfg["reference"]:
        gcfg, gen = D.load_canonical(cfg["generated"])
        rcfg, ref = D.load_canonical(cfg["reference"])
        if gcfg.mode != rcfg.mode:
            raise ValueError("generated and reference corpora have different modes")
        images_g = _render_corpus(gen)
        images_r = _render_corpus(ref)
        if gcfg.mode == "layout":
            report = MET.evaluate_layout_corpora(gen, ref, images_g, images_r)
        else:
            report = MET.evaluate_segment_corpora(gen, ref, images_g, images_r)
        print(report.to_text())
        result["report"] = json.loads(report.to_json())
    if cfg["out"]:
        D.atomic_write_text(
            os.path.join(cfg["out"], "report.json"),
            json.dumps(result, indent=2, sort_keys=True) + "\n",
        )
    return 0


def _timing_report(cfg) -> dict:
    """Per-sample wall time for both variants at the same configuration."""
    dcfg = DatasetConfig(n_max=cfg["n_max"], num_categories=5, mode="layout",
                         h_max=256.0, w_max=256.0)
    sched = S.build_schedule(cfg["steps"])
    out = {}
    for variant in ("nonar", "ar"):
        mcfg = M.ModelConfig(
            layers=cfg["layers"], heads=cfg["heads"], hidden=cfg["hidden"],
            n_max=cfg["n_max"], ar_mode=variant == "ar",
        )
        params = M.init_params(mcfg, seed=cfg["seed"])
        sampler = SMP.sample_ar if variant == "ar" else SMP.sample_nonar
        t0 = time.perf_counter()
        sampler(params, mcfg, sched, dcfg, n_samples=cfg["n"], seed=cfg["seed"])
        out[f"{variant}_seconds_per_sample"] = (time.perf_counter() - t0) / cfg["n"]
    return out


def _cmd_render(args) -> int:
    cfg = _resolve(args, {"data": None, "out": "renders"}, required=("data",))
    _announce("render", cfg)
    dcfg, records = D.load_canonical(cfg["data"])
    os.makedirs(cfg["out"], exist_ok=True)
    width = max(4, len(str(len(records))))

    def render_one(i):
        path = os.path.join(cfg["out"], f"item_{i:0{width}d}.svg")
        D.atomic_write_text(path, R.render_svg(records[i]))
        return path

    with ThreadPoolExecutor(max_workers=_max_threads()) as ex:
        paths = list(ex.map(render_one, range(len(records))))
    print(f"wrote {len(paths)} SVG files to {cfg['out']}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="layoutdiff")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", type=str)
        # _resolve reports a required value that neither flag nor file gives
        p.set_defaults(parser=p)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--style", choices=["grid", "columns"])
    p.add_argument("--mode", choices=["layout", "segment"])
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--k-segments", dest="k_segments", type=int)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("convert", help="convert detection-style annotations")
    common(p)
    p.add_argument("--src", type=str)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--num-categories", dest="num_categories", type=int)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("train", help="train a denoiser")
    common(p)
    p.add_argument("--data", type=str)
    p.add_argument("--variant", choices=["nonar", "ar"])
    p.add_argument("--steps", type=int, help="diffusion step count T")
    p.add_argument("--train-steps", dest="train_steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--variance-head", dest="variance_head", action="store_const", const=True)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sample", help="sample from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", type=str)
    p.add_argument("--n", type=int)
    p.add_argument("--method", choices=["ddpm", "ddim"])
    p.add_argument("--eta", type=float)
    p.add_argument("--mask", choices=["none", "cate", "cate_size"])
    p.add_argument("--cond-data", dest="cond_data", type=str)
    p.add_argument("--cond-index", dest="cond_index", type=int)
    p.add_argument("--capture-stride", dest="capture_stride", type=int)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("eval", help="evaluate corpora and/or report timing")
    common(p)
    p.add_argument("--generated", type=str)
    p.add_argument("--reference", type=str)
    p.add_argument("--timing", action="store_const", const=True)
    p.add_argument("--n", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("render", help="render a corpus to SVG files")
    common(p)
    p.add_argument("--data", type=str)
    p.set_defaults(func=_cmd_render)

    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse's usage errors, exit 2
        return int(e.code or 0)
    except Exception as e:  # one-line machine-parsable error
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
