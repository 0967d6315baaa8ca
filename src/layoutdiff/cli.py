"""Command-line entry points: train / sample / eval / render / convert / synth.

Each option is declared once, in `_build_parser`; a `--config` JSON file
sets options as their flags would, and flags win over the file. Every run
prints its resolved configuration first and, once its inputs have loaded and
its arguments have been accepted, mirrors it into `resolved_config.json`
inside the output directory, so any run is reproducible from its printed
output and a run that fails on its inputs or arguments leaves no record. All
file outputs are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import data as D
from . import metrics as MET
from . import model as M
from . import render as R
from . import sampling as SMP
from . import schedule as S
from . import training as TR
from .core import DatasetConfig, tokenize_layout, tokenize_segments


def _checked(path, key, action, value):
    """A config-file value, checked as argparse checks its flag; null only
    where the declared default is None."""
    if value is None and action.default is None:
        return None
    kind = bool if action.nargs == 0 else action.type or str
    # the JSON values each kind takes; a JSON bool is never a number
    takes = {bool: bool, str: str, int: int, float: (int, float)}[kind]
    if isinstance(value, takes) and isinstance(value, bool) == (kind is bool):
        value = kind(value)
        if action.choices is None or value in action.choices:
            return value
    want = f"one of {', '.join(action.choices)}" if action.choices else kind.__name__
    raise ValueError(f"{path}: key {key!r} takes {want}, not {json.dumps(value)}")


def _read_config(path, command, options) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        values = json.load(f)
    if not isinstance(values, dict):
        raise ValueError(f"{path}: holds a JSON {type(values).__name__}, not an object")
    # a resolved_config.json names its own subcommand, so it can be fed back
    if values.get("command", command) == command:
        values.pop("command", None)
    unknown = [k for k in values if k not in options]
    if unknown:
        raise ValueError(f"{path}: unknown key {', '.join(map(repr, unknown))} "
                         f"for {command}")
    return {k: _checked(path, k, options[k], v) for k, v in values.items()}


def _announce(command: str, cfg: dict) -> dict:
    """Print the resolved configuration and return it, for _record."""
    resolved = {"command": command, **cfg}
    print("resolved config: " + json.dumps(resolved, sort_keys=True))
    return resolved


def _record(resolved: dict) -> None:
    """Write the resolved configuration into the --out directory; commands
    call this once their inputs have loaded and their arguments have been
    accepted."""
    out = resolved["out"]
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


def _cmd_synth(cfg) -> int:
    _announce("synth", cfg)
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


def _cmd_convert(cfg) -> int:
    _announce("convert", cfg)
    with open(cfg["src"], "r", encoding="utf-8") as f:
        annotations = json.load(f)
    dcfg, layouts, tags, dropped = D.convert_publaynet_like(
        annotations, n_max=cfg["n_max"], num_categories=cfg["num_categories"],
        seed=cfg["seed"],
    )
    D.save_canonical(cfg["out"], dcfg, layouts, splits=tags)
    print(f"wrote {len(layouts)} records to {cfg['out']} (dropped {dropped} oversize)")
    return 0


def _cmd_train(cfg) -> int:
    resolved = _announce("train", cfg)
    # a converted corpus tags its records; val and test are held out
    dcfg, records = D.load_canonical(cfg["data"], split="train")
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
    _record(resolved)
    ckpt = os.path.join(cfg["out"], "model.ckpt")
    log = os.path.join(cfg["out"], "loss.log")
    state = TR.train_loop(
        train_cfg, model_cfg, dcfg, tokens, sched=sched,
        log_path=log, checkpoint_path=ckpt,
    )
    print(f"trained {state.step} steps; checkpoint at {ckpt}")
    return 0


def _load_mask(mask_kind, cond_data, checkpoint, dcfg, index=0):
    if mask_kind in (None, "none"):
        return None
    if dcfg.mode != "layout":
        raise ValueError(f"--mask {mask_kind} conditions a layout model; "
                         f"{checkpoint} is a {dcfg.mode} model")
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


def _cmd_sample(cfg) -> int:
    resolved = _announce("sample", cfg)
    state = TR.load_checkpoint(cfg["checkpoint"])
    dcfg = state.data_cfg
    mask = _load_mask(cfg["mask"], cfg["cond_data"], cfg["checkpoint"], dcfg,
                      cfg["cond_index"])
    is_ar = state.model_cfg.ar_mode
    method = cfg["method"] or ("ddim" if is_ar else "ddpm")
    sampler = SMP.sample_ar if is_ar else SMP.sample_nonar
    items, _, trajs = sampler(
        state.params, state.model_cfg, state.sched, dcfg,
        n_samples=cfg["n"], seed=cfg["seed"], mask=mask, method=method,
        eta=cfg["eta"], capture_stride=cfg["capture_stride"],
    )
    # the sampler checks its own arguments
    _record(resolved)
    if dcfg.mode == "layout":
        items = [_fold_categories(lay, dcfg) for lay in items]
    out_file = os.path.join(cfg["out"], "samples.jsonl")
    D.save_canonical(out_file, dcfg, items)
    if trajs:
        for i, traj in enumerate(trajs):
            R.render_trajectory(traj, dcfg,
                                os.path.join(cfg["out"], f"trajectory_{i:03d}"))
    print(f"wrote {len(items)} samples to {out_file}")
    return 0


def _cmd_eval(cfg) -> int:
    resolved = _announce("eval", cfg)
    corpora = cfg["generated"] is not None
    if corpora != (cfg["reference"] is not None) or not (corpora or cfg["timing"]):
        raise ValueError("eval needs --generated and --reference together, or --timing")
    if corpora:
        gcfg, gen = D.load_canonical(cfg["generated"])
        rcfg, ref = D.load_canonical(cfg["reference"])
        if gcfg.mode != rcfg.mode:
            raise ValueError("generated and reference corpora have different modes")
    result = {}
    if cfg["timing"]:
        result["timing"] = _timing_report(cfg)
        print(json.dumps(result["timing"], indent=2, sort_keys=True))
    if corpora:
        images_g = [R.rasterize(item) for item in gen]
        images_r = [R.rasterize(item) for item in ref]
        if gcfg.mode == "layout":
            report = MET.evaluate_layout_corpora(gen, ref, images_g, images_r)
        else:
            report = MET.evaluate_segment_corpora(gen, ref, images_g, images_r)
        print(report.to_text())
        result["report"] = json.loads(report.to_json())
    # the samplers and the metrics check their own arguments and inputs
    _record(resolved)
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


def _cmd_render(cfg) -> int:
    resolved = _announce("render", cfg)
    dcfg, records = D.load_canonical(cfg["data"])
    _record(resolved)
    width = max(4, len(str(len(records))))
    for i, item in enumerate(records):
        D.atomic_write_text(os.path.join(cfg["out"], f"item_{i:0{width}d}.svg"),
                            R.render_svg(item))
    print(f"wrote {len(records)} SVG files to {cfg['out']}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    """The parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(prog="layoutdiff")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, out, seed=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON file of option values; flags win over it")
        p.add_argument("--out", default=out)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    p = command("synth", _cmd_synth, "generate a synthetic corpus", "synth.jsonl")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--style", choices=["grid", "columns"], default="columns")
    p.add_argument("--mode", choices=["layout", "segment"], default="layout")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--k-segments", type=int, default=8)

    p = command("convert", _cmd_convert, "convert detection-style annotations",
                "converted.jsonl")
    p.add_argument("--src", required=True)
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--num-categories", type=int, default=5)

    p = command("train", _cmd_train, "train a denoiser", "run")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", choices=["nonar", "ar"], default="nonar")
    p.add_argument("--steps", type=int, default=100, help="diffusion step count T")
    p.add_argument("--train-steps", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--hidden", type=int, default=512)
    p.add_argument("--variance-head", action="store_true")
    p.add_argument("--checkpoint-every", type=int, default=0)

    p = command("sample", _cmd_sample, "sample from a checkpoint", "samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--method", choices=["ddpm", "ddim"])
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--mask", choices=["none", "cate", "cate_size"], default="none")
    p.add_argument("--cond-data")
    p.add_argument("--cond-index", type=int, default=0)
    p.add_argument("--capture-stride", type=int)

    p = command("eval", _cmd_eval, "evaluate corpora and/or report timing", None)
    p.add_argument("--generated")
    p.add_argument("--reference")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--n-max", type=int, default=8)

    p = command("render", _cmd_render, "render a corpus to SVG files", "renders",
                seed=False)
    p.add_argument("--data", required=True)

    return parser, sub.choices


def _parse(argv):
    """A subcommand's handler and its resolved options. The --config file's
    values become the subcommand's defaults, so argparse ranks flags over the
    file over the declared defaults. A required option may come from either,
    so the first pass, which finds the file, leaves that check to the second."""
    parser, commands = _build_parser()
    required = [a for p in commands.values() for a in p._actions if a.required]
    for a in required:
        a.required = False
    args = parser.parse_args(argv)
    p = commands[args.command]
    options = {a.dest: a for a in p._actions if a.dest not in ("help", "config")}
    values = _read_config(args.config, args.command, options) if args.config else {}
    for a in required:
        a.required = values.get(a.dest) is None
    p.set_defaults(**values)
    args = parser.parse_args(argv)
    return args.run, {dest: getattr(args, dest) for dest in options}


def cli(argv=None) -> int:
    try:
        run, cfg = _parse(argv)
        return run(cfg)
    except SystemExit as e:  # argparse's usage errors, exit 2
        return int(e.code or 0)
    except Exception as e:  # one-line machine-parsable error
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
