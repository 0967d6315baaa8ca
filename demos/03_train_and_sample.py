"""Train a small denoiser on a synthetic corpus, then sample layouts.

Takes about a minute on one CPU core.

Run:  python3 demos/03_train_and_sample.py [OUT_DIR]   (default demos/out)
"""

import os
import sys
import tempfile

import numpy as np

from layoutdiff import (
    ModelConfig,
    TrainConfig,
    alignment_score,
    build_schedule,
    overlap_score,
    render_svg,
    sample_nonar,
    synth_layout_corpus,
    tokenize_layout,
    train_loop,
)

# 32 perfectly aligned, non-overlapping synthetic layouts.
dcfg, layouts = synth_layout_corpus(seed=0, n=32, style="columns", n_max=8)
tokens = np.stack([tokenize_layout(l, dcfg) for l in layouts])
print(f"corpus: {len(layouts)} layouts, alignment={alignment_score(layouts)}",
      f"overlap={overlap_score(layouts)}")

model_cfg = ModelConfig(layers=2, heads=4, hidden=64, n_max=8)
train_cfg = TrainConfig(lr=2e-3, batch_size=32, total_steps=600,
                        weight_decay=0.0, seed=0)
sched = build_schedule(100)

print("\ntraining 600 steps ...")
with tempfile.TemporaryDirectory() as tmp:
    log = os.path.join(tmp, "loss.log")
    state = train_loop(train_cfg, model_cfg, dcfg, tokens, sched=sched, log_path=log)
    with open(log) as f:
        for line in f:
            step, loss, _ = line.split("\t")
            if int(step) % 150 == 0:
                print(f"step {step}  loss {float(loss):.5f}")

print("\nsampling 8 layouts (DDPM) ...")
samples, _, _ = sample_nonar(state.params, model_cfg, sched, dcfg,
                             n_samples=8, seed=1)
print("sampled alignment:", round(alignment_score(samples), 3))
print("sampled overlap:  ", round(overlap_score(samples), 3))

outdir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "out")
os.makedirs(outdir, exist_ok=True)
path = os.path.join(outdir, "sample_0.svg")
with open(path, "w") as f:
    f.write(render_svg(samples[0]))
print("wrote", path)
