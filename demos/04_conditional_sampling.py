"""Conditioning: pin categories (and sizes) of a reference layout while
sampling the rest.

Conditioning works by replacement: after every reverse step the conditioned
entries are overwritten with the known values noised to the current level,
so the final sample carries them exactly.

Run:  python3 demos/04_conditional_sampling.py
"""

import numpy as np

from layoutdiff import (
    ModelConfig,
    TrainConfig,
    build_schedule,
    mask_from_layout,
    sample_nonar,
    synth_layout_corpus,
    tokenize_layout,
    train_loop,
)

dcfg, layouts = synth_layout_corpus(seed=0, n=32, style="columns", n_max=8)
tokens = np.stack([tokenize_layout(l, dcfg) for l in layouts])
model_cfg = ModelConfig(layers=2, heads=4, hidden=64, n_max=8)
sched = build_schedule(100)
state = train_loop(
    TrainConfig(lr=2e-3, batch_size=32, total_steps=400, weight_decay=0.0),
    model_cfg, dcfg, tokens, sched=sched)

reference = layouts[3]
print("reference categories:", [b.c for b in reference.boxes])

# "cate": fix every token's category code (which also pins element count).
cond = mask_from_layout(reference, dcfg, "cate")
samples, _, _ = sample_nonar(state.params, model_cfg, sched, dcfg,
                             n_samples=4, seed=2, mask=cond)
for i, s in enumerate(samples):
    print(f"sample {i} categories:", [b.c for b in s.boxes])

# "cate_size" additionally fixes each box's height and width.
cond = mask_from_layout(reference, dcfg, "cate_size")
samples, _, _ = sample_nonar(state.params, model_cfg, sched, dcfg,
                             n_samples=2, seed=3, mask=cond)
print("\nwith cate_size, sizes relative to the scene are pinned too:")
for i, s in enumerate(samples):
    sizes = [(round(b.h / s.H, 4), round(b.w / s.W, 4)) for b in s.boxes]
    print(f"sample {i} (h/H, w/W):", sizes)
ref_sizes = [(round(b.h / reference.H, 4), round(b.w / reference.W, 4))
             for b in reference.boxes]
print("reference (h/H, w/W):", ref_sizes)
