"""The layout metric suite and its behavior on controlled corruptions.

Run:  python3 demos/05_metrics.py
"""

import numpy as np

from layoutdiff import (
    BoundingBox,
    Layout,
    evaluate_layout_corpora,
    rasterize,
    synth_layout_corpus,
)

_, reference = synth_layout_corpus(seed=0, n=24, style="grid")


def jitter(layouts, sigma, seed):
    rng = np.random.default_rng(seed)
    out = []
    for l in layouts:
        boxes = tuple(
            BoundingBox(b.x + rng.normal(0, sigma), b.y + rng.normal(0, sigma),
                        b.h, b.w, b.c)
            for b in l.boxes)
        out.append(Layout(H=l.H, W=l.W, boxes=boxes))
    return out


print(f"{'sigma':>6} {'align':>8} {'overlap':>8} {'max_iou':>8} "
      f"{'docsim':>8} {'feat_dist':>10}")
for sigma in (0.0, 2.0, 8.0):
    generated = jitter(reference, sigma, seed=1)
    report = evaluate_layout_corpora(
        generated, reference,
        images_generated=[rasterize(l) for l in generated],
        images_reference=[rasterize(l) for l in reference],
    )
    s = report.scalars
    print(f"{sigma:6.1f} {s['alignment']:8.3f} {s['overlap']:8.3f} "
          f"{s['max_iou']:8.3f} {s['docsim']:8.4f} {s['feature_distance']:10.4f}")

print("\nalignment/overlap grow and max_iou/docsim shrink as jitter increases;")
print("the feature distance is a small fixed-projection stand-in for image FID.")
