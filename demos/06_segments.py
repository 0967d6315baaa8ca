"""Line-segment scenes: the second supported domain (floor-plan style).

Segments use the same 16-entry token layout as boxes: four endpoint
coordinates mapped to [-1, 1], a PAD sentinel entry, and unused filler.

Run:  python3 demos/06_segments.py [OUT_DIR]   (default demos/out)
"""

import os
import sys

from layoutdiff import (
    detokenize_segments,
    difference_score,
    render_svg,
    synth_segment_corpus,
    tokenize_segments,
)

cfg, corpora = synth_segment_corpus(seed=0, n=8, k_segments=8)
first = corpora[0]
print(f"{len(corpora)} images, {len(first)} segments each")
print("first segment:", first[0])

tokens = tokenize_segments(first, cfg)
print("token matrix shape:", tokens.shape)
print("roundtrip equal:", detokenize_segments(tokens, cfg) == first)

# difference_score is a two-level min-cost matching: segments within image
# pairs, then image pairs across corpora. Identical corpora score 0.
_, other = synth_segment_corpus(seed=1, n=8, k_segments=8)
print("difference(corpus, itself):", difference_score(corpora, corpora))
print("difference(corpus, other): ", round(difference_score(corpora, other), 4))

outdir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "out")
os.makedirs(outdir, exist_ok=True)
path = os.path.join(outdir, "segments_0.svg")
with open(path, "w") as f:
    f.write(render_svg(first))
print("wrote", path)
