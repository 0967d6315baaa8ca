"""Diffusion layout transformers operating directly on geometric tokens."""

from .core import (
    BoundingBox,
    CapacityError,
    DatasetConfig,
    Layout,
    Segment,
    ValidationError,
    decode_category,
    detokenize_layout,
    detokenize_segments,
    encode_category,
    normalize_box,
    tokenize_layout,
    tokenize_segments,
)
from .schedule import (
    Schedule,
    build_schedule,
    ddim_step,
    ddpm_step,
    q_sample,
)
from .model import ModelConfig, NoisePrediction, forward_ar, forward_nonar, init_params
from .training import (TrainConfig, TrainState, load_checkpoint, load_params, save_checkpoint,
                       train_loop)
from .sampling import (
    ConditionMask,
    mask_from_layout,
    sample_ar,
    sample_nonar,
    sample_tokens,
)
from .metrics import (
    MetricReport,
    alignment_score,
    difference_score,
    docsim,
    evaluate_layout_corpora,
    evaluate_segment_corpora,
    feature_distance,
    hungarian,
    iou,
    max_iou,
    overlap_score,
)
from .data import load_canonical, save_canonical, synth_layout_corpus, synth_segment_corpus
from .render import rasterize, render_svg, render_trajectory

__version__ = "0.1.0"
