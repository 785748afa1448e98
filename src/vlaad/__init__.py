"""Weakly-supervised video collision-detection toolkit.

Adapter/detector heads over frozen video-language embeddings, trained with a
multiple-instance log-sum-exp pooling objective, plus the surrounding
dataset, streaming-inference, scoring, and significance-testing machinery.
"""

from .embeddings import (CachedEncoder, Embedding, FrameWindow, StubEncoder,
                         encode_text, encode_video_snippet,
                         read_embedding_cache, write_embedding_cache)
from .evalkit import (DrivingRunRecord, ScoredSet, WilcoxonResult,
                      infraction_penalty, roc_auc, summarize_run,
                      threshold_metrics, wilcoxon_signed_rank,
                      youden_threshold)
from .losses import LossBreakdown, uncertainty_weighted_total
from .mil import Bag, lse_pool, pooling_attention, segment_clip
from .model import (ModelCheckpoint, init_checkpoint, load_checkpoint,
                    save_checkpoint)
from .datakit import (ClipRecord, InfractionLog, SynthConfig, assemble_clips,
                      augment_collision_position, caption_collision_clip,
                      caption_normal_clip, generate_synthetic_dataset,
                      read_manifest, write_manifest)
from .inference import CausalBuffer, push_tick
from .trainer import TrainConfig, split_dataset, train

__version__ = "0.1.0"
