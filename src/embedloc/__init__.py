"""Mel-spectrogram augmentations for contrastive music embeddings, plus
tools for measuring how augmentation choices shape the local structure
of the resulting embedding space."""

__version__ = "0.1.0"

from .melfront import MelConfig, MelSpectrogram, build_filterbank, compute_mel
from .augment import (AugmentationSpec, EqParams, PitchShiftParams, RrcParams,
                      TimeStretchParams, apply_chain, equalize, pitch_shift,
                      random_resized_crop, time_stretch)
from .encoder import TrainConfig, lr_at, ntxent_loss, train
from .embedspace import EmbeddingSet, embed_track, knn
from .locality import (key_precision, manipulation_sweep, tag_precision,
                       tag_retrieval, tempo_rmms)
from .probe import ProbeConfig, acc1_hits, acc2_hits, estimate_tempo, train_probe
