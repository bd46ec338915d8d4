"""Generate a small synthetic corpus and train a contrastive encoder
on augmented positive pairs, then embed every track.

Run: python3 demos/02_contrastive_training.py
(takes about a minute on a laptop CPU)
"""

import tempfile

import numpy as np

from embedloc import corpus, embedspace, encoder, melfront
from embedloc.augment import AugmentationSpec

work = tempfile.mkdtemp(prefix="embedloc-demo-")
cfg = melfront.MelConfig()

records = corpus.generate_synthetic_corpus(
    work + "/wav", corpus.CorpusConfig(num_tracks=24), cfg.sample_rate_hz, seed=0)
records = corpus.extract_features(records, cfg, work + "/wav", work + "/feat")
print("corpus: %d tracks, BPM %g..%g"
      % (len(records), min(r.bpm for r in records),
         max(r.bpm for r in records)))

spec = AugmentationSpec(chain=("TS",))
train_cfg = encoder.TrainConfig(batch_pairs=8, total_steps=120,
                                warmup_steps=10, peak_lr=0.002)
mels = {r.track_id: corpus.load_track_mel(r, cfg, base_dir=work + "/feat")
        for r in records}
params, losses = encoder.train(records, mels, spec, train_cfg, seed=0)
print("trained with chain %s: loss %.3f -> %.3f"
      % (spec.chain, np.mean(losses[:10]), np.mean(losses[-10:])))

window = spec.output_frames(cfg)
emb = embedspace.build_embedding_set(mels.values(), params, window,
                                     provenance={"chain": "TS", "seed": 0})
emb.save(work + "/embeddings")
print("embedded %d tracks (dim %d), saved under %s"
      % (len(emb), emb.dim, work))

# a quick look at one track's neighborhood
seed_id = emb.ids[0]
bpm = {r.track_id: r.bpm for r in records}
print("neighbors of %s (%.0f BPM):" % (seed_id, bpm[seed_id]))
for tid, dist in embedspace.knn(emb, seed_id, 4):
    print("  %s  %.0f BPM  distance %.3f" % (tid, bpm[tid], dist))
