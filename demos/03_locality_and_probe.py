"""Measure embedding-space locality: neighborhood metrics, a
manipulation sweep, and the tempo probe, comparing a time-stretch
trained encoder against a no-augmentation baseline.

Run: python3 demos/03_locality_and_probe.py
(takes a few minutes on a laptop CPU)
"""

import tempfile

import numpy as np

from embedloc import corpus, embedspace, encoder, locality, melfront, probe
from embedloc.augment import AugmentationSpec

work = tempfile.mkdtemp(prefix="embedloc-demo-")
cfg = melfront.MelConfig()

records = corpus.generate_synthetic_corpus(
    work + "/wav", corpus.CorpusConfig(num_tracks=48), cfg.sample_rate_hz, seed=0)
records = corpus.extract_features(records, cfg, work + "/wav", work + "/feat")
mels = {r.track_id: corpus.load_track_mel(r, cfg, base_dir=work + "/feat")
        for r in records}

window = AugmentationSpec().output_frames(cfg)
embeddings = {}
for name, chain in (("none", ()), ("TS", ("TS",))):
    spec = AugmentationSpec(chain=chain)
    train_cfg = encoder.TrainConfig(batch_pairs=16, total_steps=400,
                                    warmup_steps=20, peak_lr=0.002)
    params, _ = encoder.train(records, mels, spec, train_cfg, seed=0)
    embeddings[name] = (params,
                        embedspace.build_embedding_set(mels.values(), params,
                                                       window))

print("neighborhood metrics at k=8:")
for name, (_, emb) in embeddings.items():
    print("  %-4s tempo RMMS %.2f  key precision %.3f  tag precision %.3f"
          % (name, locality.tempo_rmms(emb, records, 8),
             locality.key_precision(emb, records, 8),
             locality.tag_precision(emb, records, 8)))

metrics = locality.MetricsConfig(stretch_grid=(0.5, 0.707, 1.0, 1.414, 2.0))
print("time-stretch sweep, mean embedding distance per factor:")
test_mels = [mels[r.track_id] for r in records if r.split == "test"]
for name, (params, _) in embeddings.items():
    sweep = locality.manipulation_sweep(test_mels, params, metrics, window)
    print("  %-4s %s" % (name, "  ".join("%.3f" % np.mean(sweep[f])
                                         for f in metrics.stretch_grid)))
print("  (a TS-trained encoder should be flatter: stretched copies stay close)")

# the tempo probe reads BPM back out of the embeddings
model, _ = probe.train_probe(embeddings["none"][1], records,
                             probe.ProbeConfig(total_steps=600), seed=0)
test = [r for r in records if r.split == "test"]
est = [probe.estimate_tempo(model, embeddings["none"][1].vector(r.track_id))
       for r in test]
tru = [r.bpm for r in test]
print("tempo probe on the baseline embedding: acc1 %.2f, acc2 %.2f"
      % (np.mean(probe.acc1_hits(est, tru)), np.mean(probe.acc2_hits(est, tru))))
