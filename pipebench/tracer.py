"""In-memory span tracer for the pipeline benchmark.

The traced run wraps the public functions listed in LAYERS. A wrapper
replaces every reference to the original function object in the
`embedloc` modules' namespaces, so each call goes through the wrapper
whichever module the program calls it from (for example `time_stretch`
is called through `embedloc.augment` by `apply_chain` and through
`embedloc.locality` by the sweep). Nothing under `src/` changes, and
`uninstall` puts every original back.

Each call records one span: name, start, end and the index of its
parent span. Spans stay in a list until the run ends.
"""

import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "embedloc"

# layer (module) -> wrapped public functions
LAYERS = {
    "augment": ("apply_chain", "time_stretch", "pitch_shift", "equalize",
                "random_resized_crop", "derive_rng"),
    "encoder": ("train", "pool_features", "encode", "ntxent_loss",
                "encode_backward"),
    "melfront": ("compute_mel", "build_filterbank", "load_pcm_wav",
                 "write_pcm_wav"),
    "corpus": ("generate_synthetic_corpus", "synthesize_track",
               "extract_features", "load_track_mel", "sample_pair"),
    "tensorio": ("write_tensor", "read_tensor"),
    "embedspace": ("embed_track", "knn"),
    "locality": ("tempo_rmms", "key_precision", "tag_precision",
                 "tag_retrieval", "manipulation_sweep"),
    "probe": ("train_probe", "estimate_tempo"),
}

# spans whose file size is recorded as bytes moved
BYTES_SPANS = ("tensorio.write_tensor", "tensorio.read_tensor")

MARKER = "__pipebench_span__"


def span_names():
    return ["%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns]


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def installed_wrappers():
    """(module, attribute) pairs that currently hold a tracing wrapper."""
    return [(m.__name__, key) for m in package_modules()
            for key, value in vars(m).items() if hasattr(value, MARKER)]


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, bytes]
        self.spans = []
        self._stack = []
        self._patches = []

    def begin(self, name):
        """Open a span; returns it."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, 0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        count_bytes = name in BYTES_SPANS
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            span = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
                if count_bytes and args and os.path.exists(args[0]):
                    span[4] = os.path.getsize(args[0])

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARKER, name)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, fns in LAYERS.items():
            module = by_name["%s.%s" % (PACKAGE, layer)]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._wrap("%s.%s" % (layer, fn_name), original)
                for m in modules:
                    namespace = vars(m)
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patches.append((m, key, original))
                            setattr(m, key, wrapper)

    def uninstall(self):
        while self._patches:
            m, key, original = self._patches.pop()
            setattr(m, key, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("open spans: %s" % [self.spans[i][0] for i in self._stack])
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per span name: call count, self time (duration minus the time its
    direct child spans cover) and bytes."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "bytes": 0})
    for i, (name, start, end, parent, nbytes) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
        entry["bytes"] += nbytes
    return dict(out)


def count_under(spans, name, ancestors):
    """Calls of `name` that have a span named in `ancestors` above them."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] in ancestors:
                total += 1
                break
            parent = spans[parent][3]
    return total


def write_spans(path, rounds):
    """Write the spans of each traced round as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for round_index, spans in rounds:
            for i, (name, start, end, parent, nbytes) in enumerate(spans):
                fh.write(json.dumps({"round": round_index, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "bytes": nbytes}) + "\n")
