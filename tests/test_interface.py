"""The package's outward interface: options that were removed stay
removed, a run is fixed by its config alone (no environment variable is
read, and no config section changes after load), the names and configs
the pipeline benchmark relies on resolve,
serialized formats keep their bytes, tensor files are read and written
through two formats only, the package imports only the dependencies it
declares, and the demos run."""

import ast
import glob
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict, fields

import numpy as np
import pytest

from embedloc import (augment, corpus, embedspace, encoder, locality, melfront,
                      probe)
from embedloc.corpus import TrackRecord

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _env(**extra):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


# ---------------------------------------------------------------------------
# removed options

REMOVED = [
    (melfront.compute_mel, "filterbank"),
    (corpus.load_track_mel, "filterbank"),
    (augment.eq_offsets, "filterbank"),
    (augment.equalize, "filterbank"),
    (embedspace.track_windows, "hop_frames"),
    (embedspace.embed_track, "hop_frames"),
    (encoder.train, "loss_hook"),
    (corpus.generate_synthetic_corpus, "rng"),
    (corpus.sample_pair_offsets, "max_separation_s"),
    (probe.train_probe, "split"),
    (probe.acc1_hits, "tolerance"),
    (probe.acc2_hits, "tolerance"),
    (probe.acc2_hits, "octaves"),
    (probe.smooth_scores, "taps"),
    (augment.butterworth_magnitude, "order"),
    (augment.EqParams, "order"),
    (augment.AugmentationSpec, "rng_seed"),
    (encoder.TrainConfig, "rng_seed"),
    (probe.ProbeConfig, "rng_seed"),
    (encoder.train, "mel_config"),
    (encoder.train, "base_dir"),
    (encoder.train, "mel_cache"),
    (locality.manipulation_sweep, "provenance"),
    (locality.compute_neighborhood_report, "provenance"),
]


@pytest.mark.parametrize("fn,name", REMOVED,
                         ids=["%s-%s" % (fn.__qualname__, name) for fn, name in REMOVED])
def test_removed_parameter_is_gone(fn, name):
    assert name not in inspect.signature(fn).parameters


def test_apply_chain_needs_an_rng():
    rng = inspect.signature(augment.apply_chain).parameters["rng"]
    assert rng.default is inspect.Parameter.empty


@pytest.mark.parametrize("fn", [encoder.train, probe.train_probe,
                                corpus.generate_synthetic_corpus])
def test_training_needs_the_runs_seed_by_keyword(fn):
    seed = inspect.signature(fn).parameters["seed"]
    assert seed.kind is inspect.Parameter.KEYWORD_ONLY
    assert seed.default is inspect.Parameter.empty


def test_config_sections_are_the_training_configs_fields():
    from embedloc import cli
    assert cli.DEFAULT_CONFIG["train"] == asdict(encoder.TrainConfig())
    assert cli.DEFAULT_CONFIG["probe"] == asdict(probe.ProbeConfig())
    assert cli.DEFAULT_CONFIG["mel"] == asdict(melfront.MelConfig())
    # the sections whose defaults were once written out by hand keep them
    assert cli.DEFAULT_CONFIG["corpus"] == {
        "num_tracks": 48, "duration_s": 16.0, "test_fraction": 0.25}
    assert cli.DEFAULT_CONFIG["augmentation"] == {
        "chain": [], "context_seconds": 4.5, "output_seconds": 3.0}
    assert cli.DEFAULT_CONFIG["metrics"] == {
        "k_grid": [1, 2, 4, 8],
        "stretch_grid": [2.0 ** (i / 8.0) for i in range(-8, 9)],
        "pitch_grid": list(range(-12, 13)), "sweep_kind": "time_stretch"}
    # the defaults load as each section's type built with no arguments
    run = cli.load_config()
    assert list(cli.DEFAULT_CONFIG) == ["seed", "paths"] + list(cli.SECTIONS)
    for name, section in cli.SECTIONS.items():
        assert getattr(run, name) == section()


def _int_fields():
    """(section, field) of every int field of every config section."""
    from embedloc import cli
    return [(name, f.name) for name, section in cli.SECTIONS.items()
            for f in fields(section) if f.type is int]


@pytest.mark.parametrize("section,field", _int_fields(),
                         ids=["%s.%s" % pair for pair in _int_fields()])
def test_every_int_config_field_at_maxsize_exits_2_at_load(tmp_path, capsys,
                                                           section, field):
    # a size field added later is covered without editing this test
    from embedloc import cli
    item = "%s.%s=%d" % (section, field, sys.maxsize)
    out = tmp_path / "out"
    assert cli.main(["report", "--set", item,
                     "--set", 'paths.output_dir="%s"' % out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--set %s" % item in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _package_trees():
    """(path, parsed module) of each module of src/embedloc."""
    for path in glob.glob(os.path.join(SRC, "embedloc", "*.py")):
        with open(path, encoding="utf-8") as fh:
            yield path, ast.parse(fh.read(), path)


def test_the_package_reads_no_environment_variable():
    # the seed and every other setting come from the config and --set only
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = [(os.path.basename(path), node.lineno)
             for path, tree in _package_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.Name) and node.id in names
             or isinstance(node, ast.alias) and node.name in names]
    assert reads == []


def test_every_config_section_is_frozen():
    from embedloc import cli
    run = cli.load_config()
    for name in cli.SECTIONS:
        section = getattr(run, name)
        field = fields(section)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(section, field, getattr(section, field))


def _array_holders(num_bands):
    """One instance of each dataclass that holds numpy arrays."""
    cfg = melfront.MelConfig(num_bands=num_bands)
    return (melfront.MelSpectrogram(values=np.zeros((num_bands, 4)), config=cfg),
            encoder.Mlp.init(3, 4, 2, np.random.default_rng(0)),
            embedspace.EmbeddingSet(ids=["a", "b"], matrix=np.eye(2)),
            melfront.build_filterbank(cfg))


def test_array_holders_compare_by_identity_and_hash():
    # a generated field-wise == compares arrays and raises ValueError, and
    # a frozen one hashes them and raises TypeError
    first, second = _array_holders(96), _array_holders(64)
    for a, b in zip(first, second):
        assert a == a and a != b and a in [b, a] and b not in [a]
        assert hash(a) == hash(a) and len({a, b}) == 2
    with pytest.raises(FrozenInstanceError):
        first[3].bin_hz = None


# ---------------------------------------------------------------------------
# what pipebench relies on

def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "pipebench_tracer", os.path.join(ROOT, "pipebench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves():
    layers = _load_tracer().LAYERS
    for layer, names in layers.items():
        module = importlib.import_module("embedloc." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (layer, name)


# importing run.py sets the BLAS thread variables, so it runs in a child
WORKLOAD_CONFIGS = """
import json, os, sys, tempfile
sys.path.insert(0, os.path.join(os.getcwd(), "pipebench"))
import run
from embedloc import cli
hashes = {}
with tempfile.TemporaryDirectory() as d:
    for name, spec in run.WORKLOADS.items():
        path = os.path.join(d, name + ".json")
        with open(path, "w") as fh:
            json.dump(run.round_config(spec, "round"), fh)
        hashes[name] = cli.config_hash(cli.load_config(path))
print(json.dumps(hashes))
"""


def test_every_workload_config_loads_with_a_pinned_hash():
    done = subprocess.run([sys.executable, "-c", WORKLOAD_CONFIGS], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    hashes = json.loads(done.stdout.splitlines()[-1])
    assert set(hashes) == {"augmented-train", "crop-train", "catalog"}
    # the config sections come from dataclasses.asdict; the hash is the
    # one the hand-written field lists gave without the rng_seed keys
    assert hashes["catalog"] == "521c270172a45aa7"


# ---------------------------------------------------------------------------
# serialized formats

def test_manifest_bytes_are_pinned(tmp_path):
    path = tmp_path / "m.jsonl"
    corpus.write_manifest(path, [
        TrackRecord("a", "a.wav", 16.0, bpm=120.0, key_label="C:maj",
                    tags=("sine", "dense-rhythm")),
        TrackRecord("b", "b.emlt", 20.0, split="test")])
    assert path.read_bytes() == (
        b'{"track_id": "a", "feature_path": "a.wav", "duration_s": 16.0, "bpm": 120.0,'
        b' "key_label": "C:maj", "tags": ["sine", "dense-rhythm"], "split": "train"}\n'
        b'{"track_id": "b", "feature_path": "b.emlt", "duration_s": 20.0, "bpm": null,'
        b' "key_label": null, "tags": [], "split": "test"}\n')


# ---------------------------------------------------------------------------
# dependencies

def test_package_imports_exactly_its_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")    # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared}
    imported = set()
    for _, tree in _package_trees():
        for node in ast.walk(tree):     # function-local imports count too
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared == {"numpy"}


def _users(name):
    """The functions of src/embedloc that refer to `name`, as
    "module.function" or "module.Class.method" ("module" at top level)."""
    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                users.add(".".join(scope))
            visit(child, scope)

    for path, tree in _package_trees():
        visit(tree, [os.path.splitext(os.path.basename(path))[0]])
    return users


@pytest.mark.parametrize("name,users", [
    ("read_tensor", {"tensorio.load_params", "melfront.MelSpectrogram.load"}),
    ("write_tensor", {"tensorio.save_params", "melfront.MelSpectrogram.save"}),
])
def test_tensor_files_are_read_and_written_by_two_formats_only(name, users):
    # spectrograms are single tensors; every other tensor artifact is a
    # tensor set, read and written through one header format
    assert _users(name) == users


def test_cli_imports_without_scipy():
    code = ("import sys, embedloc.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_loads_every_module_of_the_package():
    # a module that no command loads belongs with whatever uses it
    code = ("import sys, embedloc.cli; print(sorted(m for m in sys.modules"
            " if m == 'embedloc' or m.startswith('embedloc.')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    files = glob.glob(os.path.join(SRC, "embedloc", "*.py"))
    modules = sorted("embedloc" if name == "__init__" else "embedloc." + name
                     for name in (os.path.basename(f)[:-3] for f in files))
    assert done.stdout.strip() == repr(modules)


def test_signal_oracles_are_not_in_the_package():
    # they live with the tests they serve (tests/oracles.py)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("embedloc.analysis")


def test_cli_imports_without_numpy_ma():
    code = ("import sys, embedloc.cli; print(sorted(m for m in sys.modules"
            " if m == 'numpy.ma' or m.startswith('numpy.ma.')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# demos

@pytest.mark.parametrize("demo,expect", [
    ("01_mel_and_augmentations.py", "lowpass EQ at 3000 Hz"),
    ("02_contrastive_training.py", "neighbors of"),
    pytest.param("03_locality_and_probe.py", "tempo probe on the baseline embedding",
                 marks=pytest.mark.slow),
])
def test_demo_runs(tmp_path, demo, expect):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=_env(TMPDIR=str(tmp_path)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout
