"""The benchmark's span tracer finds dgae functions by name.

dgaebench/tracer.py wraps every public function of the traced modules
and sums spans by name, so renaming a function it names would not fail
a benchmark run: the metric would read zero. These checks fail instead.
"""

import importlib
import inspect
import types
from pathlib import Path

import numpy as np

from dgae import codec, evaluation, graphs, training

TRACER = Path(__file__).resolve().parents[1] / "dgaebench" / "tracer.py"

# span names tracer.cycle_samples matches in code rather than through
# CYCLE_TOTALS
MATCHED_BY_HAND = (
    "codec.decode", "codec.prepare_batch", "prior.pack_sequences",
    "training.generate_graphs", "training.train_autoencoder", "training.train_prior",
    "training.featurize_all", "training.adam_step", "quantize.ema_update",
    "evaluation.mmd", "evaluation.mmd_report",
)


def load_tracer():
    """tracer.py as a module, executed from its source so that importing
    it writes nothing next to it."""
    mod = types.ModuleType("dgaebench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_tracer_span_names_are_public_dgae_functions():
    tracer = load_tracer()
    names = list(tracer.CYCLE_TOTALS.values()) + list(MATCHED_BY_HAND)
    for name in names:
        short, attr = name.split(".")
        assert short in tracer.TRACED_MODULES, name
        module = importlib.import_module("dgae." + short)
        fn = getattr(module, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_generate_graphs_takes_step_times():
    # the tracer passes step_times by keyword unless a caller already
    # gave all six arguments by position
    params = list(inspect.signature(training.generate_graphs).parameters)
    assert params.index("step_times") == 5


def test_eval_setup_can_reset_the_orbit_tables(monkeypatch):
    # Eval.setup in dgaebench/run.py sets evaluation._ORBIT_TABLES to
    # None, if it exists, and calls graphlet_orbit_tables() so that
    # every set-up pays for building them; under another name the reset
    # would be skipped without an error
    assert hasattr(evaluation, "_ORBIT_TABLES")
    assert inspect.isfunction(evaluation.graphlet_orbit_tables)
    monkeypatch.setattr(evaluation, "_ORBIT_TABLES", None)
    tables = evaluation.graphlet_orbit_tables()
    assert tables is not None and evaluation._ORBIT_TABLES is tables
    assert evaluation.graphlet_orbit_tables() is tables


def test_tracer_reads_the_node_mask_of_decode(monkeypatch):
    # the tracer's pad ratio reads the (G, n) node mask as decode's
    # second positional argument on every decode span
    assert list(inspect.signature(codec.decode).parameters)[:2] == ["z", "node_mask"]
    cfg = training.ModelConfig(gnn_layers=1, state_width=4, mlp_hidden=4, d_latent=4,
                               partitions=2, codebook_size=3)
    rng = np.random.default_rng(0)
    model = training.AutoEncoderModel(cfg, rng)
    for cb in model.codebooks.codebooks:
        cb[...] = rng.standard_normal(cb.shape)
    model.codebooks.ema_counts[...] = 1.0  # seeded
    calls = []
    decode = codec.decode

    def capturing(*args, **kwargs):
        calls.append((args, kwargs))
        return decode(*args, **kwargs)

    monkeypatch.setattr(codec, "decode", capturing)
    samples = [rng.integers(0, 3, size=(n, 2)) for n in (3, 1, 3, 5)]
    assert len(training.decode_sequences(model, samples)) == len(samples)
    # one exact-size bucket per class count: the sets draw from 9 code
    # tuples, so some nodes share a tuple and decode as one class row
    classes = [len(np.unique(s, axis=0)) for s in samples]
    assert sum(classes) < sum(len(s) for s in samples)
    assert len(calls) == len(set(classes))
    tracer = load_tracer()
    for args, kwargs in calls:
        assert tracer._pad_ratio(args, kwargs) == {"pad_ratio": 1.0}


def test_tracer_times_every_optimizer_step_of_both_stages():
    # the tracer's per-step times read codec.prepare_batch,
    # prior.pack_sequences and training.adam_step as direct children of
    # the train_autoencoder and train_prior spans; an epoch loop in a
    # public function would nest them a level deeper and leave both
    # metrics empty without an error
    cfg = training.ModelConfig(gnn_layers=1, state_width=8, mlp_hidden=8, d_latent=4,
                               partitions=2, codebook_size=3, blocks=1, d_model=8, heads=2,
                               batch_size=4, epochs_ae=2, epochs_prior=2, t_init=3,
                               kmeans_samples=64)
    rng = np.random.default_rng(0)
    data = [graphs.gen_community_small(rng) for _ in range(10)]
    tracer = load_tracer()
    run = tracer.Tracer()
    run.install()
    try:
        model, ae = training.train_autoencoder(data, cfg)
        _, pr = training.train_prior(model, data, cfg)
    finally:
        run.uninstall()
    samples = tracer.cycle_samples(run.spans)
    assert ae["step"] == pr["step"] == 4  # 8 training graphs in batches of 4, 2 epochs
    assert len(samples["training.ae_step_s"]) == ae["step"]
    assert len(samples["training.prior_step_s"]) == pr["step"]
