"""The benchmark's span tracer finds dgae functions by name.

dgaebench/tracer.py wraps every public function of the traced modules
and sums spans by name, so renaming a function it names would not fail
a benchmark run: the metric would read zero. These checks fail instead.
"""

import importlib
import inspect
import types
from pathlib import Path

from dgae import evaluation, training

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
