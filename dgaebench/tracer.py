"""Span tracing of the dgae package from outside it.

`Tracer.install()` replaces every public function of the traced dgae
modules, and `autodiff.Tensor.backward`, with a timing wrapper by
attribute assignment, including the names other dgae modules imported
with `from ... import`. Each call records a span [name, start, end,
parent, extra] in memory; `uninstall()` puts the originals back.

A span's layer is its module. Layer self time is the span's duration
minus the time covered by nested spans of other layers, so a function
keeps the time of the same-module helpers it calls and the layer self
times along one blocking path add up to its wall time.

Autodiff primitives (add, matmul, ...) are not wrapped: a decode makes
thousands of them, and the wrappers would cost more than the work.
"""

import contextlib
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc

TRACED_MODULES = ("codec", "quantize", "prior", "training", "features", "graphs",
                  "evaluation")
BACKWARD = "autodiff.Tensor.backward"


def _wants_peak(name, parent_name):
    """Spans whose tracemalloc peak is recorded: each decode chunk of
    generation and each MMD statistic."""
    return (name == "evaluation.mmd"
            or (name == "codec.decode" and parent_name == "training.decode_sequences"))


def _pad_ratio(args, kwargs):
    """Useful share of a padded decode batch: sum n^2 / (B * n_pad^2)."""
    mask = args[1] if len(args) > 1 else kwargs["node_mask"]
    sizes = mask.sum(axis=1)
    B, n_pad = mask.shape
    return {"pad_ratio": float((sizes * sizes).sum() / (B * n_pad * n_pad))}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, extra or None]
        self.step_times = []     # per generate call: [(t, seconds, active rows)]
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- recording ----------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(idx)
        return idx, (self.spans[parent][0] if parent >= 0 else None)

    def _close(self, idx, start):
        end = time.perf_counter()
        self._stack.pop()
        rec = self.spans[idx]
        rec[1], rec[2] = start, end

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark itself opens, e.g. around a CLI command."""
        idx, _ = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx, parent_name = tracer._open(name)
            extra = {}
            if name == "codec.decode":
                extra.update(_pad_ratio(args, kwargs))
            if name == "training.generate_graphs" and len(args) < 6 \
                    and kwargs.get("step_times") is None:
                kwargs["step_times"] = []
                tracer.step_times.append(kwargs["step_times"])
            peak = _wants_peak(name, parent_name) and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, start)
                if peak:
                    extra["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                tracer.spans[idx][4] = extra or None

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        autodiff = importlib.import_module("dgae.autodiff")
        wrappers = {}  # id(original) -> wrapper
        for short in TRACED_MODULES:
            mod = importlib.import_module("dgae." + short)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        # patch every dgae module namespace that holds an original,
        # so `from .graphs import load_dataset` callers are traced too
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "dgae" or modname.startswith("dgae.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        original = autodiff.Tensor.backward
        self._patches.append((autodiff.Tensor, "backward", original))
        autodiff.Tensor.backward = self._wrap(BACKWARD, original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# ---------------------------------------------------------------------------
# analysis of one traced cycle

def _layer(name):
    return name.split(".", 1)[0]


def layer_self_times(spans):
    """Per span: duration minus the time of nested spans of other
    layers (searched through same-layer descendants)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def foreign(i, layer):
        total = 0.0
        for c in children[i]:
            if _layer(spans[c][0]) == layer:
                total += foreign(c, layer)
            else:
                total += spans[c][2] - spans[c][1]
        return total

    return [s[2] - s[1] - foreign(i, _layer(s[0])) for i, s in enumerate(spans)]


def _has_ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def _step_times(spans, loop_name, start_name, end_names):
    """Wall time of each optimizer step inside `loop_name`: from the
    latest `start_name` child to the end of the `training.adam_step`
    child and any `end_names` children right after it."""
    out = []
    for li, loop in enumerate(spans):
        if loop[0] != loop_name:
            continue
        kids = [i for i, s in enumerate(spans) if s[3] == li]
        start = None
        for k, i in enumerate(kids):
            name = spans[i][0]
            if name == start_name:
                start = spans[i][1]
            elif name == "training.adam_step" and start is not None:
                end = spans[i][2]
                if k + 1 < len(kids) and spans[kids[k + 1]][0] in end_names:
                    end = spans[kids[k + 1]][2]
                out.append(end - start)
                start = None
    return out


# per-cycle totals of layer self time: metric -> span name
CYCLE_TOTALS = {
    "codec.encode_s": "codec.encode",
    "codec.recon_loss_s": "codec.recon_loss",
    "codec.prepare_batch_s": "codec.prepare_batch",
    "codec.sample_graph_s": "codec.sample_graph",
    "quantize.quantize_s": "quantize.quantize",
    "quantize.ema_update_s": "quantize.ema_update",
    "quantize.init_codebooks_s": "quantize.init_codebooks",
    "prior.nll_forward_s": "prior.prior_nll",
    "prior.generate_s": "prior.generate",
    "training.clip_gradients_s": "training.clip_gradients",
    "training.adam_step_s": "training.adam_step",
    "training.evaluate_autoencoder_s": "training.evaluate_autoencoder",
    "training.encode_sequences_s": "training.encode_sequences",
    "training.decode_sequences_s": "training.decode_sequences",
    "training.load_checkpoint_s": "training.load_checkpoint",
    "graphs.save_dataset_s": "graphs.save_dataset",
    "graphs.load_dataset_s": "graphs.load_dataset",
    "evaluation.graph_stats_s": "evaluation.graph_stats",
    "evaluation.node_orbit_counts_s": "evaluation.node_orbit_counts",
}
MMD_ORDER = ("degree", "clustering", "orbit")  # order of the mmd calls in mmd_report


def cycle_samples(spans):
    """Samples of one traced cycle: {metric: list of values}. Totals
    are one value per cycle; per-step, per-chunk and per-statistic
    metrics give one value per occurrence. A metric whose spans did
    not occur is absent."""
    self_t = layer_self_times(spans)
    out = {}
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(metric, indices):
        if indices:
            out[metric] = [sum(self_t[i] for i in indices)]

    for metric, name in CYCLE_TOTALS.items():
        total(metric, by_name.get(name, ()))
    # featurize_all is a training function; the features layer's work
    # is the spans it calls directly (augment, with its helpers)
    featurize = set(by_name.get("training.featurize_all", ()))
    total("features.featurize_all_s", [
        i for i, s in enumerate(spans) if s[3] in featurize and _layer(s[0]) == "features"])
    total("codec.decode_train_s", [i for i in by_name.get("codec.decode", ())
                                   if _has_ancestor(spans, i, "training.train_autoencoder")])
    for metric, loop in (("autodiff.backward_ae_s", "training.train_autoencoder"),
                         ("autodiff.backward_prior_s", "training.train_prior")):
        total(metric, [i for i in by_name.get(BACKWARD, ()) if _has_ancestor(spans, i, loop)])
    for i in by_name.get("codec.decode", ()):
        if _has_ancestor(spans, i, "training.decode_sequences"):
            extra = spans[i][4] or {}
            out.setdefault("codec.decode_chunk_s", []).append(self_t[i])
            out.setdefault("_decode_chunk_peak_mb", []).append(extra.get("peak_mb", 0.0))
            out.setdefault("_decode_pad_ratio", []).append(extra.get("pad_ratio", 0.0))
    out["training.ae_step_s"] = _step_times(
        spans, "training.train_autoencoder", "codec.prepare_batch", ("quantize.ema_update",))
    out["training.prior_step_s"] = _step_times(
        spans, "training.train_prior", "prior.pack_sequences", ())
    for ri in by_name.get("evaluation.mmd_report", ()):
        calls = [i for i in by_name.get("evaluation.mmd", ()) if spans[i][3] == ri]
        for stat, i in zip(MMD_ORDER, calls):
            out.setdefault(f"evaluation.mmd_{stat}_s", []).append(self_t[i])
            out.setdefault("_mmd_peak_mb", []).append((spans[i][4] or {}).get("peak_mb", 0.0))
    return out


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    v = sorted(values)
    k = max(1, -(-len(v) * q // 100))
    return v[int(k) - 1]


def median(values):
    return statistics.median(values) if values else 0.0
