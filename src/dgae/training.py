"""Two-stage training: auto-encoder with EMA codebooks, then the autoregressive
prior over the frozen encoder's quantized sequences. Both stages run one epoch
loop; a stage supplies only its batch loss and its holdout metrics.

Everything is driven by one ModelConfig so runs are reproducible from
(config, seed) alone. Checkpoints are a single binary file carrying a
config echo, step count, and every named tensor.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import codec, prior, quantize
from .autodiff import Tensor, straight_through
from .features import augment, feature_widths
from .prior import read_exact


class ConfigError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class ModelConfig:
    # data
    node_categories: int = 1
    edge_categories: int = 2
    n_max: int = 20
    seed: int = 0
    holdout_frac: float = 0.2
    # features
    feat_paths: bool = True
    feat_spectral: bool = True
    feat_cycles: bool = True
    feat_random: bool = True
    feat_p: int = 3
    feat_k: int = 4
    feat_d_rand: int = 4
    # encoder / decoder
    gnn_layers: int = 2
    state_width: int = 32
    mlp_hidden: int = 64
    d_latent: int = 16
    # quantizer
    partitions: int = 2
    codebook_size: int = 16
    beta: float = 0.25
    gamma: float = 0.1
    ema_decay: float = 0.99
    ema_eps: float = 1e-5
    t_init: int = 0
    kmeans_samples: int = 10000
    # prior
    blocks: int = 3
    d_model: int = 64
    heads: int = 16
    ffn_layers: int = 4
    # optimization
    batch_size: int = 32
    lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_eps: float = 1e-8
    lr_decay: float = 0.5
    decay_interval: int = 10000
    clip_norm: float = 5.0
    epochs_ae: int = 200
    epochs_prior: int = 200
    # evaluation
    mmd_sigma: float = 1.0
    clustering_bins: int = 100

    def violations(self):
        # a float field takes an int, and bool, a subclass of int, fits bool fields only
        wrong = [f"{key} must be of type {FIELD_TYPES[key]}, got {x!r}"
                 for key, x in vars(self).items()
                 if not isinstance(x, _ACCEPTS[FIELD_TYPES[key]])
                 or isinstance(x, bool) != (FIELD_TYPES[key] == "bool")]
        if wrong:
            return wrong  # the checks below compare values of the right type
        v = [f"{key} must be finite" for key, x in vars(self).items()
             if isinstance(x, float) and not math.isfinite(x)]
        for fields, low, high, ends in _BOUNDS:
            for key in fields.split():
                x = getattr(self, key)
                if not ((low <= x if ends[0] == "[" else low < x)
                        and (high is None or (x <= high if ends[1] == "]" else x < high))):
                    v.append(f"{key} must be {'>=' if ends == '[' else '>'} {low}" if high is None
                             else f"{key} must be in {ends[0]}{low}, {high}{ends[1]}")
        if self.feat_spectral and self.feat_k < 1:
            v.append("feat_k must be >= 1 when spectral features are on")
        if self.feat_random and self.feat_d_rand < 0:
            v.append("feat_d_rand must be >= 0")
        if self.d_latent % max(self.partitions, 1) != 0:
            v.append(f"d_latent={self.d_latent} not divisible by partitions={self.partitions}")
        if self.heads >= 1 and self.d_model % self.heads != 0:
            v.append(f"d_model={self.d_model} not divisible by heads={self.heads}")
        return v

    def validate(self):
        v = self.violations()
        if v:
            raise ConfigError("invalid config: " + "; ".join(v))

    def to_dict(self):
        return dataclasses.asdict(self)


FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ModelConfig)}  # name -> "int", ...
# (fields, low, high, ends): each field's value lies between low and high,
# high None for no upper bound; "[" and "]" close an end, "(" and ")" open it
_BOUNDS = [
    ("node_categories n_max gnn_layers state_width mlp_hidden d_latent partitions "
     "codebook_size kmeans_samples blocks d_model heads ffn_layers batch_size "
     "decay_interval clustering_bins", 1, None, "["),
    ("edge_categories", 2, None, "["),
    ("seed t_init epochs_ae epochs_prior", 0, None, "["),
    ("ema_eps lr clip_norm mmd_sigma", 0, None, "("),
    ("holdout_frac ema_decay", 0, 1, "[)"),
    ("lr_decay", 0, 1, "(]"),
    ("feat_p", 1, 3, "[]"),
]
_ACCEPTS = {"bool": bool, "int": int, "float": (int, float)}


def config_from_dict(d) -> ModelConfig:
    unknown = sorted(set(d) - set(FIELD_TYPES))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    cfg = ModelConfig(**d)
    cfg.validate()
    return cfg


# the settings that shape an AutoEncoderModel's tensors or its input features
AE_FIELDS = ("node_categories", "edge_categories", "feat_paths", "feat_spectral", "feat_cycles",
             "feat_random", "feat_p", "feat_k", "feat_d_rand", "gnn_layers", "state_width",
             "mlp_hidden", "d_latent", "partitions", "codebook_size")


class AutoEncoderModel:
    """Encoder, decoder and codebooks. self.state is their named table,
    filled as they are built: a Tensor entry is trained, an array entry
    is a buffer; every entry is saved."""

    def __init__(self, cfg: ModelConfig, rng):
        fn, fe = feature_widths(cfg)
        self.state = {}
        self.encoder = codec.EncoderParams(self.state, "enc", rng, fn, fe, cfg.state_width,
                                           cfg.mlp_hidden, cfg.gnn_layers, cfg.d_latent)
        self.decoder = codec.DecoderParams(self.state, "dec", rng, cfg.d_latent,
                                           cfg.state_width, cfg.mlp_hidden, cfg.gnn_layers,
                                           cfg.node_categories, cfg.edge_categories)
        cbs = self.codebooks = quantize.CodebookSet(cfg.partitions, cfg.codebook_size,
                                                    cfg.d_latent, cfg.ema_decay, cfg.ema_eps)
        # one entry per partition: views of the stacked arrays
        for c in range(cbs.C):
            self.state[f"quant.cb{c}"] = cbs.codebooks[c]
            self.state[f"quant.count{c}"] = cbs.ema_counts[c]
            self.state[f"quant.sum{c}"] = cbs.ema_sums[c]


def parameters(state):
    """The trained Tensors of a state table, in table order."""
    return {name: v for name, v in state.items() if isinstance(v, Tensor)}


def state_arrays(*states):
    """The array of every entry of the state tables: a Tensor's data,
    or the buffer itself."""
    return {name: v.data if isinstance(v, Tensor) else v
            for state in states for name, v in state.items()}


def load_state(state, tensors, path):
    """Copy the named arrays `tensors` of the checkpoint file `path`
    into the state table, which must hold exactly their names and
    shapes, and finite values only."""
    arrays = state_arrays(state)
    missing = sorted(set(arrays) - set(tensors))
    extra = sorted(set(tensors) - set(arrays))
    if missing or extra:
        raise ValueError(f"{path}: checkpoint mismatch; missing={missing} extra={extra}")
    for name, arr in arrays.items():
        src = tensors[name]
        if src.shape != arr.shape:
            raise ValueError(f"{path}: tensor {name}: shape {src.shape} != {arr.shape}")
        if src.dtype.kind == "f" and not np.isfinite(src).all():
            raise ValueError(f"{path}: tensor {name} has non-finite values")
        arr[...] = src


# ---------------------------------------------------------------------------
# checkpoint file format

_CKPT_MAGIC = b"DGAE"
_CKPT_VERSION = 1
_DTYPES = {0: "<f8", 1: "<i8"}
_DTYPE_CODES = {"<f8": 0, "<i8": 1}


def save_checkpoint(path, cfg: ModelConfig, tensors, step):
    """Atomic single-file save: JSON header {"config", "step"} plus named raw tensors."""
    header = {"config": cfg.to_dict(), "step": int(step)}
    blob = json.dumps(header, sort_keys=True).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name])
            code = _DTYPE_CODES.get(arr.dtype.newbyteorder("<").str)
            if code is None:
                raise ValueError(f"tensor {name}: unsupported dtype {arr.dtype}")
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<BB", code, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype(_DTYPES[code], copy=False).tobytes())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Returns (config, tensors dict, {"step": step}); other header keys are ignored."""
    with open(path, "rb") as f:
        if f.read(4) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, blob_len = struct.unpack("<II", read_exact(f, 8, path, "header length"))
        if version != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        blob = read_exact(f, blob_len, path, "header")
        try:
            header = json.loads(blob)
            cfg = config_from_dict(header["config"])
            meta = {"step": header["step"]}
        except (ValueError, KeyError, TypeError) as e:
            raise ValueError(f"{path}: bad checkpoint header: {e}") from e
        (count,) = struct.unpack("<I", read_exact(f, 4, path, "tensor count"))
        tensors = {}
        for i in range(count):
            (name_len,) = struct.unpack("<H", read_exact(f, 2, path, f"tensor {i}"))
            try:
                name = read_exact(f, name_len, path, f"tensor {i}").decode()
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: tensor {i} has a name that is not UTF-8") from e
            field = f"tensor {name}"
            code, rank = struct.unpack("<BB", read_exact(f, 2, path, field))
            if code not in _DTYPES:
                raise ValueError(f"{path}: {field} has unknown dtype code {code}")
            shape = struct.unpack(f"<{rank}I", read_exact(f, 4 * rank, path, field))
            dtype = np.dtype(_DTYPES[code])
            nbytes = math.prod(shape) * dtype.itemsize
            data = read_exact(f, nbytes, path, field)
            tensors[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after {count} tensors")
    return cfg, tensors, meta


# ---------------------------------------------------------------------------
# optimization

class AdamState:
    def __init__(self, params, beta1=0.9, beta2=0.99, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for t in params.values():
            if t.grad is not None:
                t.grad = t.grad * scale
    return float(norm)


def adam_step(params, state: AdamState, lr):
    """One bias-corrected Adam update in place; zero grads afterwards.

    Raises TrainingDiverged if any gradient is non-finite.
    """
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name in sorted(params):
        t = params[name]
        g = t.grad
        if g is None:
            raise TrainingDiverged(f"no gradient reached {name}; parameter is "
                                   "disconnected from the loss")
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in {name} at update {state.t}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        t.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        t.grad = None


def _lr_at(cfg: ModelConfig, step):
    return cfg.lr * (cfg.lr_decay ** (step // cfg.decay_interval))


# ---------------------------------------------------------------------------
# data plumbing

def featurize_all(graphs, cfg: ModelConfig):
    """Augment every graph once, with a per-graph random-feature stream
    spawned from the config seed so the result is order-stable.
    """
    children = np.random.SeedSequence([cfg.seed, 0xFEA7]).spawn(len(graphs))
    return [augment(g, cfg, np.random.default_rng(children[i]))
            for i, g in enumerate(graphs)]


def split_dataset(count, cfg: ModelConfig):
    """Deterministic holdout split: (train_idx, val_idx). Raises
    ValueError when no graph is left to train on."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5917]))
    perm = rng.permutation(count)
    k = int(round(count * cfg.holdout_frac))
    if k == count:
        raise ValueError("empty training split")
    return np.sort(perm[k:]), np.sort(perm[:k])


def _batches(items, batch_size, order=None):
    """Lists of up to batch_size items, in `order` (their positions) or in list order."""
    order = range(len(items)) if order is None else order
    for i in range(0, len(order), batch_size):
        yield [items[j] for j in order[i:i + batch_size]]


class MetricsWriter:
    """A run's per-epoch record: add keeps it in .history, writes its CSV
    row to path and logs it through log; leaving the `with` closes the CSV."""

    HEADER = "step,loss_recon,loss_commit,nll,perplexity,node_err,edge_err"

    def __init__(self, path, log=None):
        self.log = log
        self.history = []
        self.f = open(path, "w") if path else None
        if self.f:
            self.f.write(self.HEADER + "\n")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.f:
            self.f.close()

    def add(self, epoch, step, metrics):
        self.history.append({**metrics, "epoch": epoch, "step": step})
        if self.f:
            vals = [metrics.get(key) for key in self.HEADER.split(",")[1:]]
            cells = [str(step)] + ["" if v is None else format(float(v), ".10g") for v in vals]
            self.f.write(",".join(cells) + "\n")
        if self.log and metrics:
            self.log(f"epoch {epoch}: " + " ".join(f"{k}={v:.5f}" for k, v in metrics.items()))


def _fit(cfg, params, items, shuffle_rng, epochs, step_loss, evaluate, metrics_path, log):
    """The epoch loop of both stages: per epoch, shuffle items, take one clipped Adam
    step per batch on the loss Tensor step_loss(batch items, step), which must be
    finite, and record evaluate(). Returns {"history", "step"}."""
    adam = AdamState(params, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    step = 0
    with MetricsWriter(metrics_path, log) as records:
        for epoch in range(epochs):
            for batch in _batches(items, cfg.batch_size, shuffle_rng.permutation(len(items))):
                loss = step_loss(batch, step)
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(f"non-finite loss at step {step}")
                loss.backward()
                clip_gradients(params, cfg.clip_norm)
                adam_step(params, adam, _lr_at(cfg, step))
                step += 1
            records.add(epoch, step, evaluate())
    return {"history": records.history, "step": step}


# ---------------------------------------------------------------------------
# stage 1: auto-encoder

def _ae_pass(model: AutoEncoderModel, batch, train):
    """Encode, quantize once the codebooks exist (straight-through,
    with the commitment loss), decode and score one batch.

    Returns (recon, commit, idx, z, (node_logits, edge_logits)) with
    the encoder rows z as an array; commit and the code indices idx are
    None while the codebooks are unset.
    """
    z = codec.encode(batch, model.encoder, train=train)
    latent, commit, idx = z, None, None
    cbs = model.codebooks
    if cbs.initialized:
        idx, words = quantize.quantize(z.data, cbs)
        latent = straight_through(z, Tensor(words))
        commit = quantize.commitment_loss(z, words, cbs.C)
    logits = codec.decode(latent, batch.node_mask, model.decoder, train=train)
    return codec.recon_loss(*logits, batch), commit, idx, z.data, logits


@ad.no_grad()
def _collect_embeddings(model: AutoEncoderModel, aug_train, cfg: ModelConfig):
    """Up to cfg.kmeans_samples node embedding rows (N, d_latent).

    Uses batch statistics (the running buffers are untrained when the
    codebooks are seeded) and restores the buffers afterwards, so
    collection has no side effects.
    """
    saved = {k: v.copy() for k, v in model.state.items() if not isinstance(v, Tensor)}
    try:
        rows = []
        total = 0
        for graphs in _batches(aug_train, cfg.batch_size):
            z = codec.encode(codec.prepare_batch(graphs), model.encoder, train=True).data
            rows.append(z)
            total += z.shape[0]
            if total >= cfg.kmeans_samples:
                break
    finally:
        for k, v in saved.items():
            model.state[k][...] = v
    return np.concatenate(rows, axis=0)[:cfg.kmeans_samples]


@ad.no_grad()
def evaluate_autoencoder(model: AutoEncoderModel, aug_val, cfg: ModelConfig):
    """Holdout metrics in eval mode; quantized path once codebooks exist.

    Each metric pools over the whole holdout set, so none depends on
    cfg.batch_size: loss_recon averages over graphs, loss_commit over
    node x partition slots, node_err over nodes and edge_err over
    ordered pairs i != j.
    """
    if not aug_val:
        return {}
    recon_sum = commit_sum = node_errs = pair_errs = nodes = pairs = 0
    codes = []
    for graphs in _batches(aug_val, cfg.batch_size):
        batch = codec.prepare_batch(graphs)
        recon, commit, idx, _, logits = _ae_pass(model, batch, train=False)
        recon_sum += float(recon.data) * len(graphs)
        b_nodes = len(batch.node_targets)
        ne, ee = codec.error_counts(*logits, batch)
        node_errs, nodes = node_errs + ne, nodes + b_nodes
        pair_errs, pairs = pair_errs + ee, pairs + len(batch.edge_targets)
        if commit is not None:
            commit_sum += float(commit.data) * b_nodes * cfg.partitions
            codes.append(idx)
    out = {"loss_recon": recon_sum / len(aug_val), "node_err": node_errs / nodes,
           "edge_err": pair_errs / max(pairs, 1)}
    if codes:
        out["loss_commit"] = commit_sum / (nodes * cfg.partitions)
        out["perplexity"] = quantize.perplexity(np.concatenate(codes),
                                                cfg.codebook_size ** cfg.partitions)
    return out


def train_autoencoder(graphs, cfg: ModelConfig, metrics_path=None, log=None):
    """Stage 1. Returns (model, {"history": per-epoch dicts, "step": steps taken})."""
    cfg.validate()
    for g in graphs:
        if g.n > cfg.n_max:
            raise ValueError(f"graph with {g.n} nodes exceeds n_max={cfg.n_max}")
    root = np.random.SeedSequence([cfg.seed, 0xAE])
    init_rng, shuffle_rng, kmeans_rng = [np.random.default_rng(s) for s in root.spawn(3)]

    aug = featurize_all(graphs, cfg)
    train_idx, val_idx = split_dataset(len(graphs), cfg)
    aug_train = [aug[i] for i in train_idx]
    aug_val = [aug[i] for i in val_idx]

    model = AutoEncoderModel(cfg, init_rng)

    def seed_codebooks(step):
        if not model.codebooks.initialized and step >= cfg.t_init:
            samples = _collect_embeddings(model, aug_train, cfg)
            quantize.init_codebooks(model.codebooks, samples, kmeans_rng)

    def step_loss(items, step):
        seed_codebooks(step)
        recon, commit, idx, z, _ = _ae_pass(model, codec.prepare_batch(items), train=True)
        if commit is None:
            return recon
        quantize.ema_update(model.codebooks, z, idx)
        return recon + cfg.gamma * cfg.beta * commit

    info = _fit(cfg, parameters(model.state), aug_train, shuffle_rng, cfg.epochs_ae, step_loss,
                lambda: evaluate_autoencoder(model, aug_val, cfg), metrics_path, log)
    if cfg.epochs_ae > 0:
        seed_codebooks(info["step"])
    return model, info


# ---------------------------------------------------------------------------
# stage 2: prior over quantized sequences

@ad.no_grad()
def encode_sequences(model: AutoEncoderModel, aug_graphs, cfg: ModelConfig):
    """Deterministic preprocessing: embed, quantize, sort each graph."""
    if not model.codebooks.initialized:
        raise RuntimeError("auto-encoder codebooks are uninitialized; train stage 1 first")
    seqs = []
    for graphs in _batches(aug_graphs, cfg.batch_size):
        batch = codec.prepare_batch(graphs)
        z = codec.encode(batch, model.encoder, train=False)
        idx, _ = quantize.quantize(z.data, model.codebooks)
        seqs += [prior.sort_set(s) for s in np.split(idx, np.cumsum(batch.sizes)[:-1])]
    return seqs


@ad.no_grad()
def evaluate_prior(pparams: prior.PriorParams, seqs, codebooks, cfg: ModelConfig):
    """Holdout NLL of sorted index sequences in cfg.batch_size slices,
    pooled over the targets that are not prior.IGNORE (C per node, one
    end-of-set each), so memory does not grow with the holdout."""
    if not seqs:
        return {}
    nll_sum = slots = 0
    for chunk in _batches(seqs, cfg.batch_size):
        batch = prior.pack_sequences(chunk, cfg.n_max, codebooks)
        k = np.count_nonzero(batch.targets != prior.IGNORE)
        nll_sum += float(prior.prior_nll(pparams, batch).data) * k
        slots += k
    return {"nll": nll_sum / slots}


def train_prior(model: AutoEncoderModel, graphs, cfg: ModelConfig,
                metrics_path=None, log=None, cache_path=None):
    """Stage 2. Returns (prior.PriorParams, {"history": per-epoch dicts, "step": steps})."""
    cfg.validate()
    aug = featurize_all(graphs, cfg)
    train_idx, val_idx = split_dataset(len(graphs), cfg)
    seqs = encode_sequences(model, aug, cfg)
    if cache_path:
        prior.write_sequences(cache_path, cfg.codebook_size, cfg.partitions, seqs)
    train_seqs = [seqs[i] for i in train_idx]
    val_seqs = [seqs[i] for i in val_idx]

    root = np.random.SeedSequence([cfg.seed, 0xF1])
    init_rng, shuffle_rng = [np.random.default_rng(s) for s in root.spawn(2)]
    pparams = prior.PriorParams(cfg, init_rng)
    codebooks = model.codebooks.codebooks

    def step_loss(items, step):
        return prior.prior_nll(pparams, prior.pack_sequences(items, cfg.n_max, codebooks))

    return pparams, _fit(cfg, parameters(pparams.state), train_seqs, shuffle_rng, cfg.epochs_prior,
                         step_loss, lambda: evaluate_prior(pparams, val_seqs, codebooks, cfg),
                         metrics_path, log)


# ---------------------------------------------------------------------------
# generation: prior samples decoded back to graphs

DECODE_CHUNK = 256  # graphs per decode call


@ad.no_grad()
def decode_sequences(model: AutoEncoderModel, samples):
    """Decode sampled index sequences to graphs (eval mode, mode decode).

    Each set decodes over its twin classes, its distinct code tuples,
    with their node counts (codec.decode's counts). Sets are grouped by
    class count and each group is decoded in chunks of at most
    DECODE_CHUNK, so no chunk carries padding. Graphs come back in input
    order, their nodes in sample order. The decoder runs in float32: the
    codewords are cast once, and its layers compute in their input's
    dtype.
    """
    if not samples:
        return []
    sizes = np.array([s.shape[0] for s in samples], dtype=np.int64)
    idx = np.concatenate(samples)  # (N, C)
    owner = np.repeat(np.arange(len(samples)), sizes)
    # every set's classes in one pass: the distinct (set, tuple) rows
    _, first, node_class, counts = np.unique(np.column_stack([owner, idx]), axis=0,
                                             return_index=True, return_inverse=True,
                                             return_counts=True)
    k = np.bincount(owner[first], minlength=len(samples))  # classes per set
    start = np.cumsum(k) - k
    node_class = node_class.reshape(-1) - start[owner]  # within its set
    node_at = np.concatenate([[0], np.cumsum(sizes)])
    graphs_out = [None] * len(samples)
    for n in np.unique(k):
        group = np.flatnonzero(k == n)
        for lo in range(0, len(group), DECODE_CHUNK):
            part = group[lo:lo + DECODE_CHUNK]
            rows = (start[part, None] + np.arange(n)).reshape(-1)
            z = quantize.lookup(model.codebooks.codebooks, idx[first[rows]]).astype(np.float32)
            c = counts[rows].reshape(len(part), n)
            node_logits, edge_logits = codec.decode(z, np.ones((len(part), n), dtype=bool),
                                                    model.decoder, train=False, counts=c)
            node_rows = node_logits.data.reshape(len(part), n, node_logits.shape[1])
            pair_at = np.concatenate([[0], np.cumsum(n * (n - 1) + (c >= 2).sum(axis=1))])
            for b, i in enumerate(part):
                graphs_out[i] = codec.sample_graph(node_rows[b],
                                                   edge_logits.data[pair_at[b]:pair_at[b + 1]],
                                                   node_class[node_at[i]:node_at[i + 1]])
    return graphs_out


def generate_graphs(model: AutoEncoderModel, pparams: prior.PriorParams, cfg: ModelConfig,
                    count, seed, step_times=None):
    """Sample index sequences from the prior parameters pparams and
    decode them with the auto-encoder's codebooks and decoder. The info
    counts the truncated samples and those prior.generate re-drew in
    float64."""
    samples = prior.generate(pparams, model.codebooks.codebooks, count, seed,
                             step_times=step_times)
    graphs_out = decode_sequences(model, [s["indices"] for s in samples])
    return graphs_out, {key: sum(s[key] for s in samples) for key in ("truncated", "redrawn")}

