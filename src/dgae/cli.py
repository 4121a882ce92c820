"""Command-line interface.

Every run that writes outputs also writes exactly one manifest JSON
next to its primary output, recording the resolved config, seed, and
format versions. Reports and datasets themselves carry no timestamps,
so identical seeds reproduce them byte for byte.

On glibc, a CLI process keeps the heap memory it frees until it exits.
A training step frees and then allocates again its (P, 64) activations
and gradients, a few MB each; by default glibc hands such blocks back
to the kernel (mmap above a threshold, trimming the heap top), and
touching them again costs a page fault per page, about a tenth of a
training run's CPU. Library callers keep glibc's defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__, evaluation, prior, training
from .features import feature_widths
from .graphs import DatasetSpec, build_dataset, load_dataset, save_dataset
from .training import ConfigError, ModelConfig

FORMAT_VERSIONS = {"checkpoint": training._CKPT_VERSION, "dataset": 1,
                   "sequence_cache": prior._SEQ_VERSION}
_VERSION_LINE = (f"dgae {__version__} (formats: " +
                 ", ".join(f"{k}={v}" for k, v in FORMAT_VERSIONS.items()) + ")")

_PARSERS = {"int": int, "float": float}


def parse_config_file(path):
    """Read `key = value` lines into a config dict. Every bad line and
    unknown key is reported, not just the first.
    """
    problems = []
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {ln}: expected 'key = value', got {line!r}")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        ftype = training.FIELD_TYPES.get(key)
        if ftype is None:
            problems.append(f"line {ln}: unknown config key {key!r}")
            continue
        try:
            if ftype == "bool":
                if val.lower() not in ("true", "false", "1", "0"):
                    raise ValueError("expected true/false")
                out[key] = val.lower() in ("true", "1")
            else:
                out[key] = _PARSERS[ftype](val)
        except (ValueError, KeyError):
            problems.append(f"line {ln}: bad {ftype} value for {key}: {val!r}")
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))
    return out


def resolve_config(args, base: ModelConfig | None = None) -> ModelConfig:
    d = base.to_dict() if base is not None else {}
    if getattr(args, "config", None):
        d.update(parse_config_file(args.config))
    if getattr(args, "seed", None) is not None:
        d["seed"] = args.seed
    return training.config_from_dict(d)


def _maybe_dry_run(args, cfg: ModelConfig | None, outputs):
    if not getattr(args, "dry_run", False):
        return False
    for key, val in sorted(cfg.to_dict().items() if cfg is not None else ()):
        print(f"{key} = {val}")
    print("dry-run: would write " + ", ".join(outputs))
    return True


def write_manifest(args, cfg, outputs, extra=None):
    manifest = {
        "tool": _VERSION_LINE,
        "command": [args.command] + ([args.action] if hasattr(args, "action") else []),
        "argv": args.argv,
        "config": cfg.to_dict() if cfg is not None else None,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()
        if cfg is not None else None,
        "outputs": outputs,
        "formats": FORMAT_VERSIONS,
        "created_unix": time.time(),
    }
    if extra:
        manifest.update(extra)
    path = outputs[0] + ".manifest.json"
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_models(path, need_prior):
    """(cfg, model, pparams or None) of a checkpoint, read off its
    tensors: it holds a prior when a name starts with "prior."."""
    cfg, tensors, _ = training.load_checkpoint(path)
    rng = np.random.default_rng(0)  # weights are overwritten by the load
    model = training.AutoEncoderModel(cfg, rng)
    state, pparams = model.state, None
    if need_prior:
        if not any(k.startswith("prior.") for k in tensors):
            raise ValueError(f"{path}: checkpoint has no prior; run train-prior first")
        pparams = prior.PriorParams(cfg, rng)
        state = {**state, **pparams.state}
    else:
        tensors = {k: v for k, v in tensors.items() if not k.startswith("prior.")}
    training.load_state(state, tensors, path)
    return cfg, model, pparams


def _sync_data_config(cfg: ModelConfig, graphs, header):
    d = cfg.to_dict()
    d["node_categories"] = header["R"]
    d["edge_categories"] = header["S"]
    cfg = training.config_from_dict(d)
    biggest = max((g.n for g in graphs), default=0)
    if biggest > cfg.n_max:
        raise ConfigError(f"dataset has a graph with {biggest} nodes; raise n_max")
    return cfg


def _check_nonnegative(args, *options):
    for option in options:
        value = getattr(args, option)
        if value < 0:
            raise ConfigError(f"--{option} must be >= 0, got {value}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_dataset_gen(args):
    _check_nonnegative(args, "count", "seed")
    spec = DatasetSpec(args.spec, args.count, args.seed)
    if _maybe_dry_run(args, None, [args.out]):
        return 0
    graphs = build_dataset(spec)
    save_dataset(args.out, graphs)
    write_manifest(args, None, [args.out],
                   {"generator": args.spec, "count": args.count, "seed": args.seed})
    print(f"wrote {len(graphs)} graphs to {args.out}")
    return 0


def cmd_featurize(args):
    graphs, header = load_dataset(args.inp)
    cfg = _sync_data_config(resolve_config(args), graphs, header)
    fn, fe = feature_widths(cfg)
    aug = training.featurize_all(graphs, cfg)
    real = sum(int(g.adjacency().sum()) for g in graphs)
    neigh = sum(int(a.neighborhood.sum()) for a in aug)
    print(f"graphs={len(graphs)}")
    print(f"node_feature_width={fn}")
    print(f"edge_feature_width={fe}")
    print(f"real_edge_slots={real}")
    print(f"neighborhood_slots={neigh}")
    print(f"virtual_edge_slots={neigh - real}")
    return 0


def cmd_train_ae(args):
    graphs, header = load_dataset(args.data)
    cfg = _sync_data_config(resolve_config(args), graphs, header)
    outputs = [args.out] + ([args.metrics] if args.metrics else [])
    if _maybe_dry_run(args, cfg, outputs):
        return 0
    model, info = training.train_autoencoder(graphs, cfg, metrics_path=args.metrics,
                                             log=print if args.verbose else None)
    training.save_checkpoint(args.out, cfg, training.state_arrays(model.state), info["step"])
    write_manifest(args, cfg, outputs)
    last = info["history"][-1] if info["history"] else {}
    print(f"trained {info['step']} steps; "
          f"holdout loss={last.get('loss_recon', float('nan')):.5f} "
          f"node_err={last.get('node_err', float('nan')):.5f} "
          f"edge_err={last.get('edge_err', float('nan')):.5f}")
    return 0


def cmd_train_prior(args):
    graphs, header = load_dataset(args.data)
    ckpt_cfg, model, _ = _load_models(args.ckpt, need_prior=False)
    cfg = _sync_data_config(resolve_config(args, base=ckpt_cfg), graphs, header)
    changed = [f"{k} {getattr(ckpt_cfg, k)} -> {getattr(cfg, k)}" for k in training.AE_FIELDS
               if getattr(ckpt_cfg, k) != getattr(cfg, k)]
    if changed:
        raise ConfigError(f"{args.ckpt}: its auto-encoder was trained with other settings; "
                          "train-prior cannot change " + ", ".join(changed))
    outputs = [args.out] + ([args.metrics] if args.metrics else []) \
        + ([args.cache] if args.cache else [])
    if _maybe_dry_run(args, cfg, outputs):
        return 0
    pparams, info = training.train_prior(model, graphs, cfg, metrics_path=args.metrics,
                                         log=print if args.verbose else None,
                                         cache_path=args.cache)
    training.save_checkpoint(args.out, cfg, training.state_arrays(model.state, pparams.state),
                             info["step"])
    write_manifest(args, cfg, outputs)
    last = info["history"][-1] if info["history"] else {}
    print(f"trained {info['step']} steps; holdout nll={last.get('nll', float('nan')):.5f}")
    return 0


def cmd_generate(args):
    _check_nonnegative(args, "count", "seed")
    cfg, model, pparams = _load_models(args.ckpt, need_prior=True)
    if _maybe_dry_run(args, cfg, [args.out]):
        return 0
    graphs, info = training.generate_graphs(model, pparams, cfg, args.count, args.seed)
    save_dataset(args.out, graphs, cfg.node_categories, cfg.edge_categories)
    write_manifest(args, cfg, [args.out],
                   {"count": args.count, "seed": args.seed, **info})
    mean_nodes = sum(g.n for g in graphs) / max(len(graphs), 1)
    print(f"wrote {len(graphs)} graphs to {args.out} (mean nodes {mean_nodes:.2f}, "
          f"truncated {info['truncated']}, redrawn {info['redrawn']})")
    return 0


def cmd_eval(args):
    ref, _ = load_dataset(args.ref)
    gen, _ = load_dataset(args.gen)
    cfg = resolve_config(args)
    if _maybe_dry_run(args, cfg, [args.out]):
        return 0
    report = evaluation.mmd_report(ref, gen, cfg.mmd_sigma, cfg.clustering_bins)
    evaluation.write_mmd_report(args.out, report)
    write_manifest(args, cfg, [args.out])
    print(f"mmd_degree={report['mmd_degree']:.6f} "
          f"mmd_clustering={report['mmd_clustering']:.6f} "
          f"mmd_orbit={report['mmd_orbit']:.6f} mmd_avg={report['mmd_avg']:.6f}")
    return 0


def _parse_seeds(text):
    try:
        seeds = tuple(int(s) for s in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad --seeds value {text!r}: {e}") from e
    if min(seeds) < 0:
        raise ConfigError(f"bad --seeds value {text!r}: seeds must be >= 0")
    return seeds


def cmd_ablate_features(args):
    graphs, header = load_dataset(args.data)
    cfg = _sync_data_config(resolve_config(args), graphs, header)
    seeds = _parse_seeds(args.seeds)
    if _maybe_dry_run(args, cfg, [args.out]):
        return 0
    results = evaluation.ablation_feature_report(graphs, cfg, out_path=args.out, seeds=seeds,
                                                 log=print if args.verbose else None)
    write_manifest(args, cfg, [args.out])
    for name, r in results.items():
        print(f"{name}: final holdout loss {r['loss_recon'][0][-1]:.5f}")
    return 0


def _parse_grid(text):
    grid = []
    for cell in text.split(","):
        try:
            m, c = cell.split(":")
            grid.append((int(m), int(c)))
        except ValueError as e:
            raise ConfigError(f"bad --grid cell {cell!r} (want m:C): {e}") from e
    return grid


def cmd_ablate_codebook(args):
    graphs, header = load_dataset(args.data)
    cfg = _sync_data_config(resolve_config(args), graphs, header)
    grid = _parse_grid(args.grid) if args.grid else None
    seeds = _parse_seeds(args.seeds)
    if _maybe_dry_run(args, cfg, [args.out]):
        return 0
    results = evaluation.ablation_codebook_report(
        graphs, cfg, out_path=args.out, grid=grid, seeds=seeds,
        with_prior=not args.no_prior, log=print if args.verbose else None)
    write_manifest(args, cfg, [args.out])
    for (m, c), agg in results.items():
        mu, sd = agg["perplexity"]
        print(f"m={m} C={c}: perplexity {mu:.4f} +- {sd:.4f}")
    return 0


# ---------------------------------------------------------------------------

def _add_config_args(p, seed=True, writes=True, logs=True):
    """--config and --seed; --dry-run for a command that writes files,
    --verbose for one that logs."""
    p.add_argument("--config", help="key = value config file")
    if seed:
        p.add_argument("--seed", type=int, help="override config seed")
    if writes:
        p.add_argument("--dry-run", action="store_true", dest="dry_run",
                       help="print the resolved config and exit")
    if logs:
        p.add_argument("--verbose", action="store_true", help="log per-epoch metrics")


def build_parser():
    parser = argparse.ArgumentParser(prog="dgae",
                                     description="discrete graph auto-encoder tools")
    parser.add_argument("--version", action="version", version=_VERSION_LINE)
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="dataset tools")
    ds_sub = ds.add_subparsers(dest="action", required=True)
    g = ds_sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--spec", required=True, help="generator name (community-small)")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--dry-run", action="store_true", dest="dry_run")
    g.set_defaults(func=cmd_dataset_gen)

    f = sub.add_parser("featurize", help="feature diagnostics for a dataset")
    f.add_argument("--in", dest="inp", required=True)
    _add_config_args(f, seed=False, writes=False, logs=False)
    f.set_defaults(func=cmd_featurize)

    t = sub.add_parser("train-ae", help="train the graph auto-encoder")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--metrics", help="per-epoch metrics CSV")
    _add_config_args(t)
    t.set_defaults(func=cmd_train_ae)

    tp = sub.add_parser("train-prior", help="train the sequence prior")
    tp.add_argument("--data", required=True)
    tp.add_argument("--ckpt", required=True, help="stage-1 checkpoint")
    tp.add_argument("--out", required=True)
    tp.add_argument("--metrics", help="per-epoch metrics CSV")
    tp.add_argument("--cache", help="write the encoded sequence cache here")
    _add_config_args(tp)
    tp.set_defaults(func=cmd_train_prior)

    ge = sub.add_parser("generate", help="sample graphs from a trained model")
    ge.add_argument("--ckpt", required=True)
    ge.add_argument("--count", type=int, required=True)
    ge.add_argument("--seed", type=int, default=0)
    ge.add_argument("--out", required=True)
    ge.add_argument("--dry-run", action="store_true", dest="dry_run")
    ge.set_defaults(func=cmd_generate)

    ev = sub.add_parser("eval", help="MMD report between two datasets")
    ev.add_argument("--ref", required=True)
    ev.add_argument("--gen", required=True)
    ev.add_argument("--out", required=True)
    _add_config_args(ev, seed=False, logs=False)
    ev.set_defaults(func=cmd_eval)

    ab = sub.add_parser("ablate", help="ablation studies")
    ab_sub = ab.add_subparsers(dest="action", required=True)
    af = ab_sub.add_parser("features", help="feature-family grid")
    af.add_argument("--data", required=True)
    af.add_argument("--out", required=True)
    af.add_argument("--seeds", default="0,1,2")
    _add_config_args(af, seed=False)
    af.set_defaults(func=cmd_ablate_features)
    ac = ab_sub.add_parser("codebook", help="codebook size/partition grid")
    ac.add_argument("--data", required=True)
    ac.add_argument("--out", required=True)
    ac.add_argument("--grid", help="cells m:C, comma separated")
    ac.add_argument("--seeds", default="0,1,2")
    ac.add_argument("--no-prior", action="store_true", dest="no_prior",
                    help="skip stage 2 and MMD columns")
    _add_config_args(ac, seed=False)
    ac.set_defaults(func=cmd_ablate_codebook)

    return parser


def _keep_freed_memory():
    """Have glibc malloc serve blocks up to 32 MiB (its cap on 64-bit
    builds) from the heap and trim the heap only past 1 GiB free; True
    if both took. Without glibc's mallopt it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    # M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1; mallopt returns 1 on success
    return all(mallopt(opt, value) == 1 for opt, value in ((-3, 32 << 20), (-1, 1 << 30)))


def main(argv=None):
    """Run the command argv, by default the program's own arguments;
    manifests record the argv given here."""
    _keep_freed_memory()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError, MemoryError) as e:
        print("error: " + str(e).replace("\n", "; "), file=sys.stderr)
        return 1
