#!/usr/bin/env python3
"""Benchmark of the dgae command line, end to end and per module.

Run from the repository root:

    python3 dgaebench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 dgaebench/run.py --smoke

Each workload runs in its own process and drives `dgae.cli.main([...])`
in-process, exactly as a user's `dgae ...` command would run:

  train     dgae train-ae, then dgae train-prior, on a seeded dataset
  generate  dgae generate from the frozen checkpoint in this directory
  eval      dgae eval on seeded pairs of datasets

A run sets up its inputs, then repeats the workload's commands until
--seconds have passed and at least MIN_CYCLES repetitions ran, setting
up again after each repetition. It reports the least CPU time of a
set-up and medians over the repetitions. With --trace 1 every second
repetition runs with the span tracer installed (tracer.py) and the run
reports per-module numbers instead of end-to-end ones, plus the
tracer's overhead. The last line of standard output is one JSON
object; a result file with a machine block, every repetition and (for
traced runs) every span is written under dgaebench/results/.
"""

import os

BLAS_THREADS = "1"  # one process, one BLAS thread: the steadiest load on a shared box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must precede the first numpy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer, cycle_samples, median, percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHECKPOINT = HERE / "frozen.ckpt"
REFERENCE = HERE / "reference.json"

SIZES = {
    # train: graphs, AE epochs, prior epochs; generate: graphs per command;
    # eval: graphs per set; setups: set-ups before the first cycle
    "full": {"train_graphs": 200, "epochs_ae": 1, "epochs_prior": 2,
             "gen_count": 1024, "eval_graphs": 250, "setups": 2},
    "smoke": {"train_graphs": 24, "epochs_ae": 1, "epochs_prior": 1,
              "gen_count": 16, "eval_graphs": 20, "setups": 1},
}
METRICS_CSV_HEADER = "step,loss_recon,loss_commit,nll,perplexity,node_err,edge_err"
MMD_KEYS = ("mmd_degree", "mmd_clustering", "mmd_orbit")
MMD_RTOL = 1e-9
# Training is deterministic on one machine and BLAS build; a reordering
# of floating-point sums moves a loss by far less than this, a wrong or
# skipped update by far more
TRAIN_RTOL = 1e-6
DEAD_COUNT = 1.0  # a codeword whose EMA count holds less than one node's mass is dead
# a run's medians rest on at least this many cycles, so one cycle slowed
# by the first use of fresh memory or by a slow phase of a shared machine
# does not set them; an eval cycle takes about 15 s, longer than a third
# of --seconds
MIN_CYCLES = 3

# metrics of the result line (the last line of output): name -> unit
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio",
              "graphs_per_s": "1/s"}
PER_LAYER = {
    "codec.encode_s": "s", "codec.decode_train_s": "s", "codec.recon_loss_s": "s",
    "codec.prepare_batch_s": "s", "codec.decode_chunk_s": "s",
    "codec.decode_chunk_peak_mb": "MB", "codec.decode_pad_ratio": "ratio",
    "codec.sample_graph_s": "s",
    "autodiff.backward_ae_s": "s", "autodiff.backward_prior_s": "s",
    "quantize.quantize_s": "s", "quantize.ema_update_s": "s",
    "quantize.init_codebooks_s": "s", "quantize.dead_codewords": "count",
    "prior.nll_forward_s": "s", "prior.generate_s": "s",
    "prior.sampler_step_s": "s", "prior.sampler_step_p90_s": "s",
    "prior.sampler_row_us": "us", "prior.sampled_nodes": "count", "prior.truncated": "count",
    "training.ae_step_s": "s", "training.ae_step_p90_s": "s",
    "training.prior_step_s": "s", "training.prior_step_p90_s": "s",
    "training.clip_gradients_s": "s", "training.adam_step_s": "s",
    "training.evaluate_autoencoder_s": "s", "training.encode_sequences_s": "s",
    "training.decode_sequences_s": "s", "training.load_checkpoint_s": "s",
    "features.featurize_all_s": "s",
    "graphs.save_dataset_s": "s", "graphs.load_dataset_s": "s",
    "evaluation.graph_stats_s": "s", "evaluation.node_orbit_counts_s": "s",
    "evaluation.mmd_degree_s": "s", "evaluation.mmd_clustering_s": "s",
    "evaluation.mmd_orbit_s": "s", "evaluation.mmd_peak_mb": "MB",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}
# the end-to-end metrics each workload reports in its table: name -> unit
WORKLOAD_TABLE = {
    "train": {"ae_graphs_per_s": "1/s", "prior_seqs_per_s": "1/s",
              "ae_holdout_recon": "nats", "prior_holdout_nll": "nats"},
    "generate": {"gen_graphs_per_s": "1/s", "gen_match_rate": "ratio"},
    "eval": {"eval_graphs_per_s": "1/s"},
}
COMMON_TABLE = ("setup_s", "peak_rss_mb", "error_rate")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, bad reference)."""


def import_dgae():
    src = ROOT / "src"
    if not (src / "dgae" / "cli.py").is_file():
        raise BenchmarkError(f"no dgae sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    from dgae import cli, evaluation, graphs, training
    return cli, evaluation, graphs, training


def run_cli(cli, argv):
    """One `dgae ...` command in-process: (ok, wall seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    except Exception as e:  # a raised error is a failed operation, not a crash of the run
        code = None
        err.write(f"{type(e).__name__}: {e}")
    return code == 0, time.perf_counter() - start, err.getvalue().strip()


def finite_rows(path, header):
    """Rows of a metrics CSV, or None unless it exists, has the pinned
    header and every filled cell is finite."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        return None
    if not lines or lines[0] != header:
        return None
    rows = list(csv.DictReader(lines))
    for row in rows:
        for val in row.values():
            try:
                if val != "" and not math.isfinite(float(val)):
                    return None
            except (TypeError, ValueError):  # a missing or non-numeric cell
                return None
    return rows


class Stopwatch:
    """Times one function replaced by attribute assignment and keeps
    its return value; used for `evaluation.mmd_report`."""

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.calls = []  # (seconds, result)

    def __enter__(self):
        self.original = original = getattr(self.owner, self.attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.calls.append((time.perf_counter() - start, result))
            return result

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)
        return False


# ---------------------------------------------------------------------------
# workloads: set-up, one repetition ("cycle") with its checks

class Workload:
    """One workload at one size. A cycle works on the inputs of SEEDS
    consecutive input seeds and its `answer` holds one entry per input
    seed. `answers` are the ones reference.json records for this
    workload and size, by input seed, or None while make_reference.py
    records them; a cycle's answer is compared with them."""

    SEEDS = 1

    def __init__(self, dgae, work, seed, size_name, answers):
        self.cli, self.evaluation, self.graphs, self.training = dgae
        self.work, self.seed = work, seed
        self.size = SIZES[size_name]
        # workload seeds map onto the input seeds reference.json has answers for
        self.input_seeds = [inputs.input_seed(seed + j) for j in range(self.SEEDS)]
        self.input_seed = self.input_seeds[0]
        self.expected = None if answers is None else [answers[str(k)]
                                                      for k in self.input_seeds]

    def clear_outputs(self):
        """No file of an earlier cycle may pass for this cycle's output."""
        for path in self.work.iterdir():
            if path.name not in self.inputs:
                path.unlink()

    def command(self, tracer, name, argv):
        if tracer is None:
            return run_cli(self.cli, argv)
        with tracer.span("cli." + name):
            return run_cli(self.cli, argv)


class Train(Workload):
    """train-ae then train-prior with the default ModelConfig, apart
    from the epoch counts, on a seeded community-small dataset. Training
    is deterministic, so the held-out losses must equal the recorded
    ones to TRAIN_RTOL; a wrong or skipped update moves them."""

    def setup(self):
        sz = self.size
        self.data = self.work / "train.jsonl"
        inputs.make_dataset(self.data, sz["train_graphs"], self.input_seed, stream=0)
        self.config = self.work / "train.conf"
        self.inputs = {self.data.name, self.config.name}
        self.config.write_text(f"epochs_ae = {sz['epochs_ae']}\n"
                               f"epochs_prior = {sz['epochs_prior']}\n")
        cfg = self.training.ModelConfig()
        graphs, _ = self.graphs.load_dataset(str(self.data))
        self.training.featurize_all(graphs[:1], cfg)  # first linear-algebra calls
        self.n_train = len(graphs) - int(round(len(graphs) * cfg.holdout_frac))
        per_epoch = -(-self.n_train // cfg.batch_size)
        self.ae_steps = sz["epochs_ae"] * per_epoch
        self.prior_steps = sz["epochs_prior"] * per_epoch

    def cycle(self, tracer):
        w, sz = self.work, self.size
        self.clear_outputs()
        ok_ae, t_ae, err_ae = self.command(tracer, "train-ae", [
            "train-ae", "--data", self.data, "--out", w / "ae.ckpt",
            "--metrics", w / "ae.csv", "--config", self.config])
        ok_pr, t_pr, err_pr = self.command(tracer, "train-prior", [
            "train-prior", "--data", self.data, "--ckpt", w / "ae.ckpt",
            "--out", w / "full.ckpt", "--metrics", w / "prior.csv", "--config", self.config])
        rec = {"seconds": t_ae + t_pr, "attempted": self.ae_steps + self.prior_steps,
               "failed": 0, "errors": [e for e in (err_ae, err_pr) if e]}
        expected = self.expected[0] if self.expected else [None, None]
        ae_rows = finite_rows(w / "ae.csv", METRICS_CSV_HEADER) if ok_ae else None
        if ae_rows is None or len(ae_rows) != sz["epochs_ae"]:
            rec["failed"] += self.ae_steps
        else:
            rec["ae_holdout_recon"] = float(ae_rows[-1]["loss_recon"])
            rec["failed"] += self.ae_steps * self.moved(
                rec, "ae_holdout_recon", expected[0])
            _, tensors, _ = self.training.load_checkpoint(str(w / "ae.ckpt"))
            counts = [v for k, v in tensors.items() if k.startswith("quant.count")]
            rec["dead_codewords"] = int(sum((c < DEAD_COUNT).sum() for c in counts))
        pr_rows = finite_rows(w / "prior.csv", METRICS_CSV_HEADER) if ok_pr else None
        if pr_rows is None or len(pr_rows) != sz["epochs_prior"]:
            rec["failed"] += self.prior_steps
        else:
            rec["prior_holdout_nll"] = float(pr_rows[-1]["nll"])
            rec["failed"] += self.prior_steps * self.moved(
                rec, "prior_holdout_nll", expected[1])
        rec["answer"] = [[rec.get("ae_holdout_recon"), rec.get("prior_holdout_nll")]]
        graphs = self.n_train
        rec["ae_graphs_per_s"] = sz["epochs_ae"] * graphs / t_ae
        rec["prior_seqs_per_s"] = sz["epochs_prior"] * graphs / t_pr
        rec["graphs_per_s"] = (sz["epochs_ae"] + sz["epochs_prior"]) * graphs / (t_ae + t_pr)
        return rec

    def moved(self, rec, key, recorded):
        """Whether a loss left its recorded value (never while recording)."""
        if recorded is None or abs(rec[key] - recorded) <= TRAIN_RTOL * abs(recorded):
            return False
        rec["errors"].append(f"{key} {rec[key]!r} differs from the recorded {recorded!r}")
        return True


class Generate(Workload):
    """dgae generate from the frozen checkpoint. A graph fails unless
    it passes Graph.validate(), has at most n_max nodes and is identical
    to the graph recorded from the checkpoint by make_reference.py."""

    def setup(self):
        if self.expected is not None:  # the recipe records the sha256 it checks
            recorded = json.loads(REFERENCE.read_text())["checkpoint_sha256"]
            digest = inputs.file_sha256(CHECKPOINT)
            if digest != recorded:
                raise BenchmarkError(f"{CHECKPOINT.name}: sha256 {digest} does not match "
                                     f"reference.json; rebuild with make_reference.py")
        self.count = self.size["gen_count"]
        cfg, _, _ = self.training.load_checkpoint(str(CHECKPOINT))
        self.n_max = cfg.n_max
        self.out = self.work / "generated.jsonl"
        self.inputs = set()

    def cycle(self, tracer):
        self.clear_outputs()
        ok, t, err = self.command(tracer, "generate", [
            "generate", "--ckpt", CHECKPOINT, "--count", self.count,
            "--seed", self.input_seed, "--out", self.out])
        rec = {"seconds": t, "attempted": self.count, "failed": self.count,
               "errors": [err] if err else [], "gen_match_rate": 0.0}
        if ok:
            try:
                graphs, _ = self.graphs.load_dataset(str(self.out))
            except ValueError as e:
                rec["errors"].append(f"generated dataset: {e}")
                graphs = []
            got = inputs.graph_hashes(self.out) if graphs else []
            rec["answer"] = ["".join(got)]
            expected = (self.expected[0][i:i + 8] for i in range(0, 8 * self.count, 8)) \
                if self.expected is not None else got
            good = matched = 0
            for g, digest, want in zip(graphs[:self.count], got, expected):
                matched += digest == want
                try:
                    g.validate()
                except ValueError:
                    continue
                good += g.n <= self.n_max and digest == want
            rec["failed"] = self.count - good
            rec["gen_match_rate"] = matched / self.count
            manifest = json.loads(Path(str(self.out) + ".manifest.json").read_text())
            rec["truncated"] = manifest["truncated"]
        rec["gen_graphs_per_s"] = rec["graphs_per_s"] = self.count / t
        return rec


class Eval(Workload):
    """dgae eval of seeded community-small set pairs; the MMD values
    must equal the ones recorded for the same inputs.

    Time and memory grow with the longest orbit histogram of an input
    pair, which differs by up to 46% between input seeds. So that a run
    does not rest on one pair, a cycle evaluates the pairs of SEEDS
    input seeds, from the run's own on: over the 16 input seeds, the
    longest histogram of eight consecutive pairs differs by at most 7%,
    that of two by up to 28%. Every cycle, and so every run of a seed,
    covers the same inputs however many cycles fit in the time.

    Sets have 250 graphs, not 500: at 500 the all-pairs EMD makes a
    third of the time kernel page faults on about 2 GB of fresh arrays,
    whose cost swings most with a shared host's load.
    """

    SEEDS = 8

    def setup(self):
        n = self.size["eval_graphs"]
        self.pairs = []
        for k in self.input_seeds:
            ref, gen = self.work / f"ref{k}.jsonl", self.work / f"gen{k}.jsonl"
            inputs.make_dataset(ref, n, k, stream=1)
            inputs.make_dataset(gen, n, k, stream=2)
            self.pairs.append((ref, gen))
        self.inputs = {path.name for pair in self.pairs for path in pair}
        self.n_graphs = 2 * n * self.SEEDS
        # the orbit lookup tables are built lazily on first use; drop
        # any cached copy so every set-up pays for building them
        if hasattr(self.evaluation, "_ORBIT_TABLES"):
            self.evaluation._ORBIT_TABLES = None
        self.evaluation.graphlet_orbit_tables()

    def cycle(self, tracer):
        self.clear_outputs()
        attempted = len(MMD_KEYS) * self.SEEDS
        rec = {"seconds": 0.0, "attempted": attempted, "failed": attempted,
               "errors": [], "answer": []}
        with Stopwatch(self.evaluation, "mmd_report") as sw:
            for ref, gen in self.pairs:
                ok, t, err = self.command(tracer, "eval", [
                    "eval", "--ref", ref, "--gen", gen, "--out", self.work / "mmd.csv"])
                rec["seconds"] += t
                if err:
                    rec["errors"].append(err)
                if not ok:
                    return rec
        if len(sw.calls) != self.SEEDS:
            return rec
        rec["answer"] = [[report[m] for m in MMD_KEYS] for _, report in sw.calls]
        expected = self.expected or rec["answer"]
        rec["failed"] = sum(not self.mmd_ok(v, want)
                            for got, wants in zip(rec["answer"], expected)
                            for v, want in zip(got, wants))
        rec["eval_graphs_per_s"] = rec["graphs_per_s"] = \
            self.n_graphs / sum(t for t, _ in sw.calls)
        return rec

    @staticmethod
    def mmd_ok(value, recorded):
        return (math.isfinite(value) and value >= 0.0
                and abs(value - recorded) <= MMD_RTOL * abs(recorded))


WORKLOADS = {"train": Train, "generate": Generate, "eval": Eval}


# ---------------------------------------------------------------------------
# one run

def machine_block(wl):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": wl.seed,
        "input_seeds": wl.input_seeds,
    }


def summarize_e2e(name, setups, cycles, peak_rss_mb):
    """Every end-to-end metric as {name: (value, unit, n)}."""
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)

    def per_cycle(key):
        vals = [c[key] for c in cycles if key in c]
        return (median(vals), len(vals))

    out = {"setup_s": (min(cpu for _, cpu in setups), "s", len(setups)),
           "peak_rss_mb": (peak_rss_mb, "MB", 1),
           "error_rate": (failed / attempted, "ratio", attempted),
           "success_rate": (1.0 - failed / attempted, "ratio", attempted)}
    for key, unit in list(WORKLOAD_TABLE[name].items()) + [("graphs_per_s", "1/s")]:
        value, n = per_cycle(key)
        out[key] = (value, unit, n)
    return out


def summarize_layers(cycles, tracer_logs, count):
    """Every per-layer metric as {name: (value, unit, n)}; a layer the
    workload does not run reports 0 with n = 0."""
    traced = [c for c in cycles if c["traced"]]
    samples = {}
    for c in traced:
        for key, vals in c["layer_samples"].items():
            samples.setdefault(key, []).extend(vals)
    out = {}

    def put(metric, vals, reduce=median):
        out[metric] = (reduce(vals) if vals else 0.0, PER_LAYER[metric], len(vals))

    for metric in PER_LAYER:  # plain medians; the rest are set below
        put(metric, samples.get(metric, []))
    put("codec.decode_chunk_peak_mb", samples.get("_decode_chunk_peak_mb", []), max)
    put("codec.decode_pad_ratio", samples.get("_decode_pad_ratio", []),
        lambda v: sum(v) / len(v))
    put("evaluation.mmd_peak_mb", samples.get("_mmd_peak_mb", []), max)
    for short in ("ae", "prior"):
        put(f"training.{short}_step_p90_s", samples.get(f"training.{short}_step_s", []),
            lambda v: percentile(v, 90))
    put("quantize.dead_codewords", [c["dead_codewords"] for c in traced if "dead_codewords" in c])
    steps = [s for log in tracer_logs for s in log]
    put("prior.sampler_step_s", [dt for _, dt, _ in steps])
    put("prior.sampler_step_p90_s", [dt for _, dt, _ in steps], lambda v: percentile(v, 90))
    rows_in = []
    for log in tracer_logs:
        active = count
        for _, _, left in log:
            rows_in.append(active)
            active = left
    busy = sum(dt for _, dt, _ in steps)
    put("prior.sampler_row_us", [1e6 * busy / sum(rows_in)] if rows_in else [])
    put("prior.sampled_nodes", [sum(a for _, _, a in log) for log in tracer_logs])
    put("prior.truncated", [c["truncated"] for c in traced if "truncated" in c])
    # tracer overhead from back-to-back (untraced, traced) cycles on the
    # same input; the first such pair is left out when there are more,
    # since a process's first cycle pays one-time costs (page faults of
    # its first large allocations)
    pairs = [(cycles[i]["seconds"], cycles[i + 1]["seconds"])
             for i in range(0, len(cycles) - 1, 2)]
    pairs = pairs[1:] or pairs
    put("trace.overhead_s", [t - u for u, t in pairs])
    put("trace.overhead_share", [(t - u) / u for u, t in pairs])
    return out


def print_table(title, metrics):
    print(title)
    for key, (value, unit, n) in metrics.items():
        print(f"  {key:34s} {value:14.6g} {unit:6s} n={n}")


def run(args):
    dgae = import_dgae()
    size = SIZES[args.size]
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = HERE / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    answers = json.loads(REFERENCE.read_text())["answers"][args.workload][args.size]
    try:
        wl = WORKLOADS[args.workload](dgae, work, args.seed, args.size, answers)
        setups = []  # (wall, CPU) seconds of each set-up

        def set_up():
            start, cpu = time.perf_counter(), time.process_time()
            wl.setup()
            setups.append((time.perf_counter() - start, time.process_time() - cpu))

        for _ in range(size["setups"]):
            set_up()

        cycles, spans, logs = [], [], []
        start = time.perf_counter()
        while True:
            traced = args.trace == 1 and len(cycles) % 2 == 1
            tracer = Tracer() if traced else None
            if traced:
                tracer.install()
            try:
                rec = wl.cycle(tracer)
            finally:
                if traced:
                    tracer.uninstall()
            rec["traced"] = traced
            if traced:
                rec["layer_samples"] = cycle_samples(tracer.spans)
                spans.append(tracer.spans)
                logs.extend(tracer.step_times)
            cycles.append(rec)
            # set up again after every cycle: a shared machine's speed can
            # change from second to second, and set-ups spread over the run
            # are likelier to include one at full speed than a few in a row
            set_up()
            # a traced run ends on a traced cycle, so each has its partner
            if time.perf_counter() - start >= args.seconds and len(cycles) >= MIN_CYCLES \
                    and (args.trace == 0 or len(cycles) % 2 == 0):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        plain = [c for c in cycles if not c["traced"]]
        e2e = summarize_e2e(args.workload, setups, plain, peak_rss_mb)
        failed_all = sum(c["failed"] for c in cycles)
        attempted_all = sum(c["attempted"] for c in cycles)
        if args.trace:
            layers = summarize_layers(cycles, logs, size["gen_count"])
            emitted = {k: layers[k] for k in PER_LAYER}
            print_table(f"{args.workload}: per-layer metrics (traced repetitions)", emitted)
        else:
            table = {k: e2e[k] for k in list(COMMON_TABLE) + list(WORKLOAD_TABLE[args.workload])}
            print_table(f"{args.workload}: end-to-end metrics", table)
            emitted = {k: e2e[k] for k in END_TO_END}

        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_block(wl),
                  "setup_s_each": [{"wall": w, "cpu": c} for w, c in setups],
                  "metrics": {k: {"value": v, "unit": u, "n": n}
                              for k, (v, u, n) in (e2e | emitted).items()},
                  "cycles": [{k: v for k, v in c.items() if k != "layer_samples"}
                             for c in cycles]}
        (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        if spans:
            with open(results / f"{tag}-spans.jsonl", "w") as f:
                for k, cycle_spans in enumerate(spans):
                    for i, (name, t0, t1, parent, extra) in enumerate(cycle_spans):
                        f.write(json.dumps({"cycle": k, "id": i, "name": name, "start": t0,
                                            "end": t1, "parent": parent,
                                            **(extra or {})}) + "\n")
        for c in cycles:
            for e in c["errors"]:
                print(f"error: {e}", file=sys.stderr)
        print(json.dumps({
            "correct": failed_all == 0, "attempted": attempted_all, "failed": failed_all,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in emitted.items()}}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# smoke: all workloads at tiny sizes, every metric present with its unit

def smoke():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: m["unit"] for m in declared[kind]}
        if got != table:
            raise BenchmarkError(f"BENCHMARK.json {kind} disagrees with run.py: {got} != {table}")
    for name in WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", "0", "--seconds", "0",
                                   "--trace", str(trace), "--size", "smoke"],
                                  capture_output=True, text=True, timeout=170, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchmarkError(f"{name} trace={trace} failed:\n{proc.stderr}")
            result = json.loads(lines[-1])
            want = PER_LAYER if trace else END_TO_END
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or not result["correct"]:
                raise BenchmarkError(f"{name} trace={trace}: {lines[-1]}")
            if not trace:
                table = " ".join(lines[:-1])
                missing = [k for k in list(COMMON_TABLE) + list(WORKLOAD_TABLE[name])
                           if f" {k} " not in table]
                if missing:
                    raise BenchmarkError(f"{name}: table lacks {missing}")
            print(f"smoke {name} trace={trace}: ok, {len(got)} metrics, "
                  f"{time.perf_counter() - start:.1f}s")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny sizes and check the emitted metrics")
    args = p.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        return run(args)
    except (BenchmarkError, OSError, ImportError, KeyError, ValueError) as e:
        print(f"benchmark error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
