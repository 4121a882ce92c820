#!/usr/bin/env python3
"""Rebuild the frozen checkpoint and the answers the benchmark checks.

    python3 dgaebench/make_reference.py

If frozen.ckpt is missing, the recipe first trains it: the default
ModelConfig for 10 auto-encoder epochs and 18 prior epochs (90 prior
steps) on 200 community-small graphs from input stream 9 of seed 0,
through the same `dgae` commands a user runs. An untrained prior
samples sets of about 3 nodes; after 90 steps the mean is about 15,
close to community-small's sizes, so decoding does realistic work.
Delete frozen.ckpt to rebuild it.

It then always re-records reference.json:
  - checkpoint_sha256: the generate workload refuses another file;
  - answers[workload][size][input seed], for every workload, size and
    input seed the benchmark uses, from unchecked cycles: the held-out
    reconstruction loss and prior NLL (train), one 8-hex digest per
    generated graph, in order (generate), the three MMD values of the
    input pair (eval).

Training is bit-reproducible on one machine and BLAS build; on another
the rebuilt checkpoint can differ in the last bits, and with it the
sha256 and every recorded answer. Rebuild them together.
"""

import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads
import inputs

RECIPE = {"graphs": 200, "seed": 0, "stream": 9, "epochs_ae": 10, "epochs_prior": 18}


def must(cli, argv):
    ok, seconds, err = run.run_cli(cli, argv)
    if not ok:
        raise SystemExit(f"dgae {argv[0]} failed: {err}")
    print(f"  dgae {argv[0]}: {seconds:.1f}s", flush=True)


def train_checkpoint(cli, work):
    data = work / "recipe.jsonl"
    inputs.make_dataset(data, RECIPE["graphs"], RECIPE["seed"], RECIPE["stream"])
    conf = work / "recipe.conf"
    conf.write_text(f"epochs_ae = {RECIPE['epochs_ae']}\nepochs_prior = {RECIPE['epochs_prior']}\n")
    must(cli, ["train-ae", "--data", data, "--out", work / "ae.ckpt", "--config", conf])
    must(cli, ["train-prior", "--data", data, "--ckpt", work / "ae.ckpt",
               "--out", work / "full.ckpt", "--config", conf])
    shutil.copyfile(work / "full.ckpt", run.CHECKPOINT)


def record(dgae, work, name, size_name):
    """A workload's answers at one size, by input seed."""
    answers = {}
    for seed in range(0, inputs.INPUT_SEEDS, run.WORKLOADS[name].SEEDS):
        wl = run.WORKLOADS[name](dgae, work, seed, size_name, None)
        wl.setup()
        rec = wl.cycle(None)
        if rec["failed"]:
            raise SystemExit(f"{name} {size_name} seed {seed}: {rec['failed']} failed "
                             f"operations: {rec['errors']}")
        answers.update(zip(map(str, wl.input_seeds), rec["answer"]))
    return answers


def main():
    dgae = run.import_dgae()
    work = run.HERE / "work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if not run.CHECKPOINT.exists():
            print("training the frozen checkpoint", flush=True)
            train_checkpoint(dgae[0], work)
        ref = {"checkpoint_sha256": inputs.file_sha256(run.CHECKPOINT), "recipe": RECIPE,
               "answers": {}}
        for name in run.WORKLOADS:
            for size_name in run.SIZES:
                print(f"{name} {size_name}", flush=True)
                ref["answers"].setdefault(name, {})[size_name] = record(
                    dgae, work, name, size_name)
        run.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {run.REFERENCE.name}; checkpoint sha256 {ref['checkpoint_sha256']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
