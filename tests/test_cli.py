"""End-to-end checks of the command line interface.

Runs the real subcommands through cli.main with a tiny config so the
whole pipeline (dataset, train-ae, train-prior, generate, eval) stays
in the seconds range.
"""

import json

import numpy as np
import pytest

from dgae import cli
from dgae.cli import FORMAT_VERSIONS, main, parse_config_file
from dgae.graphs import load_dataset
from dgae.training import ConfigError

TINY_CONFIG = """\
# small models, few epochs
n_max = 20
seed = 5
holdout_frac = 0.25
feat_spectral = false
feat_random = false
gnn_layers = 1
state_width = 16
mlp_hidden = 32
d_latent = 8
partitions = 2
codebook_size = 6
blocks = 1
d_model = 16
heads = 2
batch_size = 16
epochs_ae = 8
epochs_prior = 8
kmeans_samples = 512
"""


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Train the full pipeline once through the CLI and hand out paths."""
    root = tmp_path_factory.mktemp("cli")
    p = {
        "config": root / "tiny.conf",
        "data": root / "train.graphs",
        "ae_ckpt": root / "ae.ckpt",
        "ae_metrics": root / "ae_metrics.csv",
        "full_ckpt": root / "full.ckpt",
        "prior_metrics": root / "prior_metrics.csv",
        "cache": root / "train.seqs",
        "samples": root / "samples.graphs",
        "report": root / "mmd.csv",
        "root": root,
    }
    p["config"].write_text(TINY_CONFIG)
    assert run(["dataset", "gen", "--spec", "community-small",
                "--count", 24, "--seed", 1, "--out", p["data"]]) == 0
    assert run(["train-ae", "--data", p["data"], "--out", p["ae_ckpt"],
                "--metrics", p["ae_metrics"], "--config", p["config"]]) == 0
    assert run(["train-prior", "--data", p["data"], "--ckpt", p["ae_ckpt"],
                "--out", p["full_ckpt"], "--metrics", p["prior_metrics"],
                "--cache", p["cache"], "--config", p["config"]]) == 0
    assert run(["generate", "--ckpt", p["full_ckpt"], "--count", 10,
                "--seed", 9, "--out", p["samples"]]) == 0
    assert run(["eval", "--ref", p["data"], "--gen", p["samples"],
                "--out", p["report"]]) == 0
    return p


def manifest_of(path):
    with open(str(path) + ".manifest.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# basics

def test_version_flag_prints_tool_and_format_versions(capsys):
    with pytest.raises(SystemExit) as e:
        run(["--version"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert "dgae 0.1.0" in out
    assert "checkpoint=1" in out


def test_errors_go_to_stderr_with_exit_code_one(tmp_path, capsys):
    rc = run(["dataset", "gen", "--spec", "no-such-generator",
              "--count", 4, "--out", tmp_path / "x"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "no-such-generator" in err


# ---------------------------------------------------------------------------
# config files

def test_config_file_round_trip(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text(TINY_CONFIG)
    d = parse_config_file(path)
    assert d["n_max"] == 20
    assert d["holdout_frac"] == 0.25
    assert d["feat_spectral"] is False
    assert d["epochs_ae"] == 8


def test_config_file_reports_every_problem_at_once(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("n_max = 8\nthis line has no assignment\n"
                    "not_a_field = 3\nbatch_size = many\n")
    with pytest.raises(ConfigError) as e:
        parse_config_file(path)
    msg = str(e.value)
    assert "no assignment" in msg or "line 2" in msg
    assert "not_a_field" in msg
    assert "batch_size" in msg


def test_bad_config_file_fails_the_command(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("nope = 1\nbatch_size = many\n")
    data = tmp_path / "d.graphs"
    assert run(["dataset", "gen", "--spec", "community-small",
                "--count", 4, "--out", data]) == 0
    rc = run(["featurize", "--in", data, "--config", conf])
    assert rc == 1
    err = capsys.readouterr().err
    assert "nope" in err and "batch_size" in err


def test_seed_flag_overrides_config(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text("seed = 5\n")
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 4, "--out", data])
    capsys.readouterr()
    rc = run(["train-ae", "--data", data, "--out", tmp_path / "m.ckpt",
              "--config", conf, "--seed", 11, "--dry-run"])
    assert rc == 0
    assert "seed = 11" in capsys.readouterr().out


def test_dry_run_prints_config_and_writes_nothing(tmp_path, capsys):
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 4, "--out", data])
    capsys.readouterr()
    out_path = tmp_path / "model.ckpt"
    rc = run(["train-ae", "--data", data, "--out", out_path, "--dry-run"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_max = 20" in out
    assert f"dry-run: would write {out_path}" in out
    assert not out_path.exists()
    assert not (tmp_path / "model.ckpt.manifest.json").exists()


def test_eval_dry_run_computes_no_report(tmp_path, capsys, monkeypatch):
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 4, "--out", data])
    capsys.readouterr()

    def no_report(*args, **kwargs):
        raise AssertionError("dry run computed the MMD report")

    monkeypatch.setattr(cli.evaluation, "mmd_report", no_report)
    out_path = tmp_path / "mmd.csv"
    rc = run(["eval", "--ref", data, "--gen", data, "--out", out_path, "--dry-run"])
    assert rc == 0
    assert f"dry-run: would write {out_path}" in capsys.readouterr().out
    assert not out_path.exists()
    assert not (tmp_path / "mmd.csv.manifest.json").exists()
    # the inputs are still read: a missing one is an error line, not a dry run
    rc = run(["eval", "--ref", data, "--gen", tmp_path / "missing.graphs",
              "--out", out_path, "--dry-run"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# dataset

def test_dataset_gen_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.graphs", tmp_path / "b.graphs"
    for out in (a, b):
        assert run(["dataset", "gen", "--spec", "community-small",
                    "--count", 12, "--seed", 3, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()
    graphs, header = load_dataset(a)
    assert len(graphs) == 12
    assert header["R"] == 1 and header["S"] == 2


def test_dataset_gen_manifest_records_the_generator(tmp_path):
    out = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small",
         "--count", 6, "--seed", 2, "--out", out])
    m = manifest_of(out)
    assert m["generator"] == "community-small"
    assert m["count"] == 6 and m["seed"] == 2
    assert m["command"] == ["dataset", "gen"]
    assert m["formats"] == FORMAT_VERSIONS
    assert m["outputs"] == [str(out)]


def test_featurize_widths_report(tmp_path, capsys):
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 4, "--out", data])
    capsys.readouterr()
    conf = tmp_path / "c.conf"
    conf.write_text("feat_spectral = false\nfeat_random = false\n")
    assert run(["featurize", "--in", data, "--config", conf]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split("=") for line in out.strip().splitlines())
    assert int(lines["graphs"]) == 4
    # R=1 one-hot plus p-path counts (p=3) and the three cycle counts
    assert int(lines["node_feature_width"]) == 1 + 3 + 3
    assert int(lines["edge_feature_width"]) >= 2
    total = int(lines["real_edge_slots"]) + int(lines["virtual_edge_slots"])
    assert total == int(lines["neighborhood_slots"])


def test_featurize_rejects_dataset_larger_than_n_max(tmp_path, capsys):
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 4, "--out", data])
    conf = tmp_path / "c.conf"
    conf.write_text("n_max = 4\n")
    rc = run(["featurize", "--in", data, "--config", conf])
    assert rc == 1
    assert "raise n_max" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# training artifacts

def test_train_ae_outputs(workspace):
    m = manifest_of(workspace["ae_ckpt"])
    assert m["config"]["epochs_ae"] == 8
    assert m["config_sha256"] is not None
    header = workspace["ae_metrics"].read_text().splitlines()[0]
    assert header == "step,loss_recon,loss_commit,nll,perplexity,node_err,edge_err"


def test_train_prior_outputs(workspace):
    assert workspace["full_ckpt"].exists()
    assert workspace["cache"].exists()
    assert workspace["cache"].read_bytes()[:4] == b"DSEQ"
    m = manifest_of(workspace["full_ckpt"])
    assert str(workspace["cache"]) in m["outputs"]
    rows = workspace["prior_metrics"].read_text().splitlines()
    assert len(rows) >= 2  # header plus one epoch
    nll_col = rows[0].split(",").index("nll")
    assert float(rows[-1].split(",")[nll_col]) > 0


def test_generate_writes_valid_graphs(workspace):
    graphs, header = load_dataset(workspace["samples"])
    assert len(graphs) == 10
    assert header["R"] == 1 and header["S"] == 2
    for g in graphs:
        assert 1 <= g.n <= 20
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
    m = manifest_of(workspace["samples"])
    assert m["count"] == 10 and m["seed"] == 9
    assert 0 <= m["truncated"] <= 10


def test_generate_same_seed_is_byte_identical(workspace, tmp_path, capsys):
    again = tmp_path / "again.graphs"
    assert run(["generate", "--ckpt", workspace["full_ckpt"], "--count", 10,
                "--seed", 9, "--out", again]) == 0
    capsys.readouterr()
    assert again.read_bytes() == workspace["samples"].read_bytes()


def test_generate_requires_a_prior_checkpoint(workspace, tmp_path, capsys):
    rc = run(["generate", "--ckpt", workspace["ae_ckpt"], "--count", 2,
              "--seed", 0, "--out", tmp_path / "x.graphs"])
    assert rc == 1
    assert "no prior" in capsys.readouterr().err


def test_eval_report_columns_and_determinism(workspace, tmp_path, capsys):
    lines = [l for l in workspace["report"].read_text().splitlines()
             if not l.startswith("#")]
    header, values = lines[0].split(","), lines[1].split(",")
    row = dict(zip(header, values))
    for key in ("mmd_degree", "mmd_clustering", "mmd_orbit", "mmd_avg"):
        assert 0.0 <= float(row[key]) <= 2.0
    want = (float(row["mmd_degree"]) + float(row["mmd_clustering"])
            + float(row["mmd_orbit"])) / 3.0
    assert float(row["mmd_avg"]) == pytest.approx(want, abs=1e-9)
    assert int(row["ref_count"]) == 24 and int(row["gen_count"]) == 10

    again = tmp_path / "again.csv"
    assert run(["eval", "--ref", workspace["data"], "--gen", workspace["samples"],
                "--out", again]) == 0
    capsys.readouterr()
    assert again.read_bytes() == workspace["report"].read_bytes()


def test_checkpoints_reload_through_the_cli_loader(workspace):
    cfg, model, pparams, meta = cli._load_models(str(workspace["full_ckpt"]),
                                                 need_prior=True)
    assert meta["kind"] == "full"
    assert cfg.codebook_size == 6 and cfg.partitions == 2
    assert model.codebooks.initialized
    assert pparams is not None


def test_truncated_checkpoint_is_one_error_line(workspace, tmp_path, capsys):
    raw = workspace["full_ckpt"].read_bytes()
    # inside the magic, the header length, the JSON header, the tensor
    # count, a tensor's name, shape and data, and one byte short
    blob_end = 12 + int.from_bytes(raw[8:12], "little")
    for cut in (3, 6, 10, 40, blob_end + 2, blob_end + 7, blob_end + 12, blob_end + 40,
                len(raw) // 2, len(raw) - 1):
        path = tmp_path / f"cut{cut}.ckpt"
        path.write_bytes(raw[:cut])
        capsys.readouterr()
        rc = run(["generate", "--ckpt", path, "--count", 2, "--out", tmp_path / "g"])
        err = capsys.readouterr().err
        assert rc == 1, cut
        assert err.startswith("error: ") and err.count("\n") == 1, (cut, err)
        assert str(path) in err, (cut, err)


def test_malformed_checkpoint_header_is_one_error_line(workspace, tmp_path, capsys):
    raw = workspace["full_ckpt"].read_bytes()
    blob_end = 12 + int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:blob_end])

    def renamed(key):
        return {("old_" + k if k == key else k): v for k, v in header.items()}

    # valid JSON, wrong shape: each once gave a traceback
    cases = {"no-config": renamed("config"), "no-step": renamed("step"),
             "no-extra": renamed("extra"), "array": [header],
             "extra-array": {**header, "extra": [1]},
             "n_max-string": {**header, "config": {**header["config"], "n_max": "20"}}}
    for name, bad in cases.items():
        blob = json.dumps(bad).encode()
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[blob_end:])
        capsys.readouterr()
        rc = run(["generate", "--ckpt", path, "--count", 2, "--out", tmp_path / "g"])
        err = capsys.readouterr().err
        assert rc == 1, name
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        assert f"{path}: bad checkpoint header: " in err, (name, err)


def test_corrupt_tensor_header_is_one_error_line(workspace, tmp_path, capsys):
    # a flipped bit in a size field once asked f.read for terabytes
    # (MemoryError) or more than a C ssize_t (OverflowError)
    raw = workspace["full_ckpt"].read_bytes()
    first = 12 + int.from_bytes(raw[8:12], "little") + 4  # the first tensor
    name_len = int.from_bytes(raw[first:first + 2], "little")
    rank = raw[first + 3 + name_len]
    fields = list(range(first, first + 2)) + [first + 3 + name_len] \
        + list(range(first + 4 + name_len, first + 4 + name_len + 4 * rank))
    path = tmp_path / "flipped.ckpt"
    for at in fields:
        for bit in range(8):
            bad = bytearray(raw)
            bad[at] ^= 1 << bit
            path.write_bytes(bytes(bad))
            capsys.readouterr()
            rc = run(["generate", "--ckpt", path, "--count", 2, "--out", tmp_path / "g",
                      "--dry-run"])
            err = capsys.readouterr().err
            assert rc == 1, (at, bit)
            assert err.startswith("error: ") and err.count("\n") == 1, (at, bit, err)


# ---------------------------------------------------------------------------
# ablation commands

def test_ablate_features_cli(tmp_path, capsys):
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 8, "--out", data])
    conf = tmp_path / "c.conf"
    conf.write_text("gnn_layers = 1\nstate_width = 8\nmlp_hidden = 16\n"
                    "d_latent = 4\npartitions = 1\ncodebook_size = 4\n"
                    "epochs_ae = 2\nbatch_size = 8\nkmeans_samples = 64\n"
                    "holdout_frac = 0.25\n")
    out = tmp_path / "features.csv"
    capsys.readouterr()
    assert run(["ablate", "features", "--data", data, "--out", out,
                "--seeds", "0", "--config", conf]) == 0
    stdout = capsys.readouterr().out
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "cell,epoch,loss_recon_mean,loss_recon_std"
    cells = {r.split(",")[0] for r in rows[1:]}
    assert {"all", "none", "no-paths"} <= cells
    assert len(rows) - 1 == len(cells) * 2  # two epochs per cell
    assert "all: final holdout loss" in stdout


def test_ablate_codebook_cli(tmp_path, capsys):
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 8, "--out", data])
    conf = tmp_path / "c.conf"
    conf.write_text("gnn_layers = 1\nstate_width = 8\nmlp_hidden = 16\n"
                    "d_latent = 4\nepochs_ae = 2\nbatch_size = 8\n"
                    "kmeans_samples = 64\nholdout_frac = 0.25\n")
    out = tmp_path / "codebook.csv"
    capsys.readouterr()
    assert run(["ablate", "codebook", "--data", data, "--out", out,
                "--grid", "4:1,2:2", "--seeds", "0", "--no-prior",
                "--config", conf]) == 0
    stdout = capsys.readouterr().out
    assert "m=4 C=1" in stdout and "m=2 C=2" in stdout
    body = out.read_text()
    assert "4,1,4" in body and "2,2,4" in body  # m,C,M columns


def test_ablate_rejects_malformed_grid(tmp_path, capsys):
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 4, "--out", data])
    rc = run(["ablate", "codebook", "--data", data, "--out", tmp_path / "x",
              "--grid", "16x2"])
    assert rc == 1
    assert "want m:C" in capsys.readouterr().err
