"""End-to-end checks of the command line interface.

Runs the real subcommands through cli.main with a tiny config so the
whole pipeline (dataset, train-ae, train-prior, generate, eval) stays
in the seconds range.
"""

import ctypes
import json
import platform
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dgae import cli, prior, training
from dgae.cli import FORMAT_VERSIONS, main, parse_config_file
from dgae.graphs import load_dataset, new_graph, save_dataset
from dgae.training import ConfigError

FROZEN = Path(__file__).resolve().parents[1] / "dgaebench" / "frozen.ckpt"

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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_cli_processes_keep_freed_memory_on_glibc():
    assert cli._keep_freed_memory() is True
    assert cli._keep_freed_memory() is True  # setting the same values again is harmless


@pytest.mark.parametrize("libc", [object(), SimpleNamespace(mallopt=lambda option, value: 0)],
                         ids=["no-mallopt", "mallopt-refuses"])
def test_commands_run_alike_without_glibcs_mallopt(tmp_path, capsys, monkeypatch, libc):
    outputs, data = [], tmp_path / "d.graphs"
    for loader in (ctypes.CDLL, lambda name: libc):
        monkeypatch.setattr(cli.ctypes, "CDLL", loader)
        assert run(["dataset", "gen", "--spec", "community-small", "--count", 4,
                    "--seed", 1, "--out", data]) == 0
        assert run(["featurize", "--in", data]) == 0
        outputs.append((data.read_bytes(), capsys.readouterr()))
    assert cli._keep_freed_memory() is False
    assert outputs[0] == outputs[1]


def test_errors_go_to_stderr_with_exit_code_one(tmp_path, capsys):
    for dry_run in ([], ["--dry-run"]):
        rc = run(["dataset", "gen", "--spec", "no-such-generator",
                  "--count", 4, "--out", tmp_path / "x"] + dry_run)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (dry_run, err)
        assert "no-such-generator" in err
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["featurize", "--in", "d.graphs", "--dry-run"],
    ["featurize", "--in", "d.graphs", "--verbose"],
    ["eval", "--ref", "a.graphs", "--gen", "b.graphs", "--out", "r.csv", "--verbose"],
    ["featurize", "--in", "d.graphs", "--seed", "1"],
    ["eval", "--ref", "a.graphs", "--gen", "b.graphs", "--out", "r.csv", "--seed", "1"],
], ids=["featurize-dry-run", "featurize-verbose", "eval-verbose", "featurize-seed",
        "eval-seed"])
def test_commands_reject_flags_they_would_ignore(argv, capsys):
    """--dry-run is for commands that write files, --verbose for those
    that log per-epoch metrics, --seed for those that draw random
    numbers."""
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("text,needle", [
    (b"mmd_sigma = nan\n", "mmd_sigma must be finite"),
    (b"lr = inf\n", "lr must be finite"),
    (b"gamma = -inf\n", "gamma must be finite"),
    (b"holdout_frac = NaN\n", "holdout_frac must be finite"),
    (b"seed = 1\n\xff\xfe\n", "c.conf: not UTF-8 text"),
    (b"feat_spectral = maybe\n", "c.conf: line 1: bad bool value for feat_spectral: 'maybe'\n"),
    (b"feat_k = 0\n",
     "error: invalid config: feat_k must be >= 1 when spectral features are on\n"),
    (b"feat_d_rand = -1\n", "error: invalid config: feat_d_rand must be >= 0\n"),
    (b"feat_k = 0\nfeat_d_rand = -1\n",
     "error: invalid config: feat_k must be >= 1 when spectral features are on; "
     "feat_d_rand must be >= 0\n"),
])
def test_bad_config_files_are_one_error_line(tmp_path, capsys, text, needle):
    """Every float field must be finite, and a config file that is not
    UTF-8 is named in the error; eval then writes no report. Config
    violations read as one "; "-separated list, which a needle ending in
    a newline matches as the whole line."""
    conf = tmp_path / "c.conf"
    conf.write_bytes(text)
    data = tmp_path / "d.graphs"
    assert run(["dataset", "gen", "--spec", "community-small",
                "--count", 4, "--out", data]) == 0
    capsys.readouterr()
    rc = run(["eval", "--ref", data, "--gen", data, "--out", tmp_path / "r.csv",
              "--config", conf])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err
    assert not (tmp_path / "r.csv").exists()


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


def test_dataset_gen_dry_run_builds_no_graph(tmp_path, capsys, monkeypatch):
    """A dry run names what it would write, and neither builds the graphs
    nor prints a model config, which dataset generation does not read."""
    def no_build(spec):
        raise AssertionError("dry run built the dataset")

    monkeypatch.setattr(cli, "build_dataset", no_build)
    out = tmp_path / "d.graphs"
    assert run(["dataset", "gen", "--spec", "community-small", "--count", 3000,
                "--out", out, "--dry-run"]) == 0
    assert capsys.readouterr().out == f"dry-run: would write {out}\n"
    assert list(tmp_path.iterdir()) == []


def test_dataset_gen_manifest_records_the_generator(tmp_path, monkeypatch):
    """And the argv main was given, not that of the program calling it."""
    monkeypatch.setattr("sys.argv", ["host", "--some", "flag"])
    out = tmp_path / "d.graphs"
    argv = ["dataset", "gen", "--spec", "community-small", "--count", "6", "--seed", "2",
            "--out", str(out)]
    assert main(argv) == 0
    m = manifest_of(out)
    assert m["argv"] == argv
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


@pytest.mark.parametrize("count,holdout", [(3, 0.9), (0, 0.2)],
                         ids=["all-held-out", "empty-dataset"])
@pytest.mark.parametrize("command", ["train-ae", "train-prior"])
def test_an_empty_training_split_is_one_error_line(workspace, tmp_path, capsys, command,
                                                    count, holdout):
    """Neither stage trains on nothing: exit 1, one error line, no
    checkpoint and no metrics."""
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", count, "--out", data])
    conf = tmp_path / "c.conf"
    conf.write_text(f"holdout_frac = {holdout}\n")
    out, csv = tmp_path / "out.ckpt", tmp_path / "m.csv"
    argv = [command, "--data", data, "--out", out, "--metrics", csv, "--config", conf]
    if command == "train-prior":
        argv += ["--ckpt", workspace["ae_ckpt"]]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: empty training split\n"
    assert not out.exists() and not csv.exists()


def _epoch_lines(out):
    """{epoch: [(key, value)]} of the `epoch N: k=v ...` lines of out."""
    lines = {}
    for line in out.splitlines():
        if line.startswith("epoch"):
            head, _, body = line.partition(": ")
            assert re.fullmatch(r"epoch \d+", head), line
            pairs = [cell.split("=") for cell in body.split(" ")]
            assert all(re.fullmatch(r"-?\d+\.\d{5}", v) for _, v in pairs), line
            lines[int(head.split()[1])] = [(k, float(v)) for k, v in pairs]
    return lines


@pytest.mark.parametrize("holdout", [0.25, 0.0])
def test_verbose_logs_one_line_per_epoch_with_holdout_metrics(tmp_path, capsys, holdout):
    """--verbose logs `epoch N: k=v ...` with each value to 5 decimals,
    the metrics of the epoch's CSV row, in the order the stage computes
    them; without a holdout set there are no metrics and no lines."""
    conf = tmp_path / "c.conf"
    conf.write_text(TINY_CONFIG.replace("epochs_ae = 8", "epochs_ae = 2")
                    .replace("epochs_prior = 8", "epochs_prior = 3")
                    .replace("holdout_frac = 0.25", f"holdout_frac = {holdout}"))
    data = tmp_path / "d.graphs"
    assert run(["dataset", "gen", "--spec", "community-small", "--count", 24,
                "--seed", 1, "--out", data]) == 0
    ae, full = tmp_path / "ae.ckpt", tmp_path / "full.ckpt"
    runs = [(["train-ae", "--data", data, "--out", ae], 2,
             ["loss_recon", "node_err", "edge_err", "loss_commit", "perplexity"]),
            (["train-prior", "--data", data, "--ckpt", ae, "--out", full], 3, ["nll"])]
    for argv, epochs, keys in runs:
        csv = tmp_path / "m.csv"
        capsys.readouterr()
        assert run(argv + ["--config", conf, "--metrics", csv, "--verbose"]) == 0
        lines = _epoch_lines(capsys.readouterr().out)
        if holdout == 0.0:
            assert lines == {}, argv[0]
            continue
        assert sorted(lines) == list(range(epochs)), argv[0]
        header, *rows = [r.split(",") for r in csv.read_text().splitlines()]
        for epoch, row in enumerate(rows):
            assert [k for k, _ in lines[epoch]] == keys, argv[0]
            for key, value in lines[epoch]:
                assert abs(value - float(row[header.index(key)])) <= 5.0001e-6, (key, row)


@pytest.mark.parametrize("sizes", [[1] * 20, np.random.default_rng(31).integers(1, 5, size=20)],
                         ids=["one-node", "edgeless"])
def test_pipeline_runs_on_graphs_with_no_pairs(tmp_path, capsys, sizes):
    """Batches of 1-node graphs give the decoder no pairs, and batches of
    edgeless graphs give the encoder none; every stage still exits 0."""
    p = {name: tmp_path / name for name in ("d.graphs", "c.conf", "ae.ckpt", "full.ckpt",
                                            "s.graphs", "r.csv")}
    save_dataset(p["d.graphs"], [new_graph(int(n)) for n in sizes])
    p["c.conf"].write_text("epochs_ae = 2\nepochs_prior = 2\nbatch_size = 8\n"
                           "kmeans_samples = 64\n")
    for argv in (["train-ae", "--data", p["d.graphs"], "--out", p["ae.ckpt"],
                  "--config", p["c.conf"]],
                 ["train-prior", "--data", p["d.graphs"], "--ckpt", p["ae.ckpt"],
                  "--out", p["full.ckpt"], "--config", p["c.conf"]],
                 ["generate", "--ckpt", p["full.ckpt"], "--count", 8, "--out", p["s.graphs"]],
                 ["eval", "--ref", p["d.graphs"], "--gen", p["s.graphs"], "--out", p["r.csv"]]):
        assert run(argv) == 0, (argv, capsys.readouterr().err)
    assert capsys.readouterr().err == ""
    assert p["r.csv"].exists()


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


def test_negative_count_is_one_error_line(workspace, tmp_path, capsys):
    out = tmp_path / "x.graphs"
    for argv in (["generate", "--ckpt", workspace["full_ckpt"], "--count", -2, "--out", out],
                 ["dataset", "gen", "--spec", "community-small", "--count", -3,
                  "--out", out]):
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--count" in err[0]
        assert not out.exists()


def test_generate_zero_count_prints_no_warning_or_nan(workspace, tmp_path, capsys):
    out = tmp_path / "empty.graphs"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["generate", "--ckpt", workspace["full_ckpt"], "--count", 0,
                    "--out", out]) == 0
    printed = capsys.readouterr()
    assert caught == []
    assert "nan" not in printed.out + printed.err
    assert load_dataset(out)[0] == []


def test_generate_writes_the_models_category_counts_in_the_header(tmp_path, capsys):
    """Also with no graph to take them from."""
    cfg = training.ModelConfig(node_categories=3, edge_categories=3, d_latent=8,
                               d_model=16, heads=2, blocks=1)
    rng = np.random.default_rng(0)
    model, pparams = training.AutoEncoderModel(cfg, rng), prior.PriorParams(cfg, rng)
    ckpt = tmp_path / "full.ckpt"
    training.save_checkpoint(str(ckpt), cfg, training.state_arrays(model.state, pparams.state),
                             0)
    for count in (0, 2):
        out = tmp_path / f"gen{count}.graphs"
        assert run(["generate", "--ckpt", ckpt, "--count", count, "--out", out]) == 0
        graphs, header = load_dataset(out)
        assert len(graphs) == count and header == {"R": 3, "S": 3}
    capsys.readouterr()


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
    # each statistic's three kernel means, from which its mmd is made
    for stat in ("degree", "clustering", "orbit"):
        k_ref, k_gen, k_cross = (float(row[f"k_{side}_{stat}"]) for side in ("ref", "gen", "cross"))
        assert float(row["mmd_" + stat]) == pytest.approx(k_ref + k_gen - 2.0 * k_cross, abs=1e-9)

    again = tmp_path / "again.csv"
    assert run(["eval", "--ref", workspace["data"], "--gen", workspace["samples"],
                "--out", again]) == 0
    capsys.readouterr()
    assert again.read_bytes() == workspace["report"].read_bytes()


def test_checkpoints_reload_through_the_cli_loader(workspace):
    cfg, model, pparams = cli._load_models(str(workspace["full_ckpt"]), need_prior=True)
    assert cfg.codebook_size == 6 and cfg.partitions == 2
    assert model.codebooks.initialized
    assert pparams is not None
    _, model, pparams = cli._load_models(str(workspace["ae_ckpt"]), need_prior=False)
    assert model.codebooks.initialized and pparams is None


def test_train_prior_from_unseeded_codebooks_is_one_error_line(workspace, tmp_path, capsys):
    """A stage-1 checkpoint of no epochs has never seeded its codebooks:
    all its EMA counts are zero, and stage 2 has no codes to learn."""
    conf = tmp_path / "c.conf"
    conf.write_text(TINY_CONFIG.replace("epochs_ae = 8", "epochs_ae = 0"))
    ae, full = tmp_path / "ae.ckpt", tmp_path / "full.ckpt"
    assert run(["train-ae", "--data", workspace["data"], "--out", ae, "--config", conf]) == 0
    _, model, _ = cli._load_models(str(ae), need_prior=False)
    assert not model.codebooks.initialized
    capsys.readouterr()
    assert run(["train-prior", "--data", workspace["data"], "--ckpt", ae, "--out", full,
                "--config", conf]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "codebooks are uninitialized" in err
    assert not full.exists()


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
    cases = {"no-config": renamed("config"), "no-step": renamed("step"), "array": [header],
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


def test_checkpoint_header_bit_flips_are_clean_loads_or_one_error_line(workspace, tmp_path,
                                                                        capsys):
    """Every single-bit flip of the 12-byte prefix (magic, version and
    header length) and of the tensor count, and of every 16th byte of
    the JSON header, either still loads (exit 0) or fails with exit 1
    and one error: line, never a traceback."""
    raw = workspace["full_ckpt"].read_bytes()
    blob_end = 12 + int.from_bytes(raw[8:12], "little")
    path = tmp_path / "flipped.ckpt"
    clean = 0
    for at in [*range(12), *range(12, blob_end, 16), *range(blob_end, blob_end + 4)]:
        for bit in range(8):
            bad = bytearray(raw)
            bad[at] ^= 1 << bit
            path.write_bytes(bytes(bad))
            capsys.readouterr()
            rc = run(["generate", "--ckpt", path, "--count", 2, "--out", tmp_path / "g",
                      "--dry-run"])
            err = capsys.readouterr().err
            assert rc in (0, 1), (at, bit)
            if rc == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, (at, bit, err)
            clean += rc == 0
    # a digit of a training setting that stays a digit loads
    assert clean > 0


def test_tensor_name_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    raw = bytearray(FROZEN.read_bytes())
    first = 12 + int.from_bytes(raw[8:12], "little") + 4  # the first tensor
    raw[first + 2] = 0xFF  # the first byte of its name
    path = tmp_path / "badname.ckpt"
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    rc = run(["generate", "--ckpt", path, "--count", 2, "--out", tmp_path / "g"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{path}: tensor 0 " in err and "UTF-8" in err, err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("prefix", ["enc.", "dec.", "quant.", "prior."])
def test_a_non_finite_checkpoint_tensor_is_one_error_line(workspace, tmp_path, capsys, prefix,
                                                         bad):
    cfg, tensors, meta = training.load_checkpoint(str(workspace["full_ckpt"]))
    name = min(k for k in tensors if k.startswith(prefix))
    tensors[name].reshape(-1)[-1] = bad
    path = tmp_path / "nonfinite.ckpt"
    training.save_checkpoint(str(path), cfg, tensors, meta["step"])
    commands = {"generate": ["--count", 2, "--out", tmp_path / "g"],
                "train-prior": ["--data", workspace["data"], "--out", tmp_path / "p.ckpt",
                                "--config", workspace["config"], "--dry-run"]}
    for command, argv in commands.items():
        capsys.readouterr()
        rc = run([command, "--ckpt", path] + argv)
        err = capsys.readouterr().err
        if command == "train-prior" and prefix == "prior.":
            # train-prior reads the auto-encoder's tensors only and
            # trains its prior afresh
            assert rc == 0 and err == "", err
            continue
        assert rc == 1, command
        assert err == f"error: {path}: tensor {name} has non-finite values\n", (command, err)
    assert not (tmp_path / "g").exists()


def _with_config(raw, **changes):
    """The checkpoint bytes raw with config fields of its header changed."""
    blob_end = 12 + int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:blob_end])
    header["config"].update(changes)
    blob = json.dumps(header).encode()
    return raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[blob_end:]


@pytest.mark.parametrize("field,value", [
    ("blocks", 3.0), ("n_max", 20.5), ("heads", True), ("feat_paths", "yes"),
])
def test_mistyped_checkpoint_config_is_one_error_line(tmp_path, capsys, field, value):
    # the first three once ended in a TypeError traceback, and a string
    # bool was taken as true
    path = tmp_path / "typed.ckpt"
    path.write_bytes(_with_config(FROZEN.read_bytes(), **{field: value}))
    capsys.readouterr()
    rc = run(["generate", "--ckpt", path, "--count", 2, "--out", tmp_path / "g"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{path}: bad checkpoint header: " in err and f"{field} must be of type" in err
    assert not (tmp_path / "g").exists()


def test_a_refused_allocation_is_one_error_line(tmp_path, capsys):
    # the model is built from the header before the tensors' shapes are
    # checked: 2**50 codewords ask for 2**57 bytes of codebooks and EMA
    # sums, past any address space, so the request is refused outright
    # and no memory is touched. An allocation granted lazily and then
    # ended by the kernel's out-of-memory killer is not caught here.
    path = tmp_path / "huge.ckpt"
    path.write_bytes(_with_config(FROZEN.read_bytes(), codebook_size=2 ** 50))
    capsys.readouterr()
    rc = run(["generate", "--ckpt", path, "--count", 2, "--out", tmp_path / "g"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "g").exists()


AE_CHANGES = [  # (field, config file line, dataset header)
    ("codebook_size", "codebook_size = 8", None),
    ("partitions", "partitions = 4", None),
    ("d_latent", "d_latent = 8", None),
    ("feat_spectral", "feat_spectral = false", None),
    ("state_width", "state_width = 16", None),
    ("node_categories", "", {"R": 2, "S": 2, "directed": False}),
    ("edge_categories", "", {"R": 1, "S": 3, "directed": False}),
]


@pytest.mark.parametrize("field,conf,header", AE_CHANGES, ids=[c[0] for c in AE_CHANGES])
def test_train_prior_cannot_change_the_autoencoder(tmp_path, capsys, field, conf, header):
    """A setting of train-prior, or a dataset header's R or S, that
    differs from the one the checkpoint's auto-encoder was trained with
    is one error line naming the checkpoint and the field; no checkpoint
    is written. Each once gave a traceback, an opaque error, or a full
    checkpoint that generate rejected."""
    data = tmp_path / "d.graphs"
    assert run(["dataset", "gen", "--spec", "community-small", "--count", 30,
                "--seed", 1, "--out", data]) == 0
    if header is not None:
        lines = data.read_text().splitlines(keepends=True)
        data.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    (tmp_path / "c.conf").write_text(conf + "\n")
    out = tmp_path / "full.ckpt"
    capsys.readouterr()
    rc = run(["train-prior", "--data", data, "--ckpt", FROZEN, "--out", out,
              "--config", tmp_path / "c.conf"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{FROZEN}: " in err and field in err, err
    assert not out.exists()


def test_eval_dataset_bit_flips_are_clean_loads_or_one_error_line(tmp_path, capsys):
    """Every single-bit flip of a small dataset either still evaluates
    (exit 0) or fails with exit 1 and one error: line, never a traceback:
    a flip can change a node count, an edge, a category or the header,
    and the odd graph that results reaches the set-level statistics."""
    ref = tmp_path / "ref.graphs"
    ref.write_text('{"R": 1, "S": 2, "directed": false}\n'
                   '{"n": 3, "nodes": [0, 0, 0], "edges": [[0, 1, 1], [1, 2, 1]]}\n'
                   '{"n": 2, "nodes": [0, 0], "edges": [[0, 1, 1]]}\n')
    raw = ref.read_bytes()
    gen, out = tmp_path / "gen.graphs", tmp_path / "mmd.csv"
    clean = 0
    for at in range(len(raw)):
        for bit in range(8):
            bad = bytearray(raw)
            bad[at] ^= 1 << bit
            gen.write_bytes(bytes(bad))
            capsys.readouterr()
            rc = run(["eval", "--ref", ref, "--gen", gen, "--out", out])
            err = capsys.readouterr().err
            assert rc in (0, 1), (at, bit)
            if rc == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, (at, bit, err)
            clean += rc == 0
    # flips inside JSON whitespace or a digit that stays in range load
    assert 0 < clean < 8 * len(raw)


def test_eval_rejects_a_directed_dataset(tmp_path, capsys):
    """Graphs are undirected throughout, so a header that says otherwise
    fails the load instead of producing numbers with no meaning."""
    ref = tmp_path / "ref.graphs"
    ref.write_text('{"R": 1, "S": 2, "directed": false}\n'
                   '{"n": 3, "nodes": [0, 0, 0], "edges": [[0, 1, 1], [1, 2, 1]]}\n')
    gen = tmp_path / "gen.graphs"
    gen.write_text(ref.read_text().replace("false", "true"))
    capsys.readouterr()
    rc = run(["eval", "--ref", ref, "--gen", gen, "--out", tmp_path / "mmd.csv"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "directed" in err


ONE_RECORD = '{"n": 2, "nodes": [0, 0], "edges": [[0, 1, 1]]}\n'


@pytest.mark.parametrize("header,records,command", [
    ('{"R": "a", "S": 2, "directed": false}', "", "train-ae"),
    ('{"R": "a", "S": 2, "directed": false}', "", "featurize"),
    ('{"R": 1, "S": null, "directed": false}', "", "train-ae"),
    ('{"R": 1, "S": null, "directed": false}', "", "featurize"),
    ('{"R": 1.5, "S": 2, "directed": false}', ONE_RECORD, "featurize"),
    ('{"R": true, "S": 2, "directed": false}', ONE_RECORD, "featurize"),
    ('{"R": 0, "S": 2, "directed": false}', ONE_RECORD, "featurize"),
    ('{"R": 1, "S": 1, "directed": false}', ONE_RECORD, "featurize"),
    pytest.param('{"R": 1, "S": 2, "directed": false}\udcff', ONE_RECORD, "featurize",
                 id="not-utf8"),
])
def test_bad_category_counts_in_a_dataset_header_are_one_error_line(
        tmp_path, capsys, header, records, command):
    """R and S must be integers, not bools, with R >= 1 and S >= 2, and
    the file must be UTF-8 text (the lone surrogate is written as the
    byte 0xff)."""
    data = tmp_path / "d.graphs"
    data.write_bytes((header + "\n" + records).encode("utf-8", "surrogateescape"))
    argv = {"train-ae": ["train-ae", "--data", data, "--out", tmp_path / "ae.ckpt"],
            "featurize": ["featurize", "--in", data]}[command]
    capsys.readouterr()
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert (f"{data}: not UTF-8 text" if "\udcff" in header else "bad dataset header") in err


@pytest.mark.parametrize("n,shown", [("2.5", "2.5"), ("true", "True"), ('"2"', "'2'"),
                                     ("0", "0")])
def test_a_bad_node_count_in_a_dataset_record_is_one_error_line(tmp_path, capsys, n, shown):
    """A record's n must be an integer >= 1, not a bool, a float or a
    string, as the header's R and S must be; the one error line names
    the file, the line and n."""
    data = tmp_path / "d.graphs"
    data.write_text('{"R": 1, "S": 2, "directed": false}\n'
                    + ONE_RECORD.replace('"n": 2', f'"n": {n}'))
    capsys.readouterr()
    rc = run(["featurize", "--in", data])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {data}:2: bad graph record: n must be an integer >= 1, got {shown}\n"


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


@pytest.mark.parametrize("argv,outs,heavy", [
    (["train-prior", "--data", "{data}", "--ckpt", "{ae_ckpt}", "--out", "{out}/p.ckpt",
      "--metrics", "{out}/p.csv", "--cache", "{out}/p.seqs"],
     ["p.ckpt", "p.csv", "p.seqs"], (training, "train_prior")),
    (["generate", "--ckpt", "{full_ckpt}", "--count", "4", "--out", "{out}/g.graphs"],
     ["g.graphs"], (training, "generate_graphs")),
    (["ablate", "features", "--data", "{data}", "--out", "{out}/f.csv"],
     ["f.csv"], (cli.evaluation, "ablation_feature_report")),
    (["ablate", "codebook", "--data", "{data}", "--out", "{out}/c.csv", "--grid", "4:1"],
     ["c.csv"], (cli.evaluation, "ablation_codebook_report")),
], ids=["train-prior", "generate", "ablate-features", "ablate-codebook"])
def test_dry_runs_print_the_config_and_write_nothing(workspace, tmp_path, capsys, monkeypatch,
                                                      argv, outs, heavy):
    """A dry run prints every config field and the files it would
    write, runs no training, sampling or sweep, writes nothing and
    exits 0."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dry run did the work")

    monkeypatch.setattr(*heavy, refuse)
    paths = {**{k: str(v) for k, v in workspace.items()}, "out": str(tmp_path)}
    capsys.readouterr()
    assert run([a.format(**paths) for a in argv] + ["--dry-run"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split(" = ")[0] for l in lines[:-1]] == sorted(training.FIELD_TYPES)
    assert lines[-1] == "dry-run: would write " + ", ".join(str(tmp_path / o) for o in outs)
    assert not list(tmp_path.iterdir())


def test_bad_seeds_are_one_error_line(tmp_path, capsys):
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 4, "--out", data])
    capsys.readouterr()
    rc = run(["ablate", "features", "--data", data, "--out", tmp_path / "f.csv",
              "--seeds", "0,x"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: bad --seeds value '0,x': "
                                       "invalid literal for int() with base 10: 'x'\n")
    assert not (tmp_path / "f.csv").exists()
    # --seeds is checked before a dry run, as --grid is
    for command in ("features", "codebook"):
        rc = run(["ablate", command, "--data", data, "--out", tmp_path / "f.csv",
                  "--seeds", "0,x", "--dry-run"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: bad --seeds value '0,x': "
                                "invalid literal for int() with base 10: 'x'\n")
        assert "dry-run" not in captured.out


@pytest.mark.parametrize("argv,out,heavy,needle", [
    (["generate", "--ckpt", "{full_ckpt}", "--count", "4", "--seed", "-1"], "g.graphs",
     (training, "generate_graphs"), "--seed must be >= 0, got -1"),
    (["dataset", "gen", "--spec", "community-small", "--count", "4", "--seed", "-1"],
     "d.graphs", (cli, "build_dataset"), "--seed must be >= 0, got -1"),
    (["train-ae", "--data", "{data}", "--seed", "-2"], "a.ckpt",
     (training, "train_autoencoder"), "invalid config: seed must be >= 0"),
    (["train-ae", "--data", "{data}", "--config", "{out}/neg.conf"], "a.ckpt",
     (training, "train_autoencoder"), "invalid config: seed must be >= 0"),
    (["train-prior", "--data", "{data}", "--ckpt", "{ae_ckpt}", "--seed", "-2"], "p.ckpt",
     (training, "train_prior"), "invalid config: seed must be >= 0"),
    (["ablate", "features", "--data", "{data}", "--seeds", "0,-1"], "f.csv",
     (cli.evaluation, "ablation_feature_report"), "bad --seeds value '0,-1': seeds must be >= 0"),
    (["ablate", "codebook", "--data", "{data}", "--seeds", "0,-1"], "c.csv",
     (cli.evaluation, "ablation_codebook_report"), "bad --seeds value '0,-1': seeds must be >= 0"),
], ids=["generate", "dataset-gen", "train-ae", "train-ae-config", "train-prior",
        "ablate-features", "ablate-codebook"])
@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
def test_negative_seeds_are_one_error_line(workspace, tmp_path, capsys, monkeypatch, argv, out,
                                           heavy, needle, dry_run):
    """A negative seed, given by --seed, --seeds or the config file, is
    one error line naming it, before any work, with or without
    --dry-run; nothing is written."""
    def refuse(*args, **kwargs):
        raise AssertionError("a negative seed reached the work")

    monkeypatch.setattr(*heavy, refuse)
    (tmp_path / "neg.conf").write_text("seed = -3\n")
    paths = {**{k: str(v) for k, v in workspace.items()}, "out": str(tmp_path)}
    argv = [a.format(**paths) for a in argv] + ["--out", tmp_path / out]
    capsys.readouterr()
    assert run(argv + (["--dry-run"] if dry_run else [])) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: " + needle]
    assert "dry-run" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["neg.conf"]


def test_ablate_rejects_malformed_grid(tmp_path, capsys):
    data = tmp_path / "d.graphs"
    run(["dataset", "gen", "--spec", "community-small", "--count", 4, "--out", data])
    rc = run(["ablate", "codebook", "--data", data, "--out", tmp_path / "x",
              "--grid", "16x2"])
    assert rc == 1
    assert "want m:C" in capsys.readouterr().err
